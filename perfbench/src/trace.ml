(* In-memory spans around calls into the program's layers.

   A span has a name (["blockdiag.parse"], ...), a start and an end, the
   span that encloses it and the operation it belongs to.  Spans are
   kept in memory and read back when the run ends.  When tracing is off,
   [span] calls the function and records nothing. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** [-1] for an operation's root span *)
  op : int;
  start_ns : int;
  stop_ns : int;
}

let now_ns = Clock.now_ns

type t = {
  mutable enabled : bool;
  mutable spans : span list;
  mutable next_id : int;
  mutable current : int;  (** innermost open span, [-1] at top level *)
  mutable op : int;
}

let create () =
  { enabled = false; spans = []; next_id = 0; current = -1; op = -1 }

let span t name f =
  if not t.enabled then f ()
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let parent = t.current in
    t.current <- id;
    let start_ns = now_ns () in
    let finish () =
      let stop_ns = now_ns () in
      t.current <- parent;
      t.spans <- { id; name; parent; op = t.op; start_ns; stop_ns } :: t.spans
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* One operation: a root span named ["op"] whose children are the layer
   calls made on its behalf. *)
let operation t op f =
  t.op <- op;
  span t "op" f

let spans t = List.rev t.spans

(* Self time of every span: its duration minus the union of the
   intervals its children cover.  Children of one parent never overlap
   (calls are sequential), so the union is the sum of durations. *)
let self_times spans =
  let child_ns = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_ns s.parent
          (Option.value ~default:0 (Hashtbl.find_opt child_ns s.parent)
          + (s.stop_ns - s.start_ns)))
    spans;
  List.map
    (fun s ->
      let covered = Option.value ~default:0 (Hashtbl.find_opt child_ns s.id) in
      (s, s.stop_ns - s.start_ns - covered))
    spans

(* Self time per layer name, summed over the run, in nanoseconds. *)
let self_by_name spans =
  let acc = Hashtbl.create 64 in
  List.iter
    (fun (s, self) ->
      Hashtbl.replace acc s.name
        (Option.value ~default:0 (Hashtbl.find_opt acc s.name) + self))
    (self_times spans);
  Hashtbl.fold (fun k v l -> (k, v) :: l) acc []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* The traced total: the summed duration of the operations' root spans. *)
let total_ns spans =
  List.fold_left
    (fun acc s -> if s.parent < 0 then acc + (s.stop_ns - s.start_ns) else acc)
    0 spans

type coverage = {
  total_ns : int;
  attributed_ns : int;  (** self time of every layer span *)
  unattributed_ns : int;  (** self time of the operations' root spans *)
  ok : bool;
}

(* The sum check: the layers' self times must account for all but
   [tolerance] of the traced total.  Time inside an operation that no
   layer span covers is the root span's self time; a layer call left
   without its span shows up there and fails the check. *)
let check ~tolerance spans =
  let total = total_ns spans in
  let unattributed =
    List.fold_left
      (fun acc (s, self) -> if s.parent < 0 then acc + self else acc)
      0 (self_times spans)
  in
  let attributed = total - unattributed in
  {
    total_ns = total;
    attributed_ns = attributed;
    unattributed_ns = unattributed;
    ok = total > 0 && float_of_int unattributed <= tolerance *. float_of_int total;
  }

(* Durations (ns) of every span with the given name. *)
let durations spans name =
  List.filter_map
    (fun s -> if s.name = name then Some (s.stop_ns - s.start_ns) else None)
    spans
