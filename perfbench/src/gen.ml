(* Seeded input generators.  Every input the program sees is built here
   from the workload seed; the same seed gives byte-identical texts. *)

module D = Blockdiag.Diagram
module R = Reliability.Reliability_model

(* ---------- block diagrams ---------- *)

(* A DC power-distribution mesh of [rows x cols] junctions.  A supply
   ([DC1], sensed by [CS0]) feeds junction (0,0); neighbouring junctions
   are linked by resistors, every [sensor_every]th horizontal link runs
   through a current sensor, [diodes] evenly spaced links are diodes
   pointing away from the supply, every junction carries a load to
   ground, and voltage sensors watch the far corner ([VS1]) and junctions
   spread along the diagonal.  The seed draws the values only: how much
   work the analyses do depends on the structure (the fault-tree lowering
   of a cyclic diagram enumerates its paths), so the structure is fixed
   by the dimensions. *)
let mesh ~rng ~name ~rows ~cols ~diodes ~sensor_every ~voltage_sensors =
  let junction r c = Printf.sprintf "LD%d_%d" r c in
  let blocks = ref [] and conns = ref [] in
  let add b = blocks := b :: !blocks in
  let wire (x, px) (y, py) = conns := D.connect (x, px) (y, py) :: !conns in
  let num k v = [ (k, D.P_num v) ] in
  add
    (D.block ~id:"DC1" ~block_type:"vsource"
       ~parameters:(num "volts" (Rng.value rng 12.0 24.0))
       ());
  add (D.block ~id:"CS0" ~block_type:"current_sensor" ());
  add (D.block ~id:"GND1" ~block_type:"ground" ~ports:[ { D.port_name = "a"; port_kind = D.Conserving } ] ());
  wire ("DC1", "a") ("CS0", "a");
  wire ("CS0", "b") (junction 0 0, "a");
  wire ("DC1", "b") ("GND1", "a");
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      add
        (D.block ~id:(junction r c) ~block_type:"load"
           ~parameters:(num "ohms" (Rng.value rng 50.0 500.0))
           ());
      wire (junction r c, "b") ("GND1", "a")
    done
  done;
  (* Links, in a fixed order; a seeded subset becomes diodes. *)
  let links =
    List.concat
      (List.init rows (fun r ->
           List.concat
             (List.init cols (fun c ->
                  (if c + 1 < cols then [ (`H, r, c) ] else [])
                  @ if r + 1 < rows then [ (`V, r, c) ] else []))))
    |> Array.of_list
  in
  let n_links = Array.length links in
  let diode_at = Hashtbl.create 16 in
  for k = 1 to min diodes n_links do
    Hashtbl.replace diode_at (k * n_links / (diodes + 1)) ()
  done;
  Array.iteri
    (fun i (dir, r, c) ->
      let tag = match dir with `H -> "H" | `V -> "V" in
      let src = junction r c in
      let dst = match dir with `H -> junction r (c + 1) | `V -> junction (r + 1) c in
      let id = Printf.sprintf "R%s%d_%d" tag r c in
      if Hashtbl.mem diode_at i then begin
        let id = Printf.sprintf "D%s%d_%d" tag r c in
        add (D.block ~id ~block_type:"diode" ());
        wire (id, "a") (src, "a");
        wire (id, "b") (dst, "a")
      end
      else begin
        add
          (D.block ~id ~block_type:"resistor"
             ~parameters:(num "ohms" (Rng.value rng 0.05 0.5))
             ());
        wire (id, "a") (src, "a");
        if dir = `H && sensor_every > 0 && c mod sensor_every = sensor_every - 1
        then begin
          let cs = Printf.sprintf "CS%d_%d" r c in
          add (D.block ~id:cs ~block_type:"current_sensor" ());
          wire (id, "b") (cs, "a");
          wire (cs, "b") (dst, "a")
        end
        else wire (id, "b") (dst, "a")
      end)
    links;
  let vs i r c =
    let id = Printf.sprintf "VS%d" i in
    add (D.block ~id ~block_type:"voltage_sensor" ());
    wire (id, "a") (junction r c, "a");
    wire (id, "b") ("GND1", "a")
  in
  vs 1 (rows - 1) (cols - 1);
  for i = 2 to voltage_sensors do
    let k = (i - 1) * min rows cols / voltage_sensors in
    vs i k k
  done;
  D.diagram ~name ~connections:(List.rev !conns) (List.rev !blocks)

(* Sensors of a mesh: the supply sensor, link sensors and voltage
   sensors, in block order. *)
let sensors (d : D.t) =
  List.filter_map
    (fun (b : D.block) ->
      match b.D.block_type with
      | "current_sensor" | "voltage_sensor" -> Some b.D.block_id
      | _ -> None)
    d.D.blocks

(* ---------- reliability models ---------- *)

let entry_of catalogue ctype =
  match R.find catalogue ctype with
  | Some e -> e
  | None -> invalid_arg ("Gen.entry_of: no catalogue entry " ^ ctype)

(* FIT rates for the mesh's component types drawn from the seed; the
   failure modes (and their fault models) are the repo's catalogue
   ones. *)
let mesh_reliability ~rng =
  let with_fit e lo hi = { e with R.fit = Reliability.Fit.of_float (Rng.value rng lo hi) } in
  R.of_entries
    [
      with_fit (entry_of R.synthetic_catalogue "resistor") 1.0 10.0;
      with_fit (entry_of R.synthetic_catalogue "load") 10.0 40.0;
      with_fit (entry_of R.synthetic_catalogue "current_sensor") 5.0 15.0;
      with_fit (entry_of R.synthetic_catalogue "vsource") 30.0 80.0;
      with_fit (entry_of R.table_ii "diode") 5.0 15.0;
    ]

let set_fit model ctype fit =
  R.add model { (entry_of model ctype) with R.fit = Reliability.Fit.of_float fit }

let fit_of model ctype = (entry_of model ctype).R.fit

(* ---------- texts ---------- *)

let diagram_text d = Blockdiag.Text_format.print d

let reliability_csv model =
  let sheet = Modelio.Spreadsheet.first_sheet (R.to_spreadsheet model) in
  let t = sheet.Modelio.Spreadsheet.table in
  Modelio.Csv.to_string (t.Modelio.Csv.header :: t.Modelio.Csv.rows)

(* Replace one numeric parameter of one block. *)
let set_param (d : D.t) ~block ~param value =
  let set (b : D.block) =
    if b.D.block_id = block then
      {
        b with
        D.parameters =
          (param, D.P_num value) :: List.remove_assoc param b.D.parameters;
      }
    else b
  in
  { d with D.blocks = List.map set d.D.blocks }

(* Blocks whose resistance an electrical edit may move, with their
   current value (the netlist extractor's default when unset). *)
let tunable (d : D.t) =
  List.filter_map
    (fun (b : D.block) ->
      let ohms default = Some (b.D.block_id, Option.value ~default (D.param_num b "ohms")) in
      match b.D.block_type with
      | "resistor" -> ohms 1000.0
      | "load" | "microcontroller" -> ohms 100.0
      | _ -> None)
    d.D.blocks
  |> Array.of_list

(* ---------- design-loop edit stream ---------- *)

type op =
  | Rel_edit of { ctype : string; fit : float }
      (** a reliability-only edit: one component type's FIT moves *)
  | Elec_edit of { block : string; ohms : float }
      (** an electrical edit: one block's resistance moves *)
  | Replay of int  (** one-shot analyse of the [i]th primed state *)

(* The op schedule: blocks of [rel + elec + replay] ops in which the
   electrical edits and the replays sit at fixed, evenly spread
   positions, so every prefix of the stream has the same mix whatever the
   seed; the seed picks what each op touches and the new values. *)
let pattern ~rel ~elec ~replay =
  let m = rel + elec + replay in
  let p = Array.make m `Rel in
  let place kind count offset =
    for j = 0 to count - 1 do
      let rec free i = if p.(i mod m) = `Rel then i mod m else free (i + 1) in
      p.(free (((2 * j) + 1) * m / (2 * count) + offset)) <- kind
    done
  in
  place `Elec elec 0;
  place `Replay replay (m / 4);
  p

let stream ~rng ~n ~rel ~elec ~replay ~rel_types ~tunable ~replays =
  let block = pattern ~rel ~elec ~replay in
  let fresh base = float_of_string (Printf.sprintf "%.6g" (base *. Rng.range rng 0.5 1.5)) in
  (* Reliability edits visit the component types in rounds, each round in
     a seeded order: how many rows an edit re-classifies depends on the
     type, and the mix should not depend on the seed. *)
  let types = ref [] in
  let next_type () =
    if !types = [] then types := Array.to_list (Rng.shuffle rng rel_types);
    match !types with
    | t :: rest ->
        types := rest;
        t
    | [] -> invalid_arg "Gen.stream: no component types"
  in
  Array.init n (fun i ->
      match block.(i mod Array.length block) with
      | `Rel ->
          let ctype, base = next_type () in
          Rel_edit { ctype; fit = fresh base }
      | `Elec ->
          let block, base = Rng.pick rng tunable in
          Elec_edit { block; ohms = fresh base }
      | `Replay -> Replay (Rng.int rng replays))

(* ---------- fault trees for the batch ---------- *)

(* The k-of-n vote of the repo's assessment tables. *)
let vote ~k ~n ~rate_fit =
  Fta.Fault_tree.koon "vote" ~k
    (List.init n (fun i ->
         Fta.Fault_tree.basic ~rate_fit (Printf.sprintf "e%d" i)))

(* Seeded probabilities for the named basic events, for exact
   quantification. *)
let event_probabilities ~rng ids =
  let tbl = Hashtbl.create 256 in
  List.iter (fun id -> Hashtbl.replace tbl id (Rng.value rng 1e-4 1e-2)) ids;
  fun id -> Option.value ~default:1e-3 (Hashtbl.find_opt tbl id)
