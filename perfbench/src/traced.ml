(* The traced run: replay an operation sequence in-process twice, first
   with tracing off and then on, and turn the spans into per-layer
   metrics. *)

type replay = {
  n : int;
  untraced_ns : int;  (** the sequence with tracing off *)
  op_ns : int list;  (** per-operation times with tracing off *)
  spans : Trace.span list;  (** from the traced pass *)
  coverage : Trace.coverage;
  minor_words : float;  (** allocated during the traced pass *)
  major_collections : int;
  sched_sequential : int;
  sched_parallel : int;
  counts : (string * float) list;  (** work counts from {!Layers.count} *)
}

(* The share of the traced total that may lie outside every layer span:
   the benchmark's own bookkeeping between calls. *)
let tolerance = 0.05

let replay ?(warm = true) ~n ~reset op =
  let tr = Layers.tracer in
  tr.Trace.enabled <- false;
  (* An untimed pass first, so neither timed pass pays first-touch. *)
  if warm then begin
    reset ();
    for k = 0 to n - 1 do
      op k
    done
  end;
  reset ();
  let op_ns =
    List.init n (fun k ->
        let t0 = Clock.now_ns () in
        op k;
        Clock.now_ns () - t0)
  in
  let untraced_ns = List.fold_left ( + ) 0 op_ns in
  reset ();
  tr.Trace.spans <- [];
  Hashtbl.reset Layers.counts;
  let gc0 = Gc.quick_stat () in
  let seq0, par0 = Exec.Cost.counters () in
  tr.Trace.enabled <- true;
  Fun.protect
    ~finally:(fun () -> tr.Trace.enabled <- false)
    (fun () ->
      for k = 0 to n - 1 do
        Trace.operation tr k (fun () -> op k)
      done);
  let gc1 = Gc.quick_stat () in
  let seq1, par1 = Exec.Cost.counters () in
  let spans = Trace.spans tr in
  {
    n;
    untraced_ns;
    op_ns;
    spans;
    coverage = Trace.check ~tolerance spans;
    minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
    sched_sequential = seq1 - seq0;
    sched_parallel = par1 - par0;
    counts = Hashtbl.fold (fun k v acc -> (k, v) :: acc) Layers.counts [];
  }

let op_ms r = List.map (fun ns -> float_of_int ns /. 1e6) r.op_ns

(* Spans reported per call in microseconds rather than milliseconds. *)
let micro_spans = [ "circuit.inject"; "fmea.row"; "assess.compile" ]

let span_names spans =
  List.sort_uniq String.compare
    (List.filter_map (fun s -> if s.Trace.parent >= 0 then Some s.Trace.name else None) spans)

(* Median duration of every layer span, plus the run's own figures. *)
let layer_metrics r =
  let open Common in
  let per_span =
    List.map
      (fun name ->
        let ds = List.map float_of_int (Trace.durations r.spans name) in
        if List.mem name micro_spans then metric (name ^ "_us") "us" (Pct.median ds /. 1e3)
        else metric (name ^ "_ms") "ms" (Pct.median ds /. 1e6))
      (span_names r.spans)
  in
  let total = float_of_int r.coverage.Trace.total_ns in
  per_span
  @ List.map (fun (name, v) -> metric name "count" v) r.counts
  @ [
      metric "trace.total_ms" "ms" (total /. 1e6);
      metric "trace.attributed_pct" "%" (100.0 *. float_of_int r.coverage.Trace.attributed_ns /. total);
      metric "trace.overhead_pct" "%"
        (100.0 *. (total -. float_of_int r.untraced_ns) /. float_of_int r.untraced_ns);
      metric "gc.minor_mwords_per_op" "Mwords" (r.minor_words /. 1e6 /. float_of_int r.n);
      metric "gc.major_collections" "count" (float_of_int r.major_collections);
      metric "exec.batches_sequential" "count" (float_of_int r.sched_sequential);
      metric "exec.batches_parallel" "count" (float_of_int r.sched_parallel);
    ]

(* The self-time table, the sum check and the tracing overhead. *)
let notes r =
  let total = r.coverage.Trace.total_ns in
  let pct ns = 100.0 *. float_of_int ns /. float_of_int (max 1 total) in
  let rows =
    List.filter_map
      (fun (name, self) ->
        if name = "op" then None
        else Some (Printf.sprintf "  %-32s self %10.3f ms  %5.1f%%" name (float_of_int self /. 1e6) (pct self)))
      (Trace.self_by_name r.spans)
  in
  (Printf.sprintf "traced replay: %d operations, %d spans" r.n (List.length r.spans)
  :: "per-layer self time:" :: rows)
  @ [
      Printf.sprintf
        "sum check: layer self times %.3f ms of traced total %.3f ms (%.2f%%), unattributed %.3f ms; tolerance %.0f%%: %s"
        (float_of_int r.coverage.Trace.attributed_ns /. 1e6)
        (float_of_int total /. 1e6)
        (pct r.coverage.Trace.attributed_ns)
        (float_of_int r.coverage.Trace.unattributed_ns /. 1e6)
        (100.0 *. tolerance)
        (if r.coverage.Trace.ok then "ok" else "FAILED");
      Printf.sprintf "tracing overhead: traced %.3f ms - untraced %.3f ms = %.3f ms"
        (float_of_int total /. 1e6)
        (float_of_int r.untraced_ns /. 1e6)
        (float_of_int (total - r.untraced_ns) /. 1e6);
    ]
