(* What every workload shares: the run context, the outcome it reports,
   repeated set-up and the end-to-end metric block. *)

type ctx = {
  seed : int;
  seconds : float;
  same : string;  (** the `same` executable *)
  floor : string;  (** the empty start-up floor executable *)
  work : string;  (** scratch directory inside the checkout *)
}

type metric = { name : string; value : float; unit_ : string }

type outcome = {
  attempted : int;
  failed : int;
  metrics : metric list;
  notes : string list;  (** human-readable lines printed before the result *)
}

let metric name unit_ value = { name; value; unit_ }

(* Operations that failed or disagreed with their reference, with a
   reason for each, printed on stderr. *)
type failures = { mutable count : int; mutable reasons : string list }

let failures () = { count = 0; reasons = [] }

let fail f fmt =
  Printf.ksprintf
    (fun m ->
      f.count <- f.count + 1;
      if List.length f.reasons < 20 then f.reasons <- m :: f.reasons)
    fmt

let check f cond fmt =
  Printf.ksprintf (fun m -> if not cond then fail f "%s" m) fmt

let report_failures f =
  List.iter (fun m -> prerr_endline ("perfbench: check failed: " ^ m)) (List.rev f.reasons)

(* CPU seconds of this process and its waited-for children. *)
let cpu_s () = float_of_int (Clock.self_cpu_us () + Clock.children_cpu_us ()) /. 1e6

(* Set up [repeats] times and keep the last environment; earlier ones are
   torn down.  Returns the environment and the median set-up time in CPU
   seconds: this process, its reaped children and [live_cpu_s env], the
   CPU time of children the environment keeps running. *)
let repeated_setup ~repeats ?(live_cpu_s = fun _ -> 0.0) ~setup ~teardown () =
  let rec go k times =
    let c0 = cpu_s () in
    let env = setup () in
    let t = cpu_s () -. c0 +. live_cpu_s env in
    if k > 1 then begin
      teardown env;
      go (k - 1) (t :: times)
    end
    else (env, Pct.median (t :: times))
  in
  go repeats []

(* Latency percentile with the sample count stated. *)
let describe name ~unit_ ~p xs =
  Printf.sprintf "%s = %.4f %s (p%g of n=%d; highest percentile with >= 10 samples beyond: %s)"
    name (Pct.percentile xs p) unit_ p (List.length xs)
    (match Pct.highest_supported ~n:(List.length xs) with
    | Some q -> Printf.sprintf "p%g" q
    | None -> "none")

(* The end-to-end block every workload reports: set-up time and the time
   one unit of work costs, both in CPU time summed over every process and
   domain that did the work, and peak memory.  Wall-clock latencies and
   throughput are printed with the notes but not reported here: on a
   2-vCPU VM whose hypervisor took up to 40% of the CPU time, they moved
   by 20-100% between runs, past 0.25, the largest bound a metric may
   have. *)
let end_to_end ~setup_s ~cpu_ms_per_op ~peak_rss_kb =
  [
    metric "setup_s" "s" setup_s;
    metric "cpu_ms_per_op" "ms" cpu_ms_per_op;
    metric "peak_rss_mb" "MB" (float_of_int peak_rss_kb /. 1024.0);
  ]

(* Wall-clock figures for the notes. *)
let wall_notes ~name ~latencies_ms ~ops ~elapsed_s =
  [
    describe (name ^ "_p50_ms") ~unit_:"ms" ~p:50.0 latencies_ms;
    describe (name ^ "_p90_ms") ~unit_:"ms" ~p:90.0 latencies_ms;
    Printf.sprintf "%s_per_s = %.3f (%d in %.2f s)" name (float_of_int ops /. elapsed_s) ops elapsed_s;
  ]

let self_hwm_kb () = Option.value ~default:0 (Clock.proc_status_kb "self" "VmHWM")
