(* Workload [analysis_batch]: cold in-process analyses at scale, calling
   library entry points directly — no engine, no parsing, no socket.
   A batch is seven verdicts: injection FMEA on two ladders and a grid,
   BDD fault-tree analysis of two generated architectures, and
   Monte-Carlo assessment of two trees at fixed budgets. *)

open Common
module R = Reliability.Reliability_model

type job =
  | Fmea of { label : string; netlist : Circuit.Netlist.t }
  | Fta of {
      label : string;
      comp : Ssam.Architecture.component;
      singles : int;  (** closed form: the generator's single points *)
      sets : int option;  (** closed form, where the generator has one *)
    }
  | Mc of { label : string; tree : Fta.Fault_tree.t; trials : int; mission_hours : float }

let label = function Fmea { label; _ } | Fta { label; _ } | Mc { label; _ } -> label

type verdict =
  | Table of Fmea.Table.t
  | Tree of { sets : int; singles : int; p_top : float }
  | Estimate of Assess.Mc.report

type env = {
  jobs : job array;  (** in the order of a pass *)
  catalogue : R.t;
  probs : string -> float;
}

let options = { Fmea.Injection_fmea.default_options with exclude = [ "VIN" ] }

(* The synthetic catalogue with seeded FIT rates. *)
let catalogue ~rng =
  R.of_entries
    (List.map
       (fun (e : R.entry) ->
         { e with R.fit = Reliability.Fit.of_float (e.R.fit *. Rng.range rng 0.5 1.5) })
       (R.entries R.synthetic_catalogue))

let psu_tree () = Fta.From_ssam.generate Decisive.Case_study.power_supply_root

let jobs ~small =
  if small then
    [
      Fmea { label = "fmea ladder-64"; netlist = Circuit.Generator.ladder ~sections:64 };
      Fta
        { label = "fta grid_arch-4x4"; comp = Circuit.Generator.grid_arch ~rows:4 ~cols:4; singles = 2; sets = None };
      Mc { label = "mc power-supply"; tree = psu_tree (); trials = 200_000; mission_hours = 10_000.0 };
    ]
  else
    [
      Fmea { label = "fmea ladder-64"; netlist = Circuit.Generator.ladder ~sections:64 };
      Fmea { label = "fmea ladder-512"; netlist = Circuit.Generator.ladder ~sections:512 };
      Fmea { label = "fmea grid-24x24"; netlist = Circuit.Generator.grid ~rows:24 ~cols:24 };
      (* A chain of s diamonds: the s + 1 junctions are single points and
         each diamond's two legs one double, 2s + 1 minimal cut sets. *)
      Fta
        {
          label = "fta diamond_arch-200";
          comp = Circuit.Generator.diamond_arch ~stages:200;
          singles = 201;
          sets = Some 401;
        };
      (* Only the two corners of a grid are single points. *)
      Fta
        { label = "fta grid_arch-6x6"; comp = Circuit.Generator.grid_arch ~rows:6 ~cols:6; singles = 2; sets = None };
      Mc { label = "mc power-supply"; tree = psu_tree (); trials = 8_000_000; mission_hours = 10_000.0 };
      Mc { label = "mc vote-2-of-24"; tree = Gen.vote ~k:2 ~n:24 ~rate_fit:100.0; trials = 2_000_000; mission_hours = 4.0e5 };
    ]

let make_env ~seed ~small =
  let rng = Rng.make (seed lxor 0xba7c) in
  let jobs = Array.of_list (jobs ~small) in
  let catalogue = catalogue ~rng in
  let events =
    Array.to_list jobs
    |> List.concat_map (function Fta { comp; _ } -> Fta.From_ssam.event_order comp | Fmea _ | Mc _ -> [])
  in
  { jobs; catalogue; probs = Gen.event_probabilities ~rng events }

let mc_config ~trials ~mission_hours =
  { Assess.Mc.default with Assess.Mc.trials = Some trials; mission_hours; exact = Assess.Mc.Force }

(* One verdict, as a caller of the library computes it. *)
let run_job env = function
  | Fmea { netlist; _ } ->
      let table = Fmea.Injection_fmea.analyse ~options netlist env.catalogue in
      ignore (Fmea.Metrics.compute table);
      Table table
  | Fta { comp; _ } ->
      let tree = Fta.From_ssam.of_structure comp in
      let bdd = Fta.Bdd.build ~order:(Fta.From_ssam.event_order comp) tree in
      let sets = Fta.Bdd.minimal_cut_sets bdd in
      Tree
        {
          sets = List.length sets;
          singles = List.length (Fta.Cut_sets.singletons sets);
          p_top = Fta.Bdd.probability bdd env.probs;
        }
  | Mc { tree; trials; mission_hours; _ } -> Estimate (Assess.Mc.run (mc_config ~trials ~mission_hours) tree)

(* ---------- checks ---------- *)

(* "S deviates by P%" split into the sensor and the rest. *)
let split_impact impact =
  match String.index_opt impact ' ' with
  | Some i -> (String.sub impact 0 i, String.sub impact i (String.length impact - i))
  | None -> (impact, "")

(* One sensor's relative deviation, as the classifier computes it. *)
let deviation ~golden ~faulty sensor =
  match
    ( List.assoc_opt sensor (Circuit.Dc.all_sensor_readings golden),
      List.assoc_opt sensor (Circuit.Dc.all_sensor_readings faulty) )
  with
  | Some g, Some x ->
      Some (Float.abs (x -. g) /. Float.max (Float.abs g) options.Fmea.Injection_fmea.threshold_abs)
  | _ -> None

(* Golden and faulted solutions of one injection under each solver: a
   low-rank re-solve against the golden factors, and a from-scratch
   analysis of the faulted netlist.  A fault that does not apply solves
   under neither. *)
let solver_runs netlist ~element_id fault =
  let solved = function Ok s -> Some s | Error _ -> None in
  try
    let reuse =
      match Circuit.Dc.factorise (Circuit.Dc.prepare netlist) with
      | Ok g ->
          Option.map
            (fun s -> (Circuit.Dc.golden_solution g, s))
            (solved (Circuit.Dc.inject g ~element_id fault))
      | Error _ -> None
    and refactor =
      match Circuit.Dc.analyse ~backend:`Auto netlist with
      | Ok golden ->
          Option.map
            (fun s -> (golden, s))
            (solved (Circuit.Dc.analyse ~backend:`Auto (Circuit.Fault.inject netlist ~element_id fault)))
      | Error _ -> None
    in
    [ reuse; refactor ]
  with Circuit.Fault.Not_applicable _ | Not_found -> [ None ]

(* Two sensors tie when, under both solvers, both deviate by the same
   amount to this relative tolerance. *)
let tie_tolerance = 1e-9

let tied netlist ~element_id fault sensors =
  let devs =
    List.concat_map
      (function
        | Some (golden, faulty) -> List.map (deviation ~golden ~faulty) sensors
        | None -> [ None ])
      (solver_runs netlist ~element_id fault)
  in
  match List.filter_map Fun.id devs with
  | d0 :: rest when List.length rest + 1 = List.length devs ->
      List.for_all (fun d -> Float.abs (d -. d0) <= tie_tolerance *. Float.max d d0) rest
  | _ -> false

(* Rows agree when every field is equal, except that when several sensors
   deviate by exactly the same amount the solvers may name different
   ones: round-off decides the tie.  Such rows are counted, not failed;
   a different sensor without a true tie is a disagreement. *)
let rows_agree ~ties netlist ((id, _, fm) : Fmea.Injection_fmea.injection) (a : Fmea.Table.row)
    (b : Fmea.Table.row) =
  Fmea.Table.equal_row a b
  ||
  let sa, da = split_impact a.Fmea.Table.impact and sb, db = split_impact b.Fmea.Table.impact in
  sa <> sb && da = db
  && Fmea.Table.equal_row a { b with Fmea.Table.impact = a.Fmea.Table.impact }
  && (match fm.R.fault with
     | Some fault -> tied netlist ~element_id:id fault [ sa; sb ]
     | None -> false)
  && begin
       incr ties;
       true
     end

(* The Refactor solver on a seeded sample of injections must give the
   rows the Reuse solver gave. *)
let refactor_samples = 12

let refactor_sample f ~rng ~ties env netlist (table : Fmea.Table.t) =
  let injections =
    Array.of_list (Fmea.Injection_fmea.enumerate ~options netlist env.catalogue)
  in
  let prepared = Fmea.Injection_fmea.prepare ~options ~solver:(`Refactor `Auto) netlist in
  for _ = 1 to refactor_samples do
    let ((id, _, fm) as inj) = Rng.pick rng injections in
    let row = Fmea.Injection_fmea.injection_row prepared inj in
    let reuse =
      List.find_opt
        (fun (r : Fmea.Table.row) ->
          r.Fmea.Table.component = id
          && r.Fmea.Table.failure_mode = fm.R.fm_name)
        table.Fmea.Table.rows
    in
    check f
      (match reuse with Some r -> rows_agree ~ties netlist inj r row | None -> false)
      "%s/%s: Refactor row differs from the Reuse row" id fm.R.fm_name
  done

(* One batch's verdicts, as soon as the batch is out: each table equal
   to the first batch's, the fault trees' closed forms, each Monte-Carlo
   estimate inside its 99% CI of BDD-exact.  Only the first batch is
   kept, so memory does not grow with the number of batches. *)
let verify_pass f env ~first pass =
  Array.iteri
    (fun i v ->
      let job = env.jobs.(i) in
      match (job, v) with
      | Fmea _, Table t -> (
          match first.(i) with
          | Table t0 -> check f (Fmea.Table.equal t t0) "%s: table differs between passes" (label job)
          | _ -> ())
      | Fta { singles; sets; _ }, Tree tr ->
          check f (tr.singles = singles) "%s: %d single points, expected %d" (label job) tr.singles
            singles;
          Option.iter
            (fun n -> check f (tr.sets = n) "%s: %d minimal cut sets, expected %d" (label job) tr.sets n)
            sets;
          check f (tr.p_top > 0.0 && tr.p_top < 1.0) "%s: P(top) %g out of range" (label job) tr.p_top
      | Mc _, Estimate r -> (
          match r.Assess.Mc.exact_delta with
          | Some delta ->
              check f (delta <= r.Assess.Mc.halfwidth)
                "%s: estimate outside its 99%% CI of BDD-exact (delta %g, half-width %g)" (label job)
                delta r.Assess.Mc.halfwidth
          | None -> fail f "%s: no BDD-exact cross-check" (label job))
      | _ -> fail f "%s: unexpected verdict" (label job))
    pass

(* After the run: the first batch's tables against the Refactor solver,
   and path-FMEA agreement. *)
let verify f ~seed ~ties env first =
  let rng = Rng.make (seed lxor 0xc4ec) in
  Array.iteri
    (fun i job ->
      match (job, first.(i)) with
      | Fmea { netlist; _ }, Table t -> refactor_sample f ~rng ~ties env netlist t
      | _ -> ())
    env.jobs;
  (* Path-FMEA agreement on instances of the same generators small
     enough for the path route. *)
  List.iter
    (fun (name, comp) ->
      check f (Fta.Fmea_from_fta.agrees_with_path_fmea comp) "%s: FTA and path FMEA disagree" name)
    [
      ("diamond_arch-8", Circuit.Generator.diamond_arch ~stages:8);
      ("grid_arch-5x5", Circuit.Generator.grid_arch ~rows:5 ~cols:5);
    ]

(* ---------- traced replay ---------- *)

(* A conductance matrix with the netlist's pattern, for the numeric
   layer's own figures at the batch's sizes. *)
let conductance (netlist : Circuit.Netlist.t) =
  let nodes = Hashtbl.create 1024 in
  let index n =
    if n = Circuit.Netlist.ground then -1
    else
      match Hashtbl.find_opt nodes n with
      | Some i -> i
      | None ->
          let i = Hashtbl.length nodes in
          Hashtbl.replace nodes n i;
          i
  in
  let stamps =
    List.map
      (fun (e : Circuit.Element.t) ->
        let g =
          match e.Circuit.Element.kind with
          | Circuit.Element.Resistor r | Circuit.Element.Load r -> 1.0 /. r
          | _ -> 1e3
        in
        (index e.Circuit.Element.node_a, index e.Circuit.Element.node_b, g))
      (Circuit.Netlist.elements netlist)
  in
  let t = Numeric.Sparse.create (Hashtbl.length nodes) in
  List.iter
    (fun (a, b, g) ->
      if a >= 0 then Numeric.Sparse.add_to t a a g;
      if b >= 0 then Numeric.Sparse.add_to t b b g;
      if a >= 0 && b >= 0 then begin
        Numeric.Sparse.add_to t a b (-.g);
        Numeric.Sparse.add_to t b a (-.g)
      end)
    stamps;
  for i = 0 to Hashtbl.length nodes - 1 do
    Numeric.Sparse.add_to t i i 1e-9
  done;
  Numeric.Sparse.compress t

let numeric = ref (0, 0, 0)  (* lu ns, solve ns, nnz *)

let eval_words = 100_000

let traced_job env job =
  match job with
  | Fmea { netlist; _ } ->
      let p = Layers.circuit_prepare netlist in
      let g = Layers.circuit_factorise p in
      Layers.sample_injections g netlist ~count:16;
      let m = conductance netlist in
      let t0 = Clock.now_ns () in
      let lu = Layers.span "numeric.lu" (fun () -> Numeric.Sparse.decompose m) in
      let t1 = Clock.now_ns () in
      let b = Array.make (Numeric.Sparse.n m) 1.0 in
      ignore (Layers.span "numeric.solve" (fun () -> Numeric.Sparse.solve_factored lu b));
      let t2 = Clock.now_ns () in
      if Layers.tracer.Trace.enabled then begin
        let l, s, n = !numeric in
        numeric := (l + t1 - t0, s + t2 - t1, n + Numeric.Sparse.nnz m)
      end;
      let prepared = Layers.fmea_prepare ~options netlist in
      let table = Layers.fmea_classify ~options ~prepared netlist env.catalogue in
      let injections = Fmea.Injection_fmea.enumerate ~options netlist env.catalogue in
      ignore (Layers.fmea_rows ~prepared (List.filteri (fun i _ -> i mod 16 = 0) injections));
      ignore (Layers.span "fmea.render" (fun () ->
          ignore (Fmea.Metrics.compute table);
          Serve.Handlers.table_report table))
  | Fta { comp; _ } ->
      let tree = Layers.span "fta.lower" (fun () -> Fta.From_ssam.of_structure comp) in
      let bdd =
        Layers.span "fta.bdd_build" (fun () ->
            Fta.Bdd.build ~order:(Fta.From_ssam.event_order comp) tree)
      in
      Layers.maximum "fta.bdd_nodes" (float_of_int (Fta.Bdd.node_count bdd));
      ignore (Layers.span "fta.cut_sets" (fun () -> Fta.Bdd.minimal_cut_sets bdd));
      ignore (Layers.span "fta.quant" (fun () -> Fta.Bdd.probability bdd env.probs))
  | Mc { tree; trials; mission_hours; _ } ->
      let program = Layers.assess_compile tree in
      Layers.maximum "assess.tape_instrs" (float_of_int (Assess.Program.n_instrs program));
      ignore (Layers.assess_eval program ~words:eval_words);
      ignore (Layers.assess_run (mc_config ~trials ~mission_hours) tree)

(* Traced run: one batch replayed with one span per layer call.
   [small] probes the same layers with one small job of each kind. *)
let layers ctx f ~small =
  let env = make_env ~seed:ctx.seed ~small in
  numeric := (0, 0, 0);
  let n = Array.length env.jobs in
  (* The small batch is the warm-up: a second untimed full batch would
     cost as much as both timed passes. *)
  let warm = make_env ~seed:ctx.seed ~small:true in
  Array.iter (fun j -> ignore (run_job warm j)) warm.jobs;
  let replay =
    Traced.replay ~warm:small ~n ~reset:(fun () -> numeric := (0, 0, 0)) (fun k -> traced_job env env.jobs.(k))
  in
  check f replay.Traced.coverage.Trace.ok "analysis_batch sum check: layer self times miss more than the tolerance";
  let lu, solve, nnz = !numeric in
  let evals = Trace.durations replay.Traced.spans "assess.eval" in
  let metrics =
    Traced.layer_metrics replay
    @ [
        metric "numeric.lu_ns_per_nnz" "ns" (float_of_int lu /. float_of_int (max 1 nnz));
        metric "numeric.solve_ns_per_nnz" "ns" (float_of_int solve /. float_of_int (max 1 nnz));
        metric "assess.eval_ns_per_word" "ns"
          (float_of_int (List.fold_left ( + ) 0 evals)
          /. float_of_int (max 1 (List.length evals * eval_words)));
      ]
  in
  (n, metrics, Traced.notes replay)

(* ---------- the run ---------- *)

let run ctx =
  let f = failures () in
    let setup () =
      let env = make_env ~seed:ctx.seed ~small:false in
      (* Untimed warm-up: the small batch pays code first-touch and the
         domain pool's start. *)
      let warm = make_env ~seed:ctx.seed ~small:true in
      Array.iter (fun j -> ignore (run_job warm j)) warm.jobs;
      env
    in
    let env, setup_s = repeated_setup ~repeats:5 ~setup ~teardown:(fun _ -> ()) () in
    let t0 = Clock.now_ns () in
    let first = ref None and peak_rss_kb = ref 0 and n_verdicts = ref 0 and pass_ms = ref [] and pass_cpu_ms = ref [] in
    let per_job = Hashtbl.create 8 in
    let fmea_rows = ref 0 and fmea_s = ref 0.0 and fta_s = ref [] and mc_trials = ref 0 and mc_s = ref 0.0 in
    let continue_ () =
      match !pass_ms with
      | [] -> true
      | last :: _ -> Clock.seconds_since t0 +. (last /. 2000.0) < ctx.seconds
    in
    while continue_ () do
      let p0 = Clock.now_ns () and cpu0 = Clock.self_cpu_us () in
      let fta_pass = ref 0.0 in
      let verdicts =
        Array.map
          (fun job ->
            let v, s = Clock.timed (fun () -> run_job env job) in
            incr n_verdicts;
            Hashtbl.add per_job (label job) (s *. 1000.0);
            (match v with
            | Table t ->
                fmea_rows := !fmea_rows + List.length t.Fmea.Table.rows;
                fmea_s := !fmea_s +. s
            | Tree _ -> fta_pass := !fta_pass +. s
            | Estimate r ->
                mc_trials := !mc_trials + r.Assess.Mc.trials;
                mc_s := !mc_s +. s);
            v)
          env.jobs
      in
      fta_s := (!fta_pass *. 1000.0) :: !fta_s;
      pass_ms := Clock.ms_since p0 :: !pass_ms;
      pass_cpu_ms := (float_of_int (Clock.self_cpu_us () - cpu0) /. 1000.0) :: !pass_cpu_ms;
      if !first = None then begin
        first := Some verdicts;
        (* Memory is read when the first batch is out: resident memory
           keeps growing over repeated identical batches (on the 2-vCPU
           VM the benchmark was built on, from about 80 MB after the
           first to 111-118 MB after the fourth, in jumps of 10-30 MB
           that land at different batches from run to run), so a later
           reading would grow with the number of batches a faster
           program fits into the run, and would spread more.  The
           reading at the end is printed as a note. *)
        peak_rss_kb := self_hwm_kb ()
      end;
      verify_pass f env ~first:(Option.get !first) verdicts
    done;
    let elapsed = Clock.seconds_since t0 in
    let ties = ref 0 in
    verify f ~seed:ctx.seed ~ties env (Option.get !first);
    report_failures f;
    let n = !n_verdicts in
    {
      attempted = n;
      failed = f.count;
      metrics =
        (* The median batch: the first batch of a run costs more (heap
           growth, first touch), and a fast run amortises it over more
           batches. *)
        end_to_end ~setup_s ~cpu_ms_per_op:(Pct.median !pass_cpu_ms) ~peak_rss_kb:!peak_rss_kb;
      notes =
        [
          Printf.sprintf "verdicts_per_s = %.4f (%d in %.2f s)" (float_of_int n /. elapsed) n elapsed;
          Printf.sprintf "batch_s = %.4f s (median of %d batches; slowest %.4f s)"
            (Pct.median !pass_ms /. 1000.0)
            (List.length !pass_ms)
            (List.fold_left Float.max 0.0 !pass_ms /. 1000.0);
          Printf.sprintf "fmea_rows_per_s = %.1f (%d rows in %.3f s)" (float_of_int !fmea_rows /. !fmea_s)
            !fmea_rows !fmea_s;
          Printf.sprintf "peak RSS after the last of %d batches: %.1f MB" (List.length !pass_ms)
            (float_of_int (self_hwm_kb ()) /. 1024.0);
          Printf.sprintf "fta_ms = %.3f ms (median per batch, summed over the trees)" (Pct.median !fta_s);
          Printf.sprintf "mc_trials_per_s = %.4g (%d trials in %.3f s)" (float_of_int !mc_trials /. !mc_s)
            !mc_trials !mc_s;
          Printf.sprintf
            "refactor-vs-reuse sample: %d of %d rows name a different sensor for a tied deviation"
            !ties
            (refactor_samples
            * List.length (List.filter (function Fmea _ -> true | _ -> false) (Array.to_list env.jobs)));
        ]
        @ List.map
            (fun job ->
              Printf.sprintf "  %-22s median %10.3f ms" (label job)
                (Pct.median (Hashtbl.find_all per_job (label job))))
            (Array.to_list env.jobs);
    }
