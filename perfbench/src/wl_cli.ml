(* Workload [cli_verdicts]: fresh `same` processes, one at a time, each
   producing one verdict on a small model.  Start-up and module
   initialisation dominate here. *)

open Common

type cmd = Fmea | Fmeda | Fta | Lint | Diagnose | Assess

let cmd_name = function
  | Fmea -> "fmea"
  | Fmeda -> "fmeda"
  | Fta -> "fta"
  | Lint -> "lint"
  | Diagnose -> "diagnose"
  | Assess -> "assess"

let commands = [| Fmea; Fmeda; Fta; Lint; Diagnose; Assess |]

type model = {
  label : string;
  bd : string;
  rel : string option;
  source : string;  (** supply block, excluded from injection *)
  sensor : string;  (** observation point for diagnose *)
  check : bool;  (** fixed model: assess runs with --check *)
}

type op = { cmd : cmd; model : model }

let assess_trials = 20_000

let argv ctx { cmd; model = m } =
  let rel = match m.rel with Some p -> [ "-r"; p ] | None -> [] in
  let rest =
    match cmd with
    | Fmea -> [ "fmea"; m.bd; "-e"; m.source ] @ rel
    | Fmeda -> [ "fmeda"; m.bd; "-e"; m.source; "-t"; "ASIL-B" ] @ rel
    | Fta -> [ "fta"; "--from"; m.bd ] @ rel
    | Lint -> [ "lint"; m.bd ] @ rel
    | Diagnose -> [ "diagnose"; m.bd; "-o"; m.sensor; "-e"; m.source ] @ rel
    | Assess ->
        [ "assess"; m.bd ] @ rel
        @ [ "--trials"; string_of_int assess_trials ]
        @ if m.check then [ "--check" ] else []
  in
  Array.of_list (ctx.same :: rest)

(* ---------- inputs ---------- *)

(* The Fig. 11 power supply, System A and B written to .bd, and three
   small meshes (2, 3 and 4 by 4 junctions) with seeded values.  Returns
   the models in a fixed order. *)
let write_inputs ctx =
  let rng = Rng.make ctx.seed in
  let path name = Filename.concat ctx.work name in
  let write name text =
    Proc.write_file (path name) text;
    path name
  in
  let psu = write "psu.bd" (Proc.read_file "examples/models/psu.bd") in
  let subject name (s : Decisive.Systems.subject) =
    let bd = write (name ^ ".bd") (Gen.diagram_text s.Decisive.Systems.diagram) in
    let rel = write (name ^ ".csv") (Gen.reliability_csv s.Decisive.Systems.reliability) in
    (bd, rel)
  in
  let a_bd, a_rel = subject "system_a" Decisive.Systems.system_a in
  let b_bd, b_rel = subject "system_b" Decisive.Systems.system_b in
  let gen_rel = write "mesh.csv" (Gen.reliability_csv (Gen.mesh_reliability ~rng)) in
  let small i =
    let d =
      Gen.mesh ~rng ~name:(Printf.sprintf "mesh%d" i) ~rows:(1 + i) ~cols:4 ~diodes:1 ~sensor_every:2
        ~voltage_sensors:2
    in
    {
      label = Printf.sprintf "mesh%d" i;
      bd = write (Printf.sprintf "mesh%d.bd" i) (Gen.diagram_text d);
      rel = Some gen_rel;
      source = "DC1";
      sensor = "VS1";
      check = false;
    }
  in
  [
    { label = "psu"; bd = psu; rel = None; source = "DC1"; sensor = "CS1"; check = true };
    { label = "system_a"; bd = a_bd; rel = Some a_rel; source = "DC1"; sensor = "CS1"; check = true };
    { label = "system_b"; bd = b_bd; rel = Some b_rel; source = "BAT1"; sensor = "CS1"; check = true };
  ]
  @ List.init 3 (fun i -> small (i + 1))

let all_ops models =
  List.concat_map (fun model -> Array.to_list (Array.map (fun cmd -> { cmd; model }) commands)) models
  |> Array.of_list

(* The seeded order in which processes are started: rounds of every
   distinct command once, each round in its own seeded order, so the mix
   is the same whatever the seed and wherever the run stops. *)
let schedule ~seed ~n_ops ~length =
  let rng = Rng.make (seed lxor 0x5eed) in
  let ids = Array.init n_ops Fun.id in
  Array.concat (List.init ((length + n_ops - 1) / n_ops) (fun _ -> Rng.shuffle rng ids))

(* ---------- references ---------- *)

(* What the daemon's handlers, which mirror each subcommand, answer for
   the same inputs: the expected exit code and report. *)
let reference op =
  let m = op.model in
  let params =
    match op.cmd with
    | Fmea -> [ ("exclude", m.source) ]
    | Fmeda -> [ ("exclude", m.source); ("target", "ASIL-B") ]
    | Fta -> []
    | Lint -> [ ("name", m.bd) ] @ (match m.rel with Some p -> [ ("rname", p) ] | None -> [])
    | Diagnose -> [ ("output", m.sensor); ("exclude", m.source) ]
    | Assess ->
        [ ("trials", string_of_int assess_trials) ]
        @ if m.check then [ ("check", "true") ] else []
  in
  let analysis =
    match op.cmd with
    | Fmea -> Serve.Protocol.Fmea
    | Fmeda -> Serve.Protocol.Fmeda
    | Fta -> Serve.Protocol.Fta
    | Lint -> Serve.Protocol.Lint
    | Diagnose -> Serve.Protocol.Diagnose
    | Assess -> Serve.Protocol.Assess
  in
  Serve.Handlers.analyse ~engine:(Engine.Pipeline.create ())
    {
      Serve.Protocol.a_analysis = analysis;
      a_diagram = Proc.read_file m.bd;
      a_reliability = Option.map Proc.read_file m.rel;
      a_sm = None;
      a_params = params;
    }

(* The CLI's assess report adds throughput to the trials line and an
   importance table; every line of the handler's report, trials lines cut
   to the count, must still appear in it, in order. *)
let output_matches op ~cli ~reference =
  match op.cmd with
  | Assess ->
      let trials_count line =
        match String.split_on_char ' ' line with
        | "trials:" :: n :: _ -> "trials: " ^ n
        | _ -> line
      in
      let lines s =
        String.split_on_char '\n' s |> List.filter (( <> ) "") |> List.map trials_count
      in
      let rec subseq want have =
        match (want, have) with
        | [], _ -> true
        | _, [] -> false
        | w :: ws, h :: hs -> if w = h then subseq ws hs else subseq want hs
      in
      subseq (lines reference) (lines cli)
  | Fmea | Fmeda | Fta | Lint | Diagnose -> cli = reference

(* ---------- in-process replay (traced run) ---------- *)

(* The library calls a subcommand makes, one span per layer. *)
let inproc op =
  let m = op.model in
  let d = Layers.read_diagram m.bd in
  let reliability =
    match m.rel with
    | None -> Reliability.Reliability_model.table_ii
    | Some p -> Layers.parse_reliability (Proc.read_file p)
  in
  let options = { Fmea.Injection_fmea.default_options with exclude = [ m.source ] } in
  let fmea () =
    let conv = Layers.to_netlist d in
    let netlist = conv.Blockdiag.To_netlist.netlist in
    let prepared = Layers.fmea_prepare ~options netlist in
    let table =
      Layers.fmea_classify ~options ~element_types:conv.Blockdiag.To_netlist.block_types ~prepared
        netlist reliability
    in
    (conv, table)
  in
  match op.cmd with
  | Fmea ->
      let _, table = fmea () in
      ignore (Layers.fmea_render table)
  | Fmeda ->
      let conv, table = fmea () in
      let refinement =
        Layers.span "optimize.refine" (fun () ->
            Decisive.Api.refine ~target:Ssam.Requirement.ASIL_B
              ~component_types:conv.Blockdiag.To_netlist.block_types table
              Reliability.Sm_model.extended_catalogue)
      in
      ignore (Layers.fmea_render refinement.Decisive.Api.refined_table)
  | Fta ->
      let tree = Layers.fta_lower_diagram ~reliability d in
      let sets = Layers.span "fta.cut_sets" (fun () -> Fta.Cut_sets.minimal tree) in
      Layers.span "fta.quant" (fun () ->
          let probs = Fta.Quant.event_probabilities tree in
          ignore (Fta.Quant.top_probability_exact tree probs);
          ignore (Fta.Quant.rare_event_bound sets probs);
          ignore (Fta.Quant.birnbaum tree probs);
          ignore (Fta.Quant.fussell_vesely tree probs));
      ignore (Layers.span "fta.render" (fun () -> Format.asprintf "%a" Fta.Fault_tree.pp_ascii tree))
  | Lint ->
      let input =
        {
          Lint.Input.empty with
          Lint.Input.diagram = Some (m.bd, d);
          reliability = Some (m.rel, reliability);
          sm = Some (None, Reliability.Sm_model.extended_catalogue);
        }
      in
      let diags = Layers.span "lint.run" (fun () -> Lint.Driver.run input) in
      ignore (Layers.span "lint.render" (fun () -> Lint.Driver.to_text diags))
  | Diagnose -> (
      let model = Layers.span "dataflow.model" (fun () -> Dataflow.Model.of_diagram ~reliability d) in
      let verify =
        Layers.span "dataflow.verifier" (fun () ->
            Result.to_option
              (Dataflow.Diagnose.circuit_verifier ~options ~reliability ~output:m.sensor d))
      in
      match
        Layers.span "dataflow.diagnose" (fun () ->
            Dataflow.Diagnose.diagnose ?verify model ~output:m.sensor)
      with
      | Ok report -> ignore (Layers.span "dataflow.render" (fun () -> Dataflow.Diagnose.to_text report))
      | Error e -> failwith e)
  | Assess ->
      let tree = Layers.fta_lower_diagram ~reliability d in
      ignore (Layers.assess_compile tree);
      let config = { Assess.Mc.default with Assess.Mc.trials = Some assess_trials } in
      let r = Layers.assess_run config tree in
      ignore
        (Layers.span "assess.render" (fun () ->
             Printf.sprintf "%.6e +/- %.1e" r.Assess.Mc.top_probability r.Assess.Mc.halfwidth))

(* ---------- the run ---------- *)

type env = { ops : op array; warm_outputs : (string * int) array }

let setup ctx () =
  Proc.remove_tree ctx.work;
  Proc.mkdir_p ctx.work;
  let ops = all_ops (write_inputs ctx) in
  (* Untimed warm-up: every distinct process once, keeping its report
     for the output check. *)
  let out = Filename.concat ctx.work "stdout" and err = Filename.concat ctx.work "stderr" in
  let warm_outputs =
    Array.map
      (fun op ->
        let code, _ = Proc.run ~stdout:out ~stderr:err (argv ctx op) in
        (Proc.read_file out, code))
      ops
  in
  { ops; warm_outputs }

let verify_references env f =
  Array.mapi
    (fun i op ->
      let ref_out, ref_code = reference op in
      let out, code = env.warm_outputs.(i) in
      check f (code = ref_code) "%s %s: exit %d, expected %d" (cmd_name op.cmd) op.model.label code ref_code;
      check f
        (output_matches op ~cli:out ~reference:ref_out)
        "%s %s: report differs from the handler's" (cmd_name op.cmd) op.model.label;
      if op.model.check && op.cmd = Assess then
        check f (code = 0) "assess --check %s exited %d" op.model.label code;
      ref_code)
    env.ops

(* Traced run: processes of the seeded order replayed in-process, one
   span per layer call; the full run spawns them again for the start-up
   residual.  [small] replays each command once on the power supply. *)
let layers ctx f ~small =
  Proc.mkdir_p ctx.work;
  let models = write_inputs ctx in
  let ops =
    all_ops (if small then List.filter (fun m -> m.label = "psu") models else models)
  in
  let n_ops = Array.length ops in
  let n = if small then n_ops else 2 * n_ops in
  let order =
    if small then Array.init n Fun.id else schedule ~seed:ctx.seed ~n_ops ~length:n
  in
  let replay = Traced.replay ~n ~reset:(fun () -> ()) (fun k -> inproc ops.(order.(k))) in
  check f replay.Traced.coverage.Trace.ok "cli_verdicts sum check: layer self times miss more than the tolerance";
  if small then (n, Traced.layer_metrics replay, [])
  else begin
    let out = Filename.concat ctx.work "stdout" and err = Filename.concat ctx.work "stderr" in
    let expected = Array.map (fun op -> snd (reference op)) ops in
    let spawned =
      List.init n (fun k ->
          let i = order.(k) in
          let code, s = Proc.run ~stdout:out ~stderr:err (argv ctx ops.(i)) in
          check f (code = expected.(i)) "%s %s: exit %d, expected %d" (cmd_name ops.(i).cmd)
            ops.(i).model.label code expected.(i);
          s *. 1000.0)
    in
    let cli = Pct.median spawned and inproc_ms = Pct.median (Traced.op_ms replay) in
    ( 2 * n,
      Traced.layer_metrics replay,
      Traced.notes replay
      @ [
          Printf.sprintf
            "start-up residual = cli p50 %.3f ms - in-process p50 %.3f ms = %.3f ms \
             (startup.same_version_ms should account for it)"
            cli inproc_ms (cli -. inproc_ms);
        ] )
  end

let run ctx =
  let env, setup_s = repeated_setup ~repeats:5 ~setup:(setup ctx) ~teardown:(fun _ -> ()) () in
  let f = failures () in
  let n_ops = Array.length env.ops in
  let out = Filename.concat ctx.work "stdout" and err = Filename.concat ctx.work "stderr" in
  let order = schedule ~seed:ctx.seed ~n_ops ~length:100_000 in
  let deadline = Clock.now_ns () + int_of_float (ctx.seconds *. 1e9) in
  let t0 = Clock.now_ns () and cpu0 = Clock.children_cpu_us () in
  let samples = ref [] in
  let k = ref 0 in
  while Clock.now_ns () < deadline do
    let i = order.(!k mod Array.length order) in
    let code, s = Proc.run ~stdout:out ~stderr:err (argv ctx env.ops.(i)) in
    samples := (i, code, s) :: !samples;
    incr k
  done;
  let elapsed = Clock.seconds_since t0 in
  let cpu_ms = float_of_int (Clock.children_cpu_us () - cpu0) /. 1000.0 in
  let expected = verify_references env f in
  List.iter
    (fun (i, code, _) ->
      check f (code = expected.(i)) "%s %s: exit %d, expected %d" (cmd_name env.ops.(i).cmd)
        env.ops.(i).model.label code expected.(i))
    !samples;
  let ms = List.map (fun (_, _, s) -> s *. 1000.0) !samples in
  report_failures f;
  {
    attempted = List.length ms + n_ops;
    failed = f.count;
    metrics =
      end_to_end ~setup_s
        ~cpu_ms_per_op:(cpu_ms /. float_of_int (List.length ms))
        ~peak_rss_kb:(Clock.children_maxrss_kb ());
    notes =
      wall_notes ~name:"cli" ~latencies_ms:ms ~ops:(List.length ms) ~elapsed_s:elapsed
      @ [ Printf.sprintf "%d processes over %d distinct commands" (List.length ms) n_ops ];
  }
