(* Dispatch, per-layer assembly and the result line. *)

open Common

let workloads = [ "cli_verdicts"; "design_loop"; "analysis_batch" ]

(* Names and units the result must carry, from BENCHMARK.json. *)
let declared key =
  let json = Modelio.Json.parse_file "BENCHMARK.json" in
  match Modelio.Json.member key json with
  | Some (Modelio.Json.List items) ->
      List.filter_map
        (fun item ->
          match Modelio.Json.(member "name" item, member "unit" item) with
          | Some (Modelio.Json.String n), Some (Modelio.Json.String u) -> Some (n, u)
          | _ -> None)
        items
  | _ -> failwith ("BENCHMARK.json: no " ^ key)

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let result_line ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (number m.value) m.unit_)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed (String.concat ", " fields)

(* Keep exactly the declared metrics, in declared order.  A declared
   metric the run did not produce, or one that is not finite or has
   another unit, is an error: the run prints no result. *)
let select ~key produced =
  let problems = ref [] in
  let chosen =
    List.filter_map
      (fun (name, unit_) ->
        match List.find_opt (fun m -> m.name = name) produced with
        | Some m when Float.is_finite m.value && m.unit_ = unit_ -> Some m
        | Some m ->
            problems := Printf.sprintf "%s = %g %s (declared unit %s)" name m.value m.unit_ unit_ :: !problems;
            None
        | None ->
            problems := Printf.sprintf "%s not produced" name :: !problems;
            None)
      (declared key)
  in
  match !problems with
  | [] -> chosen
  | ps -> failwith (Printf.sprintf "%s metrics: %s" key (String.concat "; " (List.rev ps)))

let run_workload ctx = function
  | "cli_verdicts" -> Wl_cli.run ctx
  | "design_loop" -> Wl_loop.run ctx
  | "analysis_batch" -> Wl_batch.run ctx
  | w -> failwith ("unknown workload " ^ w)

let layers ctx f ~small = function
  | "cli_verdicts" -> Wl_cli.layers ctx f ~small
  | "design_loop" -> Wl_loop.layers ctx f ~small
  | "analysis_batch" -> Wl_batch.layers ctx f ~small
  | w -> failwith ("unknown workload " ^ w)

(* The traced run: the workload's own replay, then small probes of the
   other workloads for the layers this one does not reach.  A layer
   metric comes from the workload's replay when it has one. *)
let trace_run ctx workload =
  let f = failures () in
  let attempted, own, notes = layers ctx f ~small:false workload in
  let probes =
    List.filter (( <> ) workload) workloads
    |> List.map (fun w ->
           let n, metrics, _ = layers ctx f ~small:true w in
           (n, metrics))
  in
  report_failures f;
  let probed = List.concat_map snd probes in
  let own_names = List.map (fun m -> m.name) own in
  {
    attempted = attempted + List.fold_left (fun acc (n, _) -> acc + n) 0 probes;
    failed = f.count;
    metrics = own @ Probe.startup ctx ~count:25 @ probed;
    notes =
      notes
      @ [
          Printf.sprintf "layer metrics from small probes of the other workloads: %s"
            (String.concat ", "
               (List.sort_uniq String.compare
                  (List.filter_map
                     (fun m -> if List.mem m.name own_names then None else Some m.name)
                     probed)));
        ];
  }

let main ~workload ~seed ~seconds ~trace ~same ~floor =
  if not (List.mem workload workloads) then begin
    Printf.eprintf "perfbench: unknown workload %S (one of %s)\n" workload
      (String.concat ", " workloads);
    2
  end
  else if not (Sys.file_exists same && Sys.file_exists floor && Sys.file_exists "BENCHMARK.json")
  then begin
    prerr_endline "perfbench: run from the checkout root after building (see perfbench/run.sh)";
    2
  end
  else begin
    let work = Filename.concat ".perfbench" (Printf.sprintf "%s-%d" workload (Unix.getpid ())) in
    let ctx = { seed; seconds; same; floor; work } in
    Fun.protect
      ~finally:(fun () ->
        Proc.remove_tree work;
        try Unix.rmdir ".perfbench" with Unix.Unix_error _ -> ())
      (fun () ->
        match if trace then trace_run ctx workload else run_workload ctx workload with
        | exception e ->
            Printf.eprintf "perfbench: %s failed: %s\n%s" workload (Printexc.to_string e) (Printexc.get_backtrace ());
            1
        | outcome -> (
            let key = if trace then "per_layer" else "end_to_end" in
            match select ~key outcome.metrics with
            | exception Failure m ->
                Printf.eprintf "perfbench: %s\n" m;
                1
            | metrics ->
                List.iter print_endline outcome.notes;
                print_endline
                  (result_line ~correct:(outcome.failed = 0) ~attempted:outcome.attempted
                     ~failed:outcome.failed metrics);
                0))
  end
