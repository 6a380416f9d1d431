(* The benchmark's own checks: seeded inputs are reproducible, the
   percentile rule, metric names, and the traced run's sum check. *)

open Perfbench

(* ---------- generator determinism ---------- *)

let mesh_texts seed =
  let rng = Rng.make seed in
  let d =
    Gen.mesh ~rng ~name:"m" ~rows:5 ~cols:6 ~diodes:2 ~sensor_every:3 ~voltage_sensors:3
  in
  (Gen.diagram_text d, Gen.reliability_csv (Gen.mesh_reliability ~rng))

let loop_texts seed =
  Array.to_list (Wl_loop.sessions ~seed)
  |> List.concat_map (fun (s : Wl_loop.session) ->
         let st = ref s.Wl_loop.base in
         List.init 60 (fun k ->
             st := Wl_loop.apply !st s.Wl_loop.stream.(k);
             !st.Wl_loop.d_text ^ !st.Wl_loop.r_text))

let batch_inputs seed =
  let env = Wl_batch.make_env ~seed ~small:false in
  ( Array.to_list (Array.map Wl_batch.label env.Wl_batch.jobs),
    Gen.reliability_csv env.Wl_batch.catalogue )

let test_determinism () =
  List.iter
    (fun seed ->
      Alcotest.(check (pair string string)) "mesh texts" (mesh_texts seed) (mesh_texts seed);
      Alcotest.(check (list string)) "design-loop states" (loop_texts seed) (loop_texts seed);
      Alcotest.(check (pair (list string) string)) "batch inputs" (batch_inputs seed) (batch_inputs seed))
    [ 1; 7; 123456 ];
  Alcotest.(check bool) "other seed, other mesh" false (mesh_texts 1 = mesh_texts 2);
  Alcotest.(check bool) "other seed, other stream" false (loop_texts 1 = loop_texts 2)

(* Generated texts are models the program accepts. *)
let test_generated_parse () =
  let text, csv = mesh_texts 3 in
  let d = Blockdiag.Text_format.parse text in
  Alcotest.(check int) "blocks survive printing" (List.length d.Blockdiag.Diagram.blocks)
    (List.length (Blockdiag.Text_format.parse (Gen.diagram_text d)).Blockdiag.Diagram.blocks);
  match Serve.Handlers.parse_reliability (Some csv) with
  | Ok r -> Alcotest.(check int) "catalogue entries" 5 (List.length (Reliability.Reliability_model.entries r))
  | Error m -> Alcotest.fail m

(* The stream's mix does not depend on the seed. *)
let test_stream_mix () =
  let kinds seed =
    let s = (Wl_loop.sessions ~seed).(0) in
    Array.to_list
      (Array.map
         (function Gen.Rel_edit _ -> 'r' | Gen.Elec_edit _ -> 'e' | Gen.Replay _ -> 'p')
         (Array.sub s.Wl_loop.stream 0 40))
  in
  Alcotest.(check (list char)) "same positions" (kinds 1) (kinds 99);
  let count c = List.length (List.filter (( = ) c) (kinds 1)) in
  Alcotest.(check (pair int int)) "electrical edits and replays in 40" (6, 4) (count 'e', count 'p')

(* ---------- percentiles ---------- *)

let test_percentile_rule () =
  let check n expected =
    Alcotest.(check (option (float 0.0))) (Printf.sprintf "n=%d" n) expected (Pct.highest_supported ~n)
  in
  check 0 None;
  check 19 None;
  check 20 (Some 50.0);
  check 39 (Some 50.0);
  check 40 (Some 75.0);
  check 99 (Some 75.0);
  check 100 (Some 90.0);
  check 199 (Some 90.0);
  check 200 (Some 95.0);
  check 999 (Some 95.0);
  check 1000 (Some 99.0);
  check 10_000 (Some 99.9);
  Alcotest.(check int) "beyond p90 of 100" 10 (Pct.beyond ~n:100 90.0);
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 0.0)) "nearest-rank p90" 90.0 (Pct.percentile xs 90.0);
  Alcotest.(check (float 0.0)) "nearest-rank p50" 50.0 (Pct.median xs)

(* ---------- names ---------- *)

let valid_name s =
  s <> ""
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s

let names json key =
  match Modelio.Json.member key json with
  | Some (Modelio.Json.List items) ->
      List.filter_map (fun i -> Modelio.Json.(Option.bind (member "name" i) to_str)) items
  | _ -> []

let test_names () =
  let bench = Modelio.Json.parse_file "../../BENCHMARK.json" in
  let workloads = names bench "workloads" in
  let e2e = names bench "end_to_end" and layers = names bench "per_layer" in
  Alcotest.(check (list string)) "workloads" Bench.workloads workloads;
  List.iter
    (fun n -> Alcotest.(check bool) ("valid name " ^ n) true (valid_name n))
    (workloads @ e2e @ layers);
  Alcotest.(check int) "names used once" (List.length (e2e @ layers))
    (List.length (List.sort_uniq String.compare (e2e @ layers)));
  (* The layer map covers exactly the per-layer metrics and points at
     declared end-to-end metrics and workloads. *)
  let map = Modelio.Json.parse_file "../metrics_map.json" in
  match Modelio.Json.member "per_layer" map with
  | Some (Modelio.Json.Object entries) ->
      Alcotest.(check (list string)) "map covers per_layer" (List.sort compare layers)
        (List.sort compare (List.map fst entries));
      List.iter
        (fun (name, e) ->
          let strs k =
            match Modelio.Json.member k e with
            | Some (Modelio.Json.List l) -> List.filter_map Modelio.Json.to_str l
            | _ -> Alcotest.fail (name ^ ": no " ^ k)
          in
          List.iter
            (fun m ->
              match String.split_on_char '@' m with
              | [ metric; workload ] ->
                  Alcotest.(check bool) (name ^ " moves " ^ m) true
                    (List.mem metric e2e && List.mem workload workloads)
              | _ -> Alcotest.fail (name ^ ": bad entry " ^ m))
            (strs "moves");
          List.iter
            (fun w -> Alcotest.(check bool) (name ^ " not_on " ^ w) true (List.mem w workloads))
            (strs "not_on"))
        entries
  | _ -> Alcotest.fail "metrics_map.json: no per_layer"

(* ---------- the sum check ---------- *)

let spin ms =
  let t0 = Clock.now_ns () in
  while Clock.now_ns () - t0 < ms * 1_000_000 do
    ()
  done

let traced ops =
  let t = Trace.create () in
  t.Trace.enabled <- true;
  List.iteri (fun k op -> Trace.operation t k (fun () -> op t)) ops;
  Trace.spans t

let test_sum_check () =
  let complete t =
    Trace.span t "layer.a" (fun () -> spin 10);
    Trace.span t "layer.b" (fun () -> Trace.span t "layer.c" (fun () -> spin 10); spin 5)
  in
  let missing t =
    Trace.span t "layer.a" (fun () -> spin 10);
    (* A layer call made without its span. *)
    spin 10
  in
  let ok = Trace.check ~tolerance:Traced.tolerance (traced [ complete; complete ]) in
  Alcotest.(check bool) "every call in a span passes" true ok.Trace.ok;
  let bad = Trace.check ~tolerance:Traced.tolerance (traced [ complete; missing ]) in
  Alcotest.(check bool) "a missing span fails" false bad.Trace.ok;
  Alcotest.(check bool) "and shows as unattributed time" true
    (bad.Trace.unattributed_ns >= 9_000_000);
  let self = Trace.self_by_name (traced [ complete ]) in
  let ms name = float_of_int (List.assoc name self) /. 1e6 in
  Alcotest.(check bool) "self time excludes children" true (ms "layer.b" < 8.0 && ms "layer.c" >= 10.0)

let () =
  Alcotest.run "perfbench"
    [
      ( "generators",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "generated models parse" `Quick test_generated_parse;
          Alcotest.test_case "stream mix" `Quick test_stream_mix;
        ] );
      ("percentiles", [ Alcotest.test_case "highest percentile rule" `Quick test_percentile_rule ]);
      ("names", [ Alcotest.test_case "metric and workload names" `Quick test_names ]);
      ("trace", [ Alcotest.test_case "sum check" `Quick test_sum_check ]);
    ]
