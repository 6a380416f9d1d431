(* Tests for the bit-parallel Monte-Carlo assessment engine: tape
   compilation and evaluation against naive per-lane semantics, CI
   coverage against the BDD-exact oracle, determinism across job
   counts, and the rare-event value of importance sampling. *)

open Assess

let b ?rate id = Fta.Fault_tree.basic ?rate_fit:rate id

(* ---------- program: compile / eval ---------- *)

(* Naive single-trial evaluation: the semantics eval must match lane by
   lane. *)
let rec truth assignment tree =
  match tree with
  | Fta.Fault_tree.Basic e -> List.assoc e.Fta.Fault_tree.event_id assignment
  | Fta.Fault_tree.And (_, cs) -> List.for_all (truth assignment) cs
  | Fta.Fault_tree.Or (_, cs) -> List.exists (truth assignment) cs
  | Fta.Fault_tree.Koon (_, k, cs) ->
      List.length (List.filter (truth assignment) cs) >= k

let eval_lanes tree vars =
  let prog = Program.compile tree in
  let scratch = Program.scratch prog in
  Program.eval prog scratch ~vars

let test_eval_basic_gates () =
  let t =
    Fta.Fault_tree.or_ "top" [ b "a"; Fta.Fault_tree.and_ "g" [ b "b"; b "c" ] ]
  in
  (* lanes: a fails in lane 0, b&c in lane 1, only b in lane 2 *)
  let vars = [| 0b001; 0b110; 0b010 |] in
  Alcotest.(check int) "a or (b and c)" 0b011 (eval_lanes t vars land 0b111)

let test_eval_koon_exhaustive () =
  (* 2oo3 and 3oo5 checked on every lane of every input combination by
     packing the 2^n combinations into lanes. *)
  List.iter
    (fun (k, n) ->
      let events = List.init n (fun i -> b (Printf.sprintf "e%d" i)) in
      let t = Fta.Fault_tree.koon "v" ~k events in
      let combos = 1 lsl n in
      assert (combos <= Program.word_bits);
      (* lane l encodes combination l: event i fails iff bit i of l *)
      let vars =
        Array.init n (fun i ->
            let w = ref 0 in
            for l = 0 to combos - 1 do
              if (l lsr i) land 1 = 1 then w := !w lor (1 lsl l)
            done;
            !w)
      in
      let got = eval_lanes t vars in
      for l = 0 to combos - 1 do
        let assignment =
          List.init n (fun i ->
              (Printf.sprintf "e%d" i, (l lsr i) land 1 = 1))
        in
        let expected = truth assignment t in
        Alcotest.(check bool)
          (Printf.sprintf "%doo%d lane %d" k n l)
          expected
          ((got lsr l) land 1 = 1)
      done)
    [ (2, 3); (3, 5); (1, 4); (4, 4) ]

let test_popcount () =
  Alcotest.(check int) "zero" 0 (Program.popcount 0);
  Alcotest.(check int) "one" 1 (Program.popcount 1);
  Alcotest.(check int) "all lanes" Program.word_bits
    (Program.popcount Program.all_lanes);
  Alcotest.(check int) "alternating" 29 (Program.popcount 0x2AAAAAAAAAAAAAA);
  Alcotest.(check int) "high lane only" 1
    (Program.popcount (1 lsl (Program.word_bits - 1)))

(* The SWAR popcount against a naive bit loop over the whole 63-bit
   word: 2M seeded words of every density plus the sign, extreme and
   top-lane corner cases. *)
let test_popcount_matches_bit_loop () =
  let naive w =
    let rec go w acc = if w = 0 then acc else go (w lsr 1) (acc + (w land 1)) in
    go w 0
  in
  let check w =
    if Program.popcount w <> naive w then
      Alcotest.failf "popcount %#x: %d, bit loop %d" w (Program.popcount w)
        (naive w)
  in
  List.iter check [ 0; -1; max_int; min_int; 1 lsl 62; 1; min_int + 1 ];
  let rng = Random.State.make [| 0x9097 |] in
  let word () =
    (Random.State.bits rng lsl 60)
    lxor (Random.State.bits rng lsl 30)
    lxor Random.State.bits rng
  in
  for i = 1 to 2_000_000 do
    (* Rotate through dense, uniform and sparse words. *)
    check
      (match i mod 3 with
      | 0 -> word () lor word ()
      | 1 -> word ()
      | _ -> word () land word () land word ())
  done

let test_shared_subtree_compiles_once () =
  let shared = Fta.Fault_tree.and_ "g" [ b "a"; b "b" ] in
  let t = Fta.Fault_tree.or_ "top" [ shared; shared ] in
  (* 2 loads + 1 AND + 1 OR: the physically shared gate is not recompiled. *)
  Alcotest.(check int) "tape length" 4 (Program.n_instrs (Program.compile t))

(* Random tree whose events carry rates — reuse the shape of the fta
   tests' generator, bounded to 12 distinct events. *)
let tree_gen depth next_id =
  let leaf =
    QCheck.Gen.map
      (fun i ->
        let i = i mod next_id in
        b ~rate:(10.0 *. float_of_int (i + 1)) (Printf.sprintf "e%d" i))
      (QCheck.Gen.int_range 0 (next_id - 1))
  in
  let rec go depth =
    QCheck.Gen.(
      if depth = 0 then leaf
      else
        frequency
          [
            (2, leaf);
            ( 1,
              map
                (fun cs -> Fta.Fault_tree.and_ "g" cs)
                (list_size (int_range 1 3) (go (depth - 1))) );
            ( 1,
              map
                (fun cs -> Fta.Fault_tree.or_ "g" cs)
                (list_size (int_range 1 3) (go (depth - 1))) );
            ( 1,
              map2
                (fun cs k ->
                  Fta.Fault_tree.koon "v"
                    ~k:(1 + (k mod List.length cs))
                    cs)
                (list_size (int_range 2 4) (go (depth - 1)))
                (int_range 0 3) );
          ])
  in
  go depth

let prop_eval_matches_naive =
  QCheck.Test.make ~name:"tape eval = naive per-lane evaluation" ~count:120
    QCheck.(
      make
        Gen.(
          pair (tree_gen 3 12) (array_size (return 12) (int_range min_int max_int))))
    (fun (t, words) ->
      let events = Fta.Fault_tree.basic_events t in
      let vars =
        Array.init (List.length events) (fun i -> words.(i mod Array.length words))
      in
      let got = eval_lanes t vars in
      List.for_all
        (fun l ->
          let assignment =
            List.mapi
              (fun i (e : Fta.Fault_tree.event) ->
                (e.Fta.Fault_tree.event_id, (vars.(i) lsr l) land 1 = 1))
              events
          in
          truth assignment t = ((got lsr l) land 1 = 1))
        (List.init Program.word_bits Fun.id))

(* ---------- mc: CI coverage vs the BDD oracle ---------- *)

(* A long mission makes the generator's 10..120 FIT rates land on
   well-conditioned probabilities (0.1 .. 0.7), where 100k trials
   discriminate sharply. *)
let mission_hours = 1.0e7

let exact_of tree =
  Fta.Quant.top_probability_exact tree
    (Fta.Quant.event_probabilities ~mission_hours tree)

let prop_estimate_within_ci_of_exact =
  QCheck.Test.make
    ~name:"MC estimate within 99% CI of BDD-exact (jobs 1 = jobs 4)"
    ~count:60
    (QCheck.make (tree_gen 3 12))
    (fun t ->
      let config =
        {
          Mc.default with
          Mc.mission_hours;
          trials = Some 100_000;
          exact = Mc.Skip;
        }
      in
      let r1 = Mc.run ~jobs:1 config t in
      let r4 = Mc.run ~jobs:4 config t in
      let exact = exact_of t in
      (* Bit-identical across job counts... *)
      Float.equal r1.Mc.top_probability r4.Mc.top_probability
      && Float.equal r1.Mc.halfwidth r4.Mc.halfwidth
      (* ...and inside a widened interval (6 sigma rather than the
         reported 2.58 sigma, so the property is near-deterministic
         under QCheck's random seeds). *)
      && Float.abs (r1.Mc.top_probability -. exact)
         <= Float.max (6.0 /. 2.576 *. r1.Mc.halfwidth) 1e-9)

let test_fixed_seed_ci_covers_exact () =
  (* The reported interval itself (no widening) at a fixed seed: a 2oo3
     vote over unequal channels plus a common-cause OR. *)
  let t =
    Fta.Fault_tree.or_ "top"
      [
        Fta.Fault_tree.koon "vote" ~k:2
          [ b ~rate:40.0 "ch1"; b ~rate:55.0 "ch2"; b ~rate:70.0 "ch3" ];
        b ~rate:5.0 "cc";
      ]
  in
  let config =
    { Mc.default with Mc.mission_hours; trials = Some 504_000 }
  in
  let r = Mc.run config t in
  let exact = exact_of t in
  Alcotest.(check (option (float 1e-12)))
    "exact cross-check recorded" (Some exact) r.Mc.exact;
  Alcotest.(check bool)
    (Printf.sprintf "exact %.6g inside %.6g +/- %.3g" exact
       r.Mc.top_probability r.Mc.halfwidth)
    true
    (Float.abs (r.Mc.top_probability -. exact) <= r.Mc.halfwidth);
  Alcotest.(check bool) "trials rounded to replicates" true
    (r.Mc.trials >= 504_000 && r.Mc.trials mod Mc.trials_per_replicate = 0)

let test_determinism_across_jobs () =
  let t =
    Fta.Fault_tree.and_ "top"
      [ b ~rate:100.0 "a"; Fta.Fault_tree.or_ "g" [ b ~rate:60.0 "b"; b ~rate:80.0 "c" ] ]
  in
  List.iter
    (fun sampling ->
      let config =
        {
          Mc.default with
          Mc.mission_hours;
          sampling;
          trials = Some (4 * Mc.trials_per_replicate);
          exact = Mc.Skip;
        }
      in
      let r1 = Mc.run ~jobs:1 config t in
      let r4 = Mc.run ~jobs:4 config t in
      let label f = Mc.sampling_to_string sampling ^ ": " ^ f in
      Alcotest.(check (float 0.0))
        (label "estimate bit-identical")
        r1.Mc.top_probability r4.Mc.top_probability;
      Alcotest.(check (float 0.0))
        (label "halfwidth bit-identical")
        r1.Mc.halfwidth r4.Mc.halfwidth;
      Alcotest.(check (list (pair string (float 0.0))))
        (label "importances bit-identical")
        (List.map (fun e -> (e.Mc.event_id, e.Mc.importance)) r1.Mc.events)
        (List.map (fun e -> (e.Mc.event_id, e.Mc.importance)) r4.Mc.events))
    [ Mc.Direct; Mc.Importance; Mc.Stratified ]

(* ---------- mc: rare events ---------- *)

let rare_tree =
  (* AND of three 100 FIT events over a 10,000 h mission: each fails
     with p ~ 1e-3, the top event with ~1e-9.  Direct sampling at this
     budget essentially never sees it. *)
  Fta.Fault_tree.and_ "top"
    [ b ~rate:100.0 "a"; b ~rate:100.0 "b"; b ~rate:100.0 "c" ]

let test_importance_rare_event () =
  let budget = 63 * Mc.trials_per_replicate (* ~508k trials *) in
  let exact =
    Fta.Quant.top_probability_exact rare_tree
      (Fta.Quant.event_probabilities ~mission_hours:10_000.0 rare_tree)
  in
  let run sampling =
    Mc.run
      {
        Mc.default with
        Mc.sampling;
        trials = Some budget;
        exact = Mc.Skip;
      }
      rare_tree
  in
  let imp = run Mc.Importance in
  let direct = run Mc.Direct in
  Alcotest.(check bool)
    (Printf.sprintf "importance converges: %.3g +/- %.3g vs exact %.3g"
       imp.Mc.top_probability imp.Mc.halfwidth exact)
    true
    (Float.abs (imp.Mc.top_probability -. exact) <= 3.0 *. imp.Mc.halfwidth
    && imp.Mc.halfwidth <= 0.5 *. exact);
  (* The direct interval at the same budget is orders of magnitude wider
     than the importance one — the 100x-trials gap the tilting closes. *)
  Alcotest.(check bool)
    (Printf.sprintf "direct interval %.3g >= 100x importance %.3g"
       direct.Mc.halfwidth imp.Mc.halfwidth)
    true
    (direct.Mc.halfwidth >= 100.0 *. imp.Mc.halfwidth)

let test_stratified_matches_exact () =
  let t =
    Fta.Fault_tree.or_ "top"
      [
        Fta.Fault_tree.and_ "g" [ b ~rate:120.0 "a"; b ~rate:90.0 "b" ];
        b ~rate:30.0 "c";
      ]
  in
  let config =
    {
      Mc.default with
      Mc.mission_hours;
      sampling = Mc.Stratified;
      trials = Some 500_000;
      exact = Mc.Skip;
    }
  in
  let r = Mc.run config t in
  let exact = exact_of t in
  Alcotest.(check bool)
    (Printf.sprintf "stratified %.6g +/- %.3g vs exact %.6g"
       r.Mc.top_probability r.Mc.halfwidth exact)
    true
    (Float.abs (r.Mc.top_probability -. exact) <= 3.0 *. r.Mc.halfwidth)

(* ---------- mc: stopping rule and reports ---------- *)

let test_rel_precision_stopping () =
  let t =
    Fta.Fault_tree.or_ "top" [ b ~rate:50.0 "a"; b ~rate:80.0 "b" ]
  in
  let r =
    Mc.run
      {
        Mc.default with
        Mc.mission_hours;
        rel_precision = Some 0.05;
        exact = Mc.Skip;
      }
      t
  in
  Alcotest.(check bool) "converged to the requested precision" true
    (r.Mc.halfwidth <= 0.05 *. r.Mc.top_probability);
  Alcotest.(check bool) "did not blow the trial cap" true
    (r.Mc.trials <= Mc.default.Mc.max_trials)

let test_report_contents () =
  let t =
    Fta.Fault_tree.or_ "top" [ b ~rate:100.0 "hot"; b ~rate:1.0 "cold" ]
  in
  let r =
    Mc.run { Mc.default with Mc.mission_hours; trials = Some 200_000 } t
  in
  (* Importance ranking: the dominant event first. *)
  (match r.Mc.events with
  | first :: _ ->
      Alcotest.(check string) "dominant event ranked first" "hot"
        first.Mc.event_id
  | [] -> Alcotest.fail "no event reports");
  Alcotest.(check bool) "exact delta computed under Auto" true
    (match r.Mc.exact_delta with Some d -> d >= 0.0 | None -> false);
  Alcotest.(check bool) "throughput measured" true (r.Mc.trials_per_sec > 0.0);
  Alcotest.(check bool) "tape length reported" true (r.Mc.instrs >= 3)

let test_unrated_tree_degenerates () =
  (* No rates anywhere: every sampler returns exactly zero. *)
  let t = Fta.Fault_tree.or_ "top" [ b "a"; b "b" ] in
  List.iter
    (fun sampling ->
      let r =
        Mc.run
          {
            Mc.default with
            Mc.sampling;
            trials = Some Mc.trials_per_replicate;
            exact = Mc.Skip;
          }
          t
      in
      Alcotest.(check (float 0.0))
        (Mc.sampling_to_string sampling ^ ": zero estimate")
        0.0 r.Mc.top_probability)
    [ Mc.Direct; Mc.Importance; Mc.Stratified ]

let suite =
  [
    Alcotest.test_case "eval basic gates" `Quick test_eval_basic_gates;
    Alcotest.test_case "eval koon exhaustive" `Quick test_eval_koon_exhaustive;
    Alcotest.test_case "popcount" `Quick test_popcount;
    Alcotest.test_case "popcount matches bit loop" `Quick
      test_popcount_matches_bit_loop;
    Alcotest.test_case "shared subtree compiles once" `Quick
      test_shared_subtree_compiles_once;
    QCheck_alcotest.to_alcotest prop_eval_matches_naive;
    QCheck_alcotest.to_alcotest prop_estimate_within_ci_of_exact;
    Alcotest.test_case "fixed seed: CI covers exact" `Quick
      test_fixed_seed_ci_covers_exact;
    Alcotest.test_case "determinism across jobs" `Quick
      test_determinism_across_jobs;
    Alcotest.test_case "importance sampling on a rare event" `Quick
      test_importance_rare_event;
    Alcotest.test_case "stratified matches exact" `Quick
      test_stratified_matches_exact;
    Alcotest.test_case "rel-precision stopping rule" `Quick
      test_rel_precision_stopping;
    Alcotest.test_case "report contents" `Quick test_report_contents;
    Alcotest.test_case "unrated tree degenerates" `Quick
      test_unrated_tree_degenerates;
  ]
