(* Tests for the safety-mechanism deployment search. *)

let mech ?(cost = 1.0) name ctype fmode cov =
  {
    Reliability.Sm_model.sm_name = name;
    component_type = ctype;
    failure_mode = fmode;
    coverage_pct = cov;
    cost;
  }

let table rows = { Fmea.Table.system_name = "s"; rows }

let sr_row ?(fit = 100.0) ?(dist = 100.0) component fmode =
  Fmea.Table.make_row ~component ~component_fit:fit ~failure_mode:fmode
    ~distribution_pct:dist ~safety_related:true ()

let two_slot_table =
  table [ sr_row "X" "f"; sr_row ~fit:50.0 "Y" "g" ]

let catalogue =
  Reliability.Sm_model.of_mechanisms
    [
      mech ~cost:1.0 "cheap" "X" "f" 60.0;
      mech ~cost:4.0 "good" "X" "f" 95.0;
      mech ~cost:2.0 "only" "Y" "g" 90.0;
    ]

let test_slots () =
  let slots = Optimize.Search.slots two_slot_table catalogue in
  Alcotest.(check int) "two slots" 2 (List.length slots);
  let x_slot =
    List.find (fun s -> s.Optimize.Search.slot_component = "X") slots
  in
  Alcotest.(check int) "two options for X" 2
    (List.length x_slot.Optimize.Search.slot_options);
  (* Non-safety-related rows contribute no slot. *)
  let with_extra =
    table
      (two_slot_table.Fmea.Table.rows
      @ [
          Fmea.Table.make_row ~component:"Z" ~component_fit:1.0 ~failure_mode:"h"
            ~distribution_pct:100.0 ~safety_related:false ();
        ])
  in
  Alcotest.(check int) "still two" 2
    (List.length (Optimize.Search.slots with_extra catalogue))

let test_evaluate () =
  let c = Optimize.Search.evaluate two_slot_table [] in
  Alcotest.(check (float 1e-9)) "no deployment cost" 0.0 c.Optimize.Search.cost;
  Alcotest.(check (float 1e-9)) "spfm 0" 0.0 c.Optimize.Search.spfm_pct;
  let all =
    [
      Fmea.Fmeda.deploy ~component:"X" ~failure_mode:"f" (mech ~cost:4.0 "good" "X" "f" 95.0);
      Fmea.Fmeda.deploy ~component:"Y" ~failure_mode:"g" (mech ~cost:2.0 "only" "Y" "g" 90.0);
    ]
  in
  let c = Optimize.Search.evaluate two_slot_table all in
  Alcotest.(check (float 1e-9)) "cost" 6.0 c.Optimize.Search.cost;
  (* residual = 100*0.05 + 50*0.10 = 10; total = 150 -> spfm = 93.33 *)
  Alcotest.(check (float 0.01)) "spfm" 93.33 c.Optimize.Search.spfm_pct

let test_exhaustive_enumerates_all () =
  let candidates = Optimize.Search.exhaustive two_slot_table catalogue in
  (* (2 options + skip) * (1 option + skip) = 6 *)
  Alcotest.(check int) "6 combinations" 6 (List.length candidates)

let test_exhaustive_limit () =
  match
    Optimize.Search.exhaustive ~max_combinations:3 two_slot_table catalogue
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected limit error"

let test_pareto_front () =
  let candidates = Optimize.Search.exhaustive two_slot_table catalogue in
  let front = Optimize.Search.pareto_front candidates in
  (* Front must be strictly increasing in both cost and SPFM. *)
  let rec strictly_improving = function
    | a :: (b :: _ as rest) ->
        a.Optimize.Search.cost < b.Optimize.Search.cost
        && a.Optimize.Search.spfm_pct < b.Optimize.Search.spfm_pct
        && strictly_improving rest
    | _ -> true
  in
  Alcotest.(check bool) "strictly improving" true (strictly_improving front);
  (* No candidate dominates any front member. *)
  let dominated_by c other =
    other.Optimize.Search.spfm_pct >= c.Optimize.Search.spfm_pct
    && other.Optimize.Search.cost <= c.Optimize.Search.cost
    && (other.Optimize.Search.spfm_pct > c.Optimize.Search.spfm_pct
       || other.Optimize.Search.cost < c.Optimize.Search.cost)
  in
  List.iter
    (fun f ->
      Alcotest.(check bool) "front member undominated" false
        (List.exists (dominated_by f) candidates))
    front

let prop_pareto_covers =
  (* Every candidate is dominated-or-equalled by some front member. *)
  QCheck.Test.make ~name:"pareto front covers all candidates" ~count:60
    QCheck.(list_of_size (QCheck.Gen.int_range 1 30)
              (pair (QCheck.float_bound_inclusive 100.0) (QCheck.float_bound_inclusive 20.0)))
    (fun points ->
      let candidates =
        List.map
          (fun (spfm, cost) ->
            { Optimize.Search.deployments = []; spfm_pct = spfm; cost })
          points
      in
      let front = Optimize.Search.pareto_front candidates in
      front <> []
      && List.for_all
           (fun c ->
             List.exists
               (fun f ->
                 f.Optimize.Search.spfm_pct >= c.Optimize.Search.spfm_pct
                 && f.Optimize.Search.cost <= c.Optimize.Search.cost)
               front)
           candidates)

let test_cheapest_meeting () =
  let candidates = Optimize.Search.exhaustive two_slot_table catalogue in
  match
    Optimize.Search.cheapest_meeting ~target:Ssam.Requirement.ASIL_B candidates
  with
  | Some c ->
      (* ASIL-B needs >= 90%: "good"+"only" (93.33% at cost 6) is the only
         combination above 90. *)
      Alcotest.(check (float 1e-9)) "cost" 6.0 c.Optimize.Search.cost;
      Alcotest.(check bool) "meets" true (c.Optimize.Search.spfm_pct >= 90.0)
  | None -> Alcotest.fail "expected a solution"

let test_cheapest_meeting_none () =
  let candidates = Optimize.Search.exhaustive two_slot_table catalogue in
  Alcotest.(check bool) "ASIL-D unreachable" true
    (Optimize.Search.cheapest_meeting ~target:Ssam.Requirement.ASIL_D candidates
    = None)

let test_greedy_reaches_target () =
  let g =
    Optimize.Search.greedy ~target:Ssam.Requirement.ASIL_B two_slot_table
      catalogue
  in
  Alcotest.(check bool) "greedy meets ASIL-B" true (g.Optimize.Search.spfm_pct >= 90.0)

let test_greedy_stops_when_stuck () =
  (* No mechanisms at all: greedy returns the empty deployment. *)
  let g =
    Optimize.Search.greedy ~target:Ssam.Requirement.ASIL_B two_slot_table
      Reliability.Sm_model.empty
  in
  Alcotest.(check int) "no deployments" 0 (List.length g.Optimize.Search.deployments)

let test_optimise_end_to_end () =
  let chosen, front =
    Optimize.Search.optimise ~target:Ssam.Requirement.ASIL_B two_slot_table
      catalogue
  in
  Alcotest.(check bool) "found" true (Option.is_some chosen);
  Alcotest.(check bool) "front nonempty" true (front <> []);
  (* The chosen one is on (or dominated by nothing in) the front. *)
  let c = Option.get chosen in
  Alcotest.(check bool) "chosen is optimal for its cost" true
    (List.for_all
       (fun f ->
         not
           (f.Optimize.Search.cost <= c.Optimize.Search.cost
           && f.Optimize.Search.spfm_pct > c.Optimize.Search.spfm_pct
           && f.Optimize.Search.spfm_pct >= 90.0))
       front)

let test_optimise_greedy_fallback () =
  (* Many slots with many options exceed the exhaustive limit: optimise
     falls back to greedy and still returns a candidate. *)
  let rows = List.init 24 (fun i -> sr_row (Printf.sprintf "C%d" i) "f") in
  let mechanisms =
    List.concat_map
      (fun i ->
        [
          mech ~cost:1.0 "a" (Printf.sprintf "C%d" i) "f" 60.0;
          mech ~cost:2.0 "b" (Printf.sprintf "C%d" i) "f" 90.0;
          mech ~cost:4.0 "c" (Printf.sprintf "C%d" i) "f" 99.0;
        ])
      (List.init 24 Fun.id)
  in
  let chosen, _ =
    Optimize.Search.optimise ~target:Ssam.Requirement.ASIL_B (table rows)
      (Reliability.Sm_model.of_mechanisms mechanisms)
  in
  match chosen with
  | Some c -> Alcotest.(check bool) "fallback meets" true (c.Optimize.Search.spfm_pct >= 90.0)
  | None -> Alcotest.fail "expected greedy fallback solution"

(* ---------- streaming enumeration ---------- *)

let candidate_list = Alcotest.testable Optimize.Search.pp_candidate
    Optimize.Search.equal_candidate

let test_streaming_matches_list () =
  let listed = Optimize.Search.exhaustive two_slot_table catalogue in
  let streamed =
    List.rev
      (Optimize.Search.exhaustive_fold two_slot_table catalogue
         ~init:[] ~f:(fun acc c -> c :: acc))
  in
  Alcotest.(check (list candidate_list)) "same candidates, same order" listed
    streamed

let test_streaming_optimise_matches_list () =
  let listed = Optimize.Search.exhaustive two_slot_table catalogue in
  let chosen, front =
    Optimize.Search.optimise ~target:Ssam.Requirement.ASIL_B two_slot_table
      catalogue
  in
  Alcotest.(check (option candidate_list)) "same cheapest"
    (Optimize.Search.cheapest_meeting ~target:Ssam.Requirement.ASIL_B listed)
    chosen;
  Alcotest.(check (list candidate_list)) "same pareto front"
    (Optimize.Search.pareto_front listed)
    front

let test_streaming_beyond_list_cap () =
  (* 9 slots x 3 options = 4^9 = 262 144 combinations: over the
     list-based cap (the list entry point must refuse) but well inside
     the streaming optimiser's budget — and the answer must be the
     exact search, not the greedy fallback. *)
  let n = 9 in
  let rows = List.init n (fun i -> sr_row (Printf.sprintf "C%d" i) "f") in
  let mechanisms =
    List.concat_map
      (fun i ->
        [
          mech ~cost:1.0 "a" (Printf.sprintf "C%d" i) "f" 60.0;
          mech ~cost:2.0 "b" (Printf.sprintf "C%d" i) "f" 90.0;
          mech ~cost:4.0 "c" (Printf.sprintf "C%d" i) "f" 99.0;
        ])
      (List.init n Fun.id)
  in
  let t = table rows and cat = Reliability.Sm_model.of_mechanisms mechanisms in
  (match Optimize.Search.exhaustive t cat with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "list-based entry point should refuse 262k combinations");
  let chosen, front =
    Optimize.Search.optimise ~target:Ssam.Requirement.ASIL_B t cat
  in
  (match chosen with
  | None -> Alcotest.fail "expected a solution"
  | Some c ->
      Alcotest.(check bool) "meets ASIL-B" true (c.Optimize.Search.spfm_pct >= 90.0);
      (* ASIL-B needs 90 %: deploying "b" (90 % coverage) everywhere
         gives exactly 90 at cost 18, and nothing cheaper reaches it. *)
      Alcotest.(check (float 1e-9)) "exact optimum cost" 18.0
        c.Optimize.Search.cost);
  (* The greedy fallback would return a single-element front. *)
  Alcotest.(check bool) "exhaustive front, not greedy" true
    (List.length front > 1)

(* ---------- route choice and exceptions ---------- *)

let test_optimise_propagates_scorer_errors () =
  (* A coverage outside [0,100] makes the scorer raise.  With a QM
     target greedy would stop before scoring anything, so a fallback
     taken on any [Invalid_argument] would hide the error behind an
     empty-deployment answer; the search must raise it instead. *)
  let bad =
    Reliability.Sm_model.of_mechanisms [ mech "broken" "X" "f" 150.0 ]
  in
  match Optimize.Search.optimise ~target:Ssam.Requirement.QM two_slot_table bad with
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "the scorer's error" true
        (String.starts_with ~prefix:"Fit.residual" msg)
  | _ -> Alcotest.fail "expected the scorer's Invalid_argument"

let test_exhaustive_fold_propagates_callback_errors () =
  match
    Optimize.Search.exhaustive_fold two_slot_table catalogue ~init:()
      ~f:(fun () _ -> invalid_arg "callback")
  with
  | exception Invalid_argument msg ->
      Alcotest.(check string) "the callback's error" "callback" msg
  | _ -> Alcotest.fail "expected the callback's Invalid_argument"

(* ---------- differential oracle: the searches on the reference scorer ---------- *)

open Oracle

let exact_candidate =
  Alcotest.testable
    (fun ppf (c : Optimize.Search.candidate) ->
      Fmt.pf ppf "{%d deployments; spfm %h; cost %h}"
        (List.length c.Optimize.Search.deployments)
        c.Optimize.Search.spfm_pct c.Optimize.Search.cost)
    Search_oracle.identical

let with_jobs n f =
  let saved = Exec.default_jobs () in
  Fun.protect
    ~finally:(fun () -> Exec.set_default_jobs saved)
    (fun () ->
      Exec.set_default_jobs n;
      f ())

(* [optimise], [greedy] and (where the list cap allows) [exhaustive]
   against the oracle, for each target, at one and four jobs. *)
let check_against_oracle ?component_types
    ?(targets = Ssam.Requirement.[ ASIL_B; ASIL_D ]) ~label table sms =
  let count =
    Search_oracle.count (Optimize.Search.slots ?component_types table sms)
  in
  let expected_exhaustive =
    if count <= 200_000 then
      Some (Search_oracle.exhaustive ?component_types table sms)
    else None
  in
  let expected =
    List.map
      (fun target ->
        let optimised =
          match expected_exhaustive with
          | Some all ->
              ( Optimize.Search.cheapest_meeting ~target all,
                Optimize.Search.pareto_front all )
          | None -> Search_oracle.optimise ?component_types ~target table sms
        in
        ( target,
          Search_oracle.greedy ?component_types ~target table sms,
          optimised ))
      targets
  in
  let ev = Optimize.Search.make_evaluator table in
  List.iter
    (fun jobs ->
      with_jobs jobs (fun () ->
          let name what = Printf.sprintf "%s %s jobs=%d" label what jobs in
          (match expected_exhaustive with
          | Some all ->
              Alcotest.(check (list exact_candidate))
                (name "exhaustive") all
                (Optimize.Search.exhaustive ?component_types ~evaluator:ev
                   table sms)
          | None -> (
              match Optimize.Search.exhaustive ?component_types table sms with
              | exception Invalid_argument _ -> ()
              | _ -> Alcotest.fail (name "exhaustive should refuse")));
          List.iter
            (fun (target, greedy, (chosen, front)) ->
              let name what =
                name (what ^ " " ^ Ssam.Requirement.show_integrity_level target)
              in
              Alcotest.check exact_candidate (name "greedy") greedy
                (Optimize.Search.greedy ?component_types ~evaluator:ev ~target
                   table sms);
              let got_chosen, got_front =
                Optimize.Search.optimise ?component_types ~target table sms
              in
              Alcotest.(check (option exact_candidate))
                (name "optimise chosen") chosen got_chosen;
              Alcotest.(check (list exact_candidate))
                (name "optimise front") front got_front)
            expected))
    [ 1; 4 ]

let test_oracle_systems () =
  let check label s table targets =
    check_against_oracle
      ~component_types:
        (Decisive.Systems.analysable s).Blockdiag.To_netlist.block_types
      ~targets ~label table Reliability.Sm_model.extended_catalogue
  in
  let a = Decisive.Systems.system_a and b = Decisive.Systems.system_b in
  (* System A's curated table (three designated sensors, 1,296
     combinations) is searched exhaustively.  System B's curated table
     (62,208 combinations) is left out: the oracle needs ~5 s to score
     it, and the exhaustive route is covered here and by the seeded
     tables below. *)
  check "System A curated" a (Decisive.Systems.automated_fmea a)
    Ssam.Requirement.[ ASIL_B; ASIL_D ];
  check "System A all sensors" a (Search_oracle.all_sensors_fmea a)
    Ssam.Requirement.[ ASIL_B; ASIL_D ];
  check "System B all sensors" b (Search_oracle.all_sensors_fmea b)
    Ssam.Requirement.[ ASIL_B ]

(* A seeded table built to break index-based scoring: component and
   failure-mode names that differ only in case (one key, several
   components), duplicated rows (several slots on one key), zero-FIT
   components, non-safety-related rows inside safety-related components
   (matched by the same key, so a deployment zeroes them), mechanisms
   of equal coverage (coverage ties fall to list order) and costs whose
   sum depends on the fold order. *)
let adversarial_table seed =
  let rng = Random.State.make [| seed |] in
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let components = [| "MC1"; "mc1"; "D1"; "L1"; "Z0" |] in
  let fits =
    List.map
      (fun c ->
        ( c,
          if c = "Z0" || (seed mod 4 = 0 && c = "D1") then 0.0
          else pick [| 5.0; 20.0; 100.0 |] ))
      (Array.to_list components)
  in
  let rows =
    List.init
      (5 + Random.State.int rng 5)
      (fun _ ->
        let c = pick components in
        Fmea.Table.make_row ~component:c ~component_fit:(List.assoc c fits)
          ~failure_mode:(pick [| "Open"; "open"; "Short"; "RAM" |])
          ~distribution_pct:(pick [| 10.0; 25.0; 50.0; 100.0 |])
          ~safety_related:(Random.State.int rng 5 > 0) ())
  in
  let mechanisms =
    List.concat_map
      (fun c ->
        List.concat_map
          (fun fm ->
            List.init (Random.State.int rng 3) (fun i ->
                mech ~cost:(pick [| 0.0; 0.1; 0.7; 1.0; 2.0 |])
                  (Printf.sprintf "%s-%s-%d" c fm i) c fm
                  (pick [| 60.0; 90.0; 90.0; 99.0 |])))
          [ "Open"; "Short"; "RAM"; "open" ])
      [ "MC1"; "D1"; "L1"; "Z0" ]
  in
  (* Half the seeds give "mc1" another component type, so slots that
     share a key can offer different mechanisms. *)
  let component_types =
    if seed mod 2 = 0 then [ ("mc1", pick [| "L1"; "D1" |]) ] else []
  in
  (table rows, component_types, Reliability.Sm_model.of_mechanisms mechanisms)

let test_oracle_adversarial () =
  for seed = 1 to 40 do
    let t, component_types, sms = adversarial_table seed in
    check_against_oracle ~component_types
      ~label:(Printf.sprintf "adversarial seed %d" seed)
      ~targets:Ssam.Requirement.[ QM; ASIL_B; ASIL_D ] t sms
  done

(* Two slots whose names differ only in case share one key but stay
   separate greedy slots: deploying on the second is a new deployment
   at full cost, not an upgrade of the first.  The costs are chosen so
   that charging only the difference would change greedy's second move. *)
let test_oracle_case_differing_slots () =
  let t =
    table
      [ sr_row "mc1" "open"; sr_row "MC1" "Open"; sr_row "X" "f" ]
  in
  let component_types = [ ("mc1", "T1"); ("MC1", "T2"); ("X", "T3") ] in
  let sms =
    Reliability.Sm_model.of_mechanisms
      [
        mech ~cost:1.0 "a" "T1" "open" 60.0;
        mech ~cost:2.0 "b" "T2" "open" 99.0;
        mech ~cost:1.5 "c" "T3" "f" 90.0;
      ]
  in
  check_against_oracle ~component_types ~label:"case-differing slots"
    ~targets:Ssam.Requirement.[ ASIL_D ] t sms

let suite =
  [
    Alcotest.test_case "slots" `Quick test_slots;
    Alcotest.test_case "evaluate" `Quick test_evaluate;
    Alcotest.test_case "exhaustive enumerates" `Quick test_exhaustive_enumerates_all;
    Alcotest.test_case "exhaustive limit" `Quick test_exhaustive_limit;
    Alcotest.test_case "pareto front" `Quick test_pareto_front;
    QCheck_alcotest.to_alcotest prop_pareto_covers;
    Alcotest.test_case "cheapest meeting" `Quick test_cheapest_meeting;
    Alcotest.test_case "cheapest meeting none" `Quick test_cheapest_meeting_none;
    Alcotest.test_case "greedy reaches target" `Quick test_greedy_reaches_target;
    Alcotest.test_case "greedy stops when stuck" `Quick test_greedy_stops_when_stuck;
    Alcotest.test_case "optimise end-to-end" `Quick test_optimise_end_to_end;
    Alcotest.test_case "optimise greedy fallback" `Quick test_optimise_greedy_fallback;
    Alcotest.test_case "streaming matches list" `Quick test_streaming_matches_list;
    Alcotest.test_case "streaming optimise matches list" `Quick
      test_streaming_optimise_matches_list;
    Alcotest.test_case "streaming beyond list cap" `Slow
      test_streaming_beyond_list_cap;
    Alcotest.test_case "optimise propagates scorer errors" `Quick
      test_optimise_propagates_scorer_errors;
    Alcotest.test_case "exhaustive fold propagates callback errors" `Quick
      test_exhaustive_fold_propagates_callback_errors;
    Alcotest.test_case "oracle: systems A and B" `Slow test_oracle_systems;
    Alcotest.test_case "oracle: adversarial tables" `Quick
      test_oracle_adversarial;
    Alcotest.test_case "oracle: case-differing slots" `Quick
      test_oracle_case_differing_slots;
  ]
