type verdict =
  | Structural
  | Confirmed of string
  | Refuted of string

type explanation = { mode : Model.mode; verdict : verdict }

type report = {
  r_output : string;
  candidates : explanation list;
  explanations : explanation list;
  singles : string list list;
  doubles : string list list;
  agree : bool;
  agreement_pairs : int;
  stats : Fixpoint.stats;
}

type verifier = Model.mode -> [ `Confirmed of string | `Refuted of string ]

let verify_cost_key = "dataflow.verify"

let surviving_modes explanations =
  List.filter_map
    (fun e -> match e.verdict with Refuted _ -> None | _ -> Some e.mode)
    explanations

let direct_cut_sets (m : Model.t) explanations =
  let surviving = surviving_modes explanations in
  let singles =
    List.filter_map
      (fun (md : Model.mode) ->
        if
          md.Model.m_loss_like
          && not (Graph.Bitset.mem m.Model.redundant md.Model.m_node)
        then Some (Fta.Cut_sets.normalize [ md.Model.m_key ])
        else None)
      surviving
  in
  (* Loss-like modes of redundant components only break the function in
     pairs across distinct components. *)
  let redundant_modes =
    List.filter
      (fun (md : Model.mode) ->
        md.Model.m_loss_like
        && Graph.Bitset.mem m.Model.redundant md.Model.m_node)
      surviving
  in
  let doubles =
    List.concat_map
      (fun (a : Model.mode) ->
        List.filter_map
          (fun (b : Model.mode) ->
            if
              a.Model.m_index < b.Model.m_index
              && not (String.equal a.Model.m_component b.Model.m_component)
            then Some (Fta.Cut_sets.normalize [ a.Model.m_key; b.Model.m_key ])
            else None)
          redundant_modes)
      redundant_modes
  in
  let minimal = Fta.Cut_sets.minimize (singles @ doubles) in
  List.partition (fun cs -> List.length cs = 1) minimal

(* The same combination logic as [direct_cut_sets], but said once as a
   fault tree: surviving non-redundant loss-like modes are direct
   disjuncts, redundant components become per-component OR gates under
   a 2-out-of-N vote (a single redundant channel loss is tolerated;
   any two distinct redundant components failing are not). *)
let lowered_fault_tree (m : Model.t) explanations =
  let basic (md : Model.mode) =
    Fta.Fault_tree.basic
      ~description:
        (Printf.sprintf "%s: %s" md.Model.m_component md.Model.m_name)
      md.Model.m_key
  in
  let non_redundant, redundant =
    List.partition
      (fun (md : Model.mode) ->
        not (Graph.Bitset.mem m.Model.redundant md.Model.m_node))
      (List.filter
         (fun (md : Model.mode) -> md.Model.m_loss_like)
         (surviving_modes explanations))
  in
  let components =
    List.fold_left
      (fun acc (md : Model.mode) ->
        if List.exists (String.equal md.Model.m_component) acc then acc
        else acc @ [ md.Model.m_component ])
      [] redundant
  in
  let gates =
    List.map
      (fun cmp ->
        Fta.Fault_tree.or_ ("red:" ^ cmp)
          (List.map basic
             (List.filter
                (fun (md : Model.mode) ->
                  String.equal md.Model.m_component cmp)
                redundant)))
      components
  in
  let vote =
    if List.length gates >= 2 then
      [ Fta.Fault_tree.koon "redundant-pair" ~k:2 gates ]
    else []
  in
  match List.map basic non_redundant @ vote with
  | [] -> None
  | disjuncts -> Some (Fta.Fault_tree.or_ "deviation-explained" disjuncts)

(* Production route: read the explanations off the decision diagram of
   the lowered tree — cardinality ≤ 2 minimal critical sets, partitioned
   by size.  Differentially tested against [direct_cut_sets]. *)
let cut_sets (m : Model.t) explanations =
  match lowered_fault_tree m explanations with
  | None -> ([], [])
  | Some tree ->
      Fta.Bdd.build tree
      |> Fta.Bdd.minimal_critical_sets ~max_cardinality:2
      |> List.partition (fun cs -> List.length cs = 1)

let diagnose ?jobs ?verify (m : Model.t) ~output =
  match Model.output_index m output with
  | None ->
      Error
        (Printf.sprintf "unknown output '%s' (observation points: %s)" output
           (match Model.output_names m with
           | [] -> "none"
           | names -> String.concat ", " names))
  | Some _ ->
      let backward = Passes.backward_reach ?jobs m in
      let forward = Passes.forward_taint ?jobs m in
      let agree, agreement_pairs = Passes.agreement m ~forward ~backward in
      let candidate_modes = Passes.backward_explains m backward ~output in
      let candidates =
        match verify with
        | None ->
            List.map (fun mode -> { mode; verdict = Structural }) candidate_modes
        | Some verify ->
            Exec.scheduled_map ?jobs ~key:verify_cost_key
              (fun mode ->
                match verify mode with
                | `Confirmed s -> { mode; verdict = Confirmed s }
                | `Refuted why -> { mode; verdict = Refuted why })
              candidate_modes
      in
      let explanations =
        List.filter
          (fun e -> match e.verdict with Refuted _ -> false | _ -> true)
          candidates
      in
      let singles, doubles = cut_sets m explanations in
      let stats =
        {
          Fixpoint.iterations =
            backward.Passes.stats.Fixpoint.iterations
            + forward.Passes.stats.Fixpoint.iterations;
          sccs = forward.Passes.stats.Fixpoint.sccs;
          levels = forward.Passes.stats.Fixpoint.levels;
        }
      in
      Ok
        {
          r_output = output;
          candidates;
          explanations;
          singles;
          doubles;
          agree;
          agreement_pairs;
          stats;
        }

let circuit_verifier ?(options = Fmea.Injection_fmea.default_options)
    ~reliability ~output (d : Blockdiag.Diagram.t) =
  let { Blockdiag.To_netlist.netlist; block_types; _ } =
    Blockdiag.To_netlist.convert d
  in
  let options =
    { options with Fmea.Injection_fmea.monitored_sensors = Some [ output ] }
  in
  match Fmea.Injection_fmea.prepare ~options netlist with
  | exception Fmea.Injection_fmea.Golden_run_failed why ->
      Error (Printf.sprintf "golden run failed: %s" why)
  | prepared ->
      let lookup = Fmea.Injection_fmea.type_lookup block_types in
      let type_of element =
        match lookup element with Some ty -> ty | None -> element
      in
      Ok
        (fun (mode : Model.mode) ->
          if
            List.exists
              (String.equal mode.Model.m_component)
              options.Fmea.Injection_fmea.exclude
          then `Refuted "component excluded from analysis by assumption"
          else
            let entry =
              Reliability.Reliability_model.find reliability
                (type_of mode.Model.m_component)
            in
            let fault =
              Option.bind entry (fun e ->
                  List.find_map
                    (fun (fm : Reliability.Reliability_model.failure_mode) ->
                      if
                        String.equal fm.Reliability.Reliability_model.fm_name
                          mode.Model.m_name
                      then Some fm.Reliability.Reliability_model.fault
                      else None)
                    e.Reliability.Reliability_model.failure_modes)
            in
            match fault with
            | None | Some None ->
                `Refuted "no fault model for this failure mode"
            | Some (Some fault) -> (
                match
                  Fmea.Injection_fmea.classify_prepared prepared
                    ~element_id:mode.Model.m_component fault
                with
                | `Safety_related sensor -> `Confirmed sensor
                | `No_effect -> `Refuted "no observable effect at the output"
                | `Excluded why -> `Refuted why
                | `Simulation_failed why ->
                    `Refuted (Printf.sprintf "simulation failed: %s" why)))

(* ---------- rendering ---------- *)

let verdict_text = function
  | Structural -> "structural"
  | Confirmed sensor -> Printf.sprintf "confirmed (%s)" sensor
  | Refuted why -> Printf.sprintf "refuted: %s" why

let to_text r =
  let buf = Buffer.create 256 in
  Printf.bprintf buf "diagnosis for output %s\n" r.r_output;
  Printf.bprintf buf "  forward/backward oracle: %s (%d pairs)\n"
    (if r.agree then "agree" else "DISAGREE")
    r.agreement_pairs;
  Printf.bprintf buf "  fixpoint: %d iterations, %d SCCs, %d levels\n"
    r.stats.Fixpoint.iterations r.stats.Fixpoint.sccs r.stats.Fixpoint.levels;
  if r.candidates = [] then
    Buffer.add_string buf "  no failure mode explains this output\n"
  else begin
    Printf.bprintf buf "  candidates (%d):\n" (List.length r.candidates);
    List.iter
      (fun e ->
        Printf.bprintf buf "    %-32s %s\n" e.mode.Model.m_key
          (verdict_text e.verdict))
      r.candidates;
    let pp_sets label = function
      | [] -> Printf.bprintf buf "  %s: none\n" label
      | sets ->
          Printf.bprintf buf "  %s:\n" label;
          List.iter
            (fun cs ->
              Printf.bprintf buf "    {%s}\n" (String.concat ", " cs))
            sets
    in
    pp_sets "minimal single-point explanations" r.singles;
    pp_sets "minimal double-point explanations" r.doubles
  end;
  Buffer.contents buf

let explanation_json e =
  let open Modelio.Json in
  let verdict, detail =
    match e.verdict with
    | Structural -> ("structural", None)
    | Confirmed s -> ("confirmed", Some s)
    | Refuted why -> ("refuted", Some why)
  in
  Object
    ([
       ("component", String e.mode.Model.m_component);
       ("failure_mode", String e.mode.Model.m_name);
       ("verdict", String verdict);
     ]
    @ match detail with None -> [] | Some d -> [ ("detail", String d) ])

let to_json r =
  let open Modelio.Json in
  let cut_set cs = List (List.map (fun a -> String a) cs) in
  Object
    [
      ("output", String r.r_output);
      ("agree", Bool r.agree);
      ("agreement_pairs", Number (float_of_int r.agreement_pairs));
      ( "fixpoint",
        Object
          [
            ("iterations", Number (float_of_int r.stats.Fixpoint.iterations));
            ("sccs", Number (float_of_int r.stats.Fixpoint.sccs));
            ("levels", Number (float_of_int r.stats.Fixpoint.levels));
          ] );
      ("candidates", List (List.map explanation_json r.candidates));
      ("singles", List (List.map cut_set r.singles));
      ("doubles", List (List.map cut_set r.doubles));
    ]

let to_sarif r =
  let open Modelio.Json in
  let rule id title =
    Object
      [
        ("id", String id);
        ("name", String id);
        ("shortDescription", Object [ ("text", String title) ]);
        ("helpUri", String ("DESIGN.md#" ^ String.lowercase_ascii id));
        ( "properties",
          Object [ ("category", String "diagnosis") ] );
      ]
  in
  let result ~rule_id ~level text element =
    Object
      [
        ("ruleId", String rule_id);
        ("level", String level);
        ("message", Object [ ("text", String text) ]);
        ( "locations",
          List
            [
              Object
                [
                  ( "logicalLocations",
                    List [ Object [ ("name", String element) ] ] );
                ];
            ] );
      ]
  in
  let singles =
    List.map
      (fun cs ->
        let atom = String.concat ", " cs in
        result ~rule_id:"DIAG001" ~level:"warning"
          (Printf.sprintf "single-point explanation for %s: %s" r.r_output
             atom)
          atom)
      r.singles
  in
  let doubles =
    List.map
      (fun cs ->
        let atoms = String.concat " + " cs in
        result ~rule_id:"DIAG002" ~level:"note"
          (Printf.sprintf "double-point explanation for %s: %s" r.r_output
             atoms)
          atoms)
      r.doubles
  in
  let refuted =
    List.filter_map
      (fun e ->
        match e.verdict with
        | Refuted why ->
            Some
              (result ~rule_id:"DIAG003" ~level:"note"
                 (Printf.sprintf
                    "candidate %s structurally reaches %s but was refuted: %s"
                    e.mode.Model.m_key r.r_output why)
                 e.mode.Model.m_key)
        | _ -> None)
      r.candidates
  in
  Object
    [
      ("version", String "2.1.0");
      ( "runs",
        List
          [
            Object
              [
                ( "tool",
                  Object
                    [
                      ( "driver",
                        Object
                          [
                            ("name", String "same diagnose");
                            ( "rules",
                              List
                                [
                                  rule "DIAG001" "single-point explanation";
                                  rule "DIAG002" "double-point explanation";
                                  rule "DIAG003" "refuted structural candidate";
                                ] );
                          ] );
                    ] );
                ("results", List (singles @ doubles @ refuted));
              ];
          ] );
    ]
