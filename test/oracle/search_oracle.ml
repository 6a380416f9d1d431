(* Reference implementations of the Step 4b searches: every candidate
   is scored by [Optimize.Search.evaluate] ([Fmeda.apply] over the whole
   table, then [Metrics.spfm]), the exhaustive space is the recursive
   list expansion, and greedy scores every move from scratch.  The
   library's searches must agree with these bit for bit; the tests and
   the bench both check that. *)

open Optimize.Search

let deploy s m =
  Fmea.Fmeda.deploy ~component:s.slot_component
    ~failure_mode:s.slot_failure_mode m

(* First slot most significant, "deploy nothing" first. *)
let rec combinations = function
  | [] -> [ [] ]
  | s :: rest ->
      let tails = combinations rest in
      tails
      @ List.concat_map
          (fun m -> List.map (fun t -> deploy s m :: t) tails)
          s.slot_options

let count slots =
  List.fold_left
    (fun acc s ->
      let r = List.length s.slot_options + 1 in
      if acc > max_int / r then max_int else acc * r)
    1 slots

let exhaustive ?component_types table sms =
  List.map (evaluate table)
    (combinations (slots ?component_types table sms))

let greedy ?component_types ~target table sms =
  let all_slots = slots ?component_types table sms in
  let met spfm =
    match Fmea.Asil.spfm_target target with
    | None -> true
    | Some t -> spfm >= t
  in
  let slot_matches s (d : Fmea.Fmeda.deployment) =
    String.equal d.Fmea.Fmeda.target_component s.slot_component
    && String.equal d.Fmea.Fmeda.target_failure_mode s.slot_failure_mode
  in
  let rec step current =
    let now = evaluate table current in
    if met now.spfm_pct then now
    else
      let moves =
        List.concat_map
          (fun s ->
            let existing = List.find_opt (slot_matches s) current in
            let others = List.filter (fun d -> not (slot_matches s d)) current in
            List.filter_map
              (fun (m : Reliability.Sm_model.mechanism) ->
                match existing with
                | Some d when d.Fmea.Fmeda.mechanism = m -> None
                | _ ->
                    let next = evaluate table (deploy s m :: others) in
                    let gain = next.spfm_pct -. now.spfm_pct in
                    let cost_delta =
                      m.Reliability.Sm_model.cost
                      -.
                      match existing with
                      | Some e -> e.Fmea.Fmeda.mechanism.Reliability.Sm_model.cost
                      | None -> 0.0
                    in
                    Some (next.deployments, gain, gain /. Float.max cost_delta 0.01))
              s.slot_options)
          all_slots
      in
      let best =
        List.fold_left
          (fun acc (next, gain, score) ->
            if gain <= 0.0 then acc
            else
              match acc with
              | Some (_, best_score) when best_score >= score -> acc
              | Some _ | None -> Some (next, score))
          None moves
      in
      match best with None -> now | Some (next, _) -> step next
  in
  step []

let optimise ?component_types ~target table sms =
  if count (slots ?component_types table sms) > 2_000_000 then
    let g = greedy ?component_types ~target table sms in
    (Some g, [ g ])
  else
    let all = exhaustive ?component_types table sms in
    (cheapest_meeting ~target all, pareto_front all)

(* Candidates equal bit for bit: deployments in order, SPFM and cost
   compared through their IEEE bits. *)
let identical a b =
  let bits f = Int64.bits_of_float f in
  List.equal Fmea.Fmeda.equal_deployment a.deployments b.deployments
  && Int64.equal (bits a.spfm_pct) (bits b.spfm_pct)
  && Int64.equal (bits a.cost) (bits b.cost)

(* The FMEA table a plain [same fmeda] computes for a subject: every
   sensor observes, so System B's 65 slots overflow the exhaustive
   budget and [optimise] runs greedy. *)
let all_sensors_fmea (s : Decisive.Systems.subject) =
  let conv = Decisive.Systems.analysable s in
  Fmea.Injection_fmea.analyse
    ~options:
      { Fmea.Injection_fmea.default_options with exclude = [ "DC1"; "BAT1" ] }
    ~element_types:conv.Blockdiag.To_netlist.block_types
    conv.Blockdiag.To_netlist.netlist s.Decisive.Systems.reliability
