type deployment = {
  target_component : string;
  target_failure_mode : string;
  mechanism : Reliability.Sm_model.mechanism;
}
[@@deriving eq, show]

let deploy ~component ~failure_mode mechanism =
  { target_component = component; target_failure_mode = failure_mode; mechanism }

let matches (d : deployment) (r : Table.row) =
  String.equal
    (String.lowercase_ascii d.target_component)
    (String.lowercase_ascii r.Table.component)
  && String.equal
       (String.lowercase_ascii d.target_failure_mode)
       (String.lowercase_ascii r.Table.failure_mode)

let apply (t : Table.t) deployments =
  let rows =
    List.map
      (fun (r : Table.row) ->
        let best =
          List.fold_left
            (fun acc d ->
              if matches d r then
                match acc with
                | Some (b : deployment)
                  when b.mechanism.Reliability.Sm_model.coverage_pct
                       >= d.mechanism.Reliability.Sm_model.coverage_pct ->
                    acc
                | Some _ | None -> Some d
              else acc)
            None deployments
        in
        match best with
        | None -> r
        | Some d ->
            Table.make_row ~impact:r.Table.impact
              ~safety_mechanism:d.mechanism.Reliability.Sm_model.sm_name
              ~sm_coverage_pct:d.mechanism.Reliability.Sm_model.coverage_pct
              ?warning:r.Table.warning ~component:r.Table.component
              ~component_fit:r.Table.component_fit
              ~failure_mode:r.Table.failure_mode
              ~distribution_pct:r.Table.distribution_pct
              ~safety_related:r.Table.safety_related ())
      t.Table.rows
  in
  { t with Table.rows }

let total_cost deployments =
  List.fold_left
    (fun acc d -> acc +. d.mechanism.Reliability.Sm_model.cost)
    0.0 deployments

let auto_deploy ?(component_types = []) (t : Table.t) sm_model =
  let type_of = Injection_fmea.type_lookup component_types in
  List.filter_map
    (fun (r : Table.row) ->
      if not r.Table.safety_related then None
      else
        let ctype =
          match type_of r.Table.component with
          | Some ty -> ty
          | None -> r.Table.component
        in
        let candidates =
          Reliability.Sm_model.applicable sm_model ~component_type:ctype
            ~failure_mode:r.Table.failure_mode
        in
        let best =
          List.fold_left
            (fun acc (m : Reliability.Sm_model.mechanism) ->
              match acc with
              | None -> Some m
              | Some (b : Reliability.Sm_model.mechanism) ->
                  if
                    m.Reliability.Sm_model.coverage_pct
                    > b.Reliability.Sm_model.coverage_pct
                    || (m.Reliability.Sm_model.coverage_pct
                        = b.Reliability.Sm_model.coverage_pct
                       && m.Reliability.Sm_model.cost < b.Reliability.Sm_model.cost)
                  then Some m
                  else acc)
            None candidates
        in
        Option.map
          (fun m ->
            deploy ~component:r.Table.component ~failure_mode:r.Table.failure_mode
              m)
          best)
    t.Table.rows
