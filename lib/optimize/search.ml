type candidate = {
  deployments : Fmea.Fmeda.deployment list;
  spfm_pct : float;
  cost : float;
}
[@@deriving eq, show]

type slot = {
  slot_component : string;
  slot_failure_mode : string;
  slot_options : Reliability.Sm_model.mechanism list;
}

let slots ?(component_types = []) (table : Fmea.Table.t) sm_model =
  let type_of = Fmea.Injection_fmea.type_lookup component_types in
  List.filter_map
    (fun (r : Fmea.Table.row) ->
      if not r.Fmea.Table.safety_related then None
      else
        let ctype =
          match type_of r.Fmea.Table.component with
          | Some ty -> ty
          | None -> r.Fmea.Table.component
        in
        let options =
          Reliability.Sm_model.applicable sm_model ~component_type:ctype
            ~failure_mode:r.Fmea.Table.failure_mode
        in
        if options = [] then None
        else
          Some
            {
              slot_component = r.Fmea.Table.component;
              slot_failure_mode = r.Fmea.Table.failure_mode;
              slot_options = options;
            })
    table.Fmea.Table.rows

let evaluate table deployments =
  let fmeda = Fmea.Fmeda.apply table deployments in
  {
    deployments;
    spfm_pct = Fmea.Metrics.spfm fmeda;
    cost = Fmea.Fmeda.total_cost deployments;
  }

(* ---------- incremental SPFM evaluation ----------

   [evaluate] re-runs [Fmeda.apply] over the whole table: every row is
   string-matched against every deployment, O(rows × deployments) per
   candidate.  The evaluator flattens the safety-related components' rows
   once and indexes them by lowercased (component, failure mode) — the
   key [Fmeda.matches] compares — so a deployment finds its rows with one
   lookup and the search loops resolve every slot to its key before they
   start.  A scoring [state] holds each row's single-point FIT and each
   component's sum; changing the deployments of one key rewrites that
   key's rows and re-sums only the components they belong to.  Folds
   replay [Metrics.compute]'s order exactly (row order within a
   component, first-SR-appearance order across components), so every
   score is bit-identical to [evaluate]. *)

(* Components are the SR ones in first-appearance order; rows are theirs,
   flattened component by component, each in table order. *)
type evaluator = {
  ev_comp_start : int array;  (* [c] owns rows [start.(c), start.(c+1)) *)
  ev_comp_base : float array;  (* the component's table single-point sum *)
  ev_sr_fit : float;  (* fold of the components' FITs *)
  ev_row_sr : bool array;
  ev_row_base : float array;  (* the row's single_point_fit in the table *)
  ev_row_share : float array;  (* λ share of the failure mode (SR rows) *)
  ev_keys : (string * string, int) Hashtbl.t;  (* lowercased key -> id *)
  ev_key_rows : int array array;  (* ascending; last id: absent keys *)
  ev_key_comps : int array array;  (* ascending, distinct *)
}

(* Component [c]'s sum of [values] over its rows, in row order. *)
let sum_rows comp_start values c =
  let acc = ref 0.0 in
  for pos = comp_start.(c) to comp_start.(c + 1) - 1 do
    acc := !acc +. values.(pos)
  done;
  !acc

let make_evaluator (table : Fmea.Table.t) =
  let components =
    Array.of_list
      (List.map (Fmea.Table.rows_for table)
         (Fmea.Table.safety_related_components table))
  in
  let n_comps = Array.length components in
  let comp_start = Array.make (n_comps + 1) 0 in
  Array.iteri
    (fun c rows -> comp_start.(c + 1) <- comp_start.(c) + List.length rows)
    components;
  let rows = Array.of_list (List.concat (Array.to_list components)) in
  let row_comp = Array.make (Array.length rows) 0 in
  for c = 0 to n_comps - 1 do
    Array.fill row_comp comp_start.(c) (comp_start.(c + 1) - comp_start.(c)) c
  done;
  let keys = Hashtbl.create 64 in
  let row_key =
    Array.map
      (fun (r : Fmea.Table.row) ->
        let key =
          ( String.lowercase_ascii r.Fmea.Table.component,
            String.lowercase_ascii r.Fmea.Table.failure_mode )
        in
        match Hashtbl.find_opt keys key with
        | Some k -> k
        | None ->
            let k = Hashtbl.length keys in
            Hashtbl.add keys key k;
            k)
      rows
  in
  let key_rows = Array.make (Hashtbl.length keys + 1) [] in
  for pos = Array.length rows - 1 downto 0 do
    key_rows.(row_key.(pos)) <- pos :: key_rows.(row_key.(pos))
  done;
  let comp_fit =
    Array.map
      (function
        | (r : Fmea.Table.row) :: _ -> r.Fmea.Table.component_fit | [] -> 0.0)
      components
  in
  let row_base =
    Array.map (fun (r : Fmea.Table.row) -> r.Fmea.Table.single_point_fit) rows
  in
  {
    ev_comp_start = comp_start;
    ev_comp_base = Array.init n_comps (sum_rows comp_start row_base);
    ev_sr_fit = Array.fold_left ( +. ) 0.0 comp_fit;
    ev_row_sr =
      Array.map (fun (r : Fmea.Table.row) -> r.Fmea.Table.safety_related) rows;
    ev_row_base = row_base;
    ev_row_share =
      Array.map
        (fun (r : Fmea.Table.row) ->
          if r.Fmea.Table.safety_related then
            Reliability.Fit.share r.Fmea.Table.component_fit
              ~distribution_pct:r.Fmea.Table.distribution_pct
          else 0.0)
        rows;
    ev_keys = keys;
    ev_key_rows = Array.map Array.of_list key_rows;
    ev_key_comps =
      Array.map
        (fun positions ->
          (* Rows ascend, so their components do: drop repeats. *)
          List.fold_right
            (fun pos acc ->
              match acc with
              | c :: _ when c = row_comp.(pos) -> acc
              | _ -> row_comp.(pos) :: acc)
            positions []
          |> Array.of_list)
        key_rows;
  }

(* The key a deployment on (component, failure mode) matches; names the
   table does not have map to the trailing key, which covers no row. *)
let key_of ev component failure_mode =
  match
    Hashtbl.find_opt ev.ev_keys
      (String.lowercase_ascii component, String.lowercase_ascii failure_mode)
  with
  | Some k -> k
  | None -> Array.length ev.ev_key_rows - 1

type state = { row_spf : float array; comp_spf : float array }

let initial_state ev =
  { row_spf = Array.copy ev.ev_row_base; comp_spf = Array.copy ev.ev_comp_base }

(* [Fmeda.apply]'s choice among the deployments matching a row, folded in
   deployment-list order: highest coverage wins, the first deployment
   wins coverage ties. *)
let better acc (d : Fmea.Fmeda.deployment) =
  match acc with
  | Some (b : Fmea.Fmeda.deployment)
    when b.Fmea.Fmeda.mechanism.Reliability.Sm_model.coverage_pct
         >= d.Fmea.Fmeda.mechanism.Reliability.Sm_model.coverage_pct ->
      acc
  | Some _ | None -> Some d

(* Give key [k]'s rows their single-point FIT under [best], the winning
   deployment ([None]: the table's own value), and re-sum the components
   those rows belong to. *)
let set_key ev st k best =
  let rows = ev.ev_key_rows.(k) in
  for i = 0 to Array.length rows - 1 do
    let pos = rows.(i) in
    st.row_spf.(pos) <-
      (match best with
      | None -> ev.ev_row_base.(pos)
      | Some (d : Fmea.Fmeda.deployment) ->
          if ev.ev_row_sr.(pos) then
            Reliability.Fit.residual ev.ev_row_share.(pos)
              ~coverage_pct:d.Fmea.Fmeda.mechanism.Reliability.Sm_model.coverage_pct
          else 0.0)
  done;
  Array.iter
    (fun c -> st.comp_spf.(c) <- sum_rows ev.ev_comp_start st.row_spf c)
    ev.ev_key_comps.(k)

let spfm ev st =
  let single_point_fit = Array.fold_left ( +. ) 0.0 st.comp_spf in
  if ev.ev_sr_fit <= 0.0 then 100.0
  else 100.0 *. (1.0 -. (single_point_fit /. ev.ev_sr_fit))

let evaluate_with ev deployments =
  let best = Array.make (Array.length ev.ev_key_rows) None in
  List.iter
    (fun (d : Fmea.Fmeda.deployment) ->
      let k =
        key_of ev d.Fmea.Fmeda.target_component
          d.Fmea.Fmeda.target_failure_mode
      in
      best.(k) <- better best.(k) d)
    deployments;
  let st = initial_state ev in
  Array.iteri (fun k b -> if Option.is_some b then set_key ev st k b) best;
  {
    deployments;
    spfm_pct = spfm ev st;
    cost = Fmea.Fmeda.total_cost deployments;
  }

let evaluator_for ?evaluator table =
  match evaluator with Some ev -> ev | None -> make_evaluator table

(* Each slot's key and its deployments, one per option. *)
let resolve ev slots =
  ( Array.map (fun s -> key_of ev s.slot_component s.slot_failure_mode) slots,
    Array.map
      (fun s ->
        Array.of_list
          (List.map
             (Fmea.Fmeda.deploy ~component:s.slot_component
                ~failure_mode:s.slot_failure_mode)
             s.slot_options))
      slots )

(* ---------- streaming exhaustive enumeration ----------

   The combination space is a mixed-radix counter: slot [i] contributes
   a digit in [0 .. length slot_options], digit 0 meaning "deploy
   nothing" and digit [j] the [j-1]-th option; the {e first} slot is the
   most significant digit.  Counting 0, 1, 2, … reproduces, candidate
   for candidate, the order the old list-based expansion
   ([without @ with_each]) produced — so every downstream tie-break
   (Pareto sweep stability, cheapest-meeting "first wins") is
   bit-identical — without ever materialising the combination list.  A
   step of the counter changes a suffix of the digits, usually just the
   last one; only the keys of the changed slots are rescored, and the
   cost is refolded from the first changed slot on, against a running
   prefix of [total_cost]'s fold. *)

let default_max_combinations = 2_000_000

(* Combination count with saturation (33 slots of 3 options already
   overflow 63-bit ints). *)
let combination_count slots =
  Array.fold_left
    (fun acc s ->
      let r = List.length s.slot_options + 1 in
      if acc > max_int / r then max_int else acc * r)
    1 slots

let fold_combinations ev slots combinations ~init ~f =
  let keys, options = resolve ev slots in
  let n = Array.length slots in
  (* The slots sharing each key, in slot order: the deployment-list order
     [better] folds over. *)
  let key_slots = Array.make (Array.length ev.ev_key_rows) [] in
  for i = n - 1 downto 0 do
    key_slots.(keys.(i)) <- i :: key_slots.(keys.(i))
  done;
  let digits = Array.make n 0 in
  let deployed i = options.(i).(digits.(i) - 1) in
  (* [cost.(i)]: [total_cost] folded over the deployments of slots < i. *)
  let cost = Array.make (n + 1) 0.0 in
  let st = initial_state ev in
  let rescored = Array.make (Array.length key_slots) (-1) in
  let emit acc =
    let rec deployments i tail =
      if i < 0 then tail
      else
        deployments (i - 1)
          (if digits.(i) = 0 then tail else deployed i :: tail)
    in
    f acc
      {
        deployments = deployments (n - 1) [];
        spfm_pct = spfm ev st;
        cost = cost.(n);
      }
  in
  let acc = ref (emit init) in
  for step = 1 to combinations - 1 do
    let low = ref (n - 1) in
    while digits.(!low) = Array.length options.(!low) do
      digits.(!low) <- 0;
      decr low
    done;
    digits.(!low) <- digits.(!low) + 1;
    for i = !low to n - 1 do
      let k = keys.(i) in
      if rescored.(k) <> step then begin
        rescored.(k) <- step;
        set_key ev st k
          (List.fold_left
             (fun acc j ->
               if digits.(j) = 0 then acc else better acc (deployed j))
             None key_slots.(k))
      end;
      cost.(i + 1) <-
        (if digits.(i) = 0 then cost.(i)
         else
           cost.(i)
           +. (deployed i).Fmea.Fmeda.mechanism.Reliability.Sm_model.cost)
    done;
    acc := emit !acc
  done;
  !acc

let exhaustive_fold ?(component_types = [])
    ?(max_combinations = default_max_combinations) ?evaluator table sm_model
    ~init ~f =
  let slots = Array.of_list (slots ~component_types table sm_model) in
  let combinations = combination_count slots in
  if combinations > max_combinations then
    invalid_arg
      (Printf.sprintf
         "Search.exhaustive: %d combinations exceed the limit of %d"
         combinations max_combinations);
  fold_combinations (evaluator_for ?evaluator table) slots combinations ~init ~f

let exhaustive ?(component_types = []) ?(max_combinations = 200_000) ?evaluator
    table sm_model =
  List.rev
    (exhaustive_fold ~component_types ~max_combinations ?evaluator table
       sm_model ~init:[] ~f:(fun acc c -> c :: acc))

(* ---------- greedy ----------

   Each step scores every move — deploy a mechanism on an empty slot, or
   swap the one on an occupied slot — and takes the best SPFM gain per
   added cost (upgrades count only the cost delta, floored so free or
   cheaper upgrades are strongly preferred; the first move wins score
   ties).  A move changes the deployments of one key only, so it is
   scored by rescoring that key on the current state and undoing it.

   The current deployment list keeps the historical order (the move just
   taken first, the rest in their previous order): [Fmeda.apply]'s
   coverage ties and [total_cost]'s fold both follow it.  A move replaces
   whatever deployment carries its slot's exact (component, failure mode)
   names; [group] identifies slots by those names. *)

let greedy_search ev ~target slots =
  let target_spfm = Fmea.Asil.spfm_target target in
  let met spfm = match target_spfm with None -> true | Some t -> spfm >= t in
  let keys, options = resolve ev slots in
  let n = Array.length slots in
  let group =
    let first = Hashtbl.create n in
    Array.mapi
      (fun i s ->
        let names = (s.slot_component, s.slot_failure_mode) in
        match Hashtbl.find_opt first names with
        | Some g -> g
        | None ->
            Hashtbl.add first names i;
            i)
      slots
  in
  let st = initial_state ev in
  let best_of entries =
    List.fold_left (fun acc (_, _, d) -> better acc d) None entries
  in
  (* [current]: (group, key, deployment), in deployment-list order. *)
  let rec step current spfm_now =
    if met spfm_now then (current, spfm_now)
    else begin
      let by_key = Array.make (Array.length ev.ev_key_rows) [] in
      List.iter
        (fun ((_, k, _) as e) -> by_key.(k) <- e :: by_key.(k))
        (List.rev current);
      let best = ref None in
      for i = 0 to n - 1 do
        let k = keys.(i) and g = group.(i) in
        let existing = List.find_opt (fun (g', _, _) -> g' = g) current in
        let others = List.filter (fun (g', _, _) -> g' <> g) by_key.(k) in
        let undo = best_of by_key.(k) in
        let existing_cost =
          match existing with
          | Some (_, _, (e : Fmea.Fmeda.deployment)) ->
              e.Fmea.Fmeda.mechanism.Reliability.Sm_model.cost
          | None -> 0.0
        in
        Array.iteri
          (fun j (d : Fmea.Fmeda.deployment) ->
            let already =
              match existing with
              | Some (_, _, (e : Fmea.Fmeda.deployment)) ->
                  e.Fmea.Fmeda.mechanism = d.Fmea.Fmeda.mechanism
              | None -> false
            in
            if not already then begin
              set_key ev st k (best_of ((g, k, d) :: others));
              let gain = spfm ev st -. spfm_now in
              set_key ev st k undo;
              let cost_delta =
                d.Fmea.Fmeda.mechanism.Reliability.Sm_model.cost
                -. existing_cost
              in
              let score = gain /. Float.max cost_delta 0.01 in
              if not (gain <= 0.0) then
                match !best with
                | Some (best_score, _, _) when best_score >= score -> ()
                | Some _ | None -> best := Some (score, i, j)
            end)
          options.(i)
      done;
      match !best with
      | None -> (current, spfm_now) (* no mechanism helps further *)
      | Some (_, i, j) ->
          let g = group.(i) and k = keys.(i) in
          let next =
            (g, k, options.(i).(j))
            :: List.filter (fun (g', _, _) -> g' <> g) current
          in
          set_key ev st k
            (best_of (List.filter (fun (_, k', _) -> k' = k) next));
          step next (spfm ev st)
    end
  in
  let current, spfm_pct = step [] (spfm ev st) in
  let deployments = List.map (fun (_, _, d) -> d) current in
  { deployments; spfm_pct; cost = Fmea.Fmeda.total_cost deployments }

let greedy ?(component_types = []) ?evaluator ~target table sm_model =
  greedy_search (evaluator_for ?evaluator table) ~target
    (Array.of_list (slots ~component_types table sm_model))

(* Sort by ascending cost (descending SPFM within equal cost; stable, so
   the earliest candidate wins ties) and sweep: a candidate survives iff
   its SPFM strictly beats everything cheaper-or-equal already kept.
   O(n log n) — the exhaustive search can emit tens of thousands of
   candidates, so the naive pairwise check is far too slow. *)
let pareto_front candidates =
  let sorted =
    List.stable_sort
      (fun a b ->
        match Float.compare a.cost b.cost with
        | 0 -> Float.compare b.spfm_pct a.spfm_pct
        | n -> n)
      candidates
  in
  let front, _ =
    List.fold_left
      (fun (kept, best_spfm) c ->
        if c.spfm_pct > best_spfm then (c :: kept, c.spfm_pct)
        else (kept, best_spfm))
      ([], Float.neg_infinity) sorted
  in
  List.rev front

(* One step of the cheapest-meeting fold — shared between the list-based
   entry point and the streaming optimiser so both apply the identical
   "cheaper wins, higher SPFM breaks cost ties, first wins exact ties"
   rule in candidate order. *)
let cheapest_step ~meets acc c =
  if not (meets c) then acc
  else
    match acc with
    | None -> Some c
    | Some best ->
        if c.cost < best.cost || (c.cost = best.cost && c.spfm_pct > best.spfm_pct)
        then Some c
        else acc

let cheapest_meeting ~target candidates =
  let target_spfm = Fmea.Asil.spfm_target target in
  let meets c =
    match target_spfm with None -> true | Some t -> c.spfm_pct >= t
  in
  List.fold_left (cheapest_step ~meets) None candidates

(* Online Pareto maintenance.  The front is kept sorted by ascending
   cost with strictly increasing SPFM, so a fold of [front_insert] over
   any candidate sequence ends in exactly [pareto_front] of that
   sequence: a new candidate is dropped iff some earlier-kept candidate
   is cheaper-or-equal with at least its SPFM (which also encodes the
   "first candidate wins exact ties" rule — the incumbent was folded
   first), and otherwise evicts the now-dominated suffix it supersedes.
   Dropped candidates can never re-enter a batch front, so discarding
   them immediately is lossless — this is what lets {!optimise} stream
   millions of combinations at flat memory. *)
let front_insert front c =
  if
    List.exists
      (fun f -> f.cost <= c.cost && f.spfm_pct >= c.spfm_pct)
      front
  then front
  else
    let rec ins = function
      | [] -> [ c ]
      | f :: rest ->
          if f.cost < c.cost then f :: ins rest
          else c :: List.filter (fun g -> g.spfm_pct > c.spfm_pct) (f :: rest)
    in
    ins front

let optimise ?(component_types = []) ?evaluator ~target table sm_model =
  let slots = Array.of_list (slots ~component_types table sm_model) in
  let ev = evaluator_for ?evaluator table in
  let combinations = combination_count slots in
  if combinations > default_max_combinations then
    let g = greedy_search ev ~target slots in
    (Some g, [ g ])
  else
    let target_spfm = Fmea.Asil.spfm_target target in
    let meets c =
      match target_spfm with None -> true | Some t -> c.spfm_pct >= t
    in
    fold_combinations ev slots combinations ~init:(None, [])
      ~f:(fun (best, front) c ->
        (cheapest_step ~meets best c, front_insert front c))
