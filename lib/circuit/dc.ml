type error = Singular_system of string | No_convergence of int

let pp_error ppf = function
  | Singular_system what ->
      Format.fprintf ppf "singular MNA system (%s)" what
  | No_convergence n ->
      Format.fprintf ppf "Newton iteration did not converge in %d steps" n

let closed_switch_resistance = 1e-3

(* Junction-voltage critical value above which the exponential is
   linearised to avoid overflow (SPICE's pnjlim idea, simplified). *)
let junction_limit (p : Element.diode_params) v =
  let vt = p.Element.thermal_voltage *. p.Element.emission in
  let vcrit = vt *. log (vt /. (Float.sqrt 2.0 *. p.Element.saturation_current)) in
  if v > vcrit then vcrit +. (vt *. log (1.0 +. ((v -. vcrit) /. vt)))
  else v

let diode_current (p : Element.diode_params) v =
  let vt = p.Element.thermal_voltage *. p.Element.emission in
  let v = junction_limit p v in
  p.Element.saturation_current *. (exp (v /. vt) -. 1.0)

(* True derivative of [diode_current], including the limiter's chain-rule
   factor — an inconsistent Jacobian makes Newton oscillate around the
   operating point instead of converging. *)
let diode_conductance (p : Element.diode_params) v =
  let vt = p.Element.thermal_voltage *. p.Element.emission in
  let vcrit =
    vt *. log (vt /. (Float.sqrt 2.0 *. p.Element.saturation_current))
  in
  let vl = junction_limit p v in
  let limiter_slope =
    if v > vcrit then 1.0 /. (1.0 +. ((v -. vcrit) /. vt)) else 1.0
  in
  p.Element.saturation_current /. vt *. exp (vl /. vt) *. limiter_slope

(* ---------- prepared netlists ----------

   Everything that depends only on the topology — node/branch numbering,
   element partitioning and the stamps of the *linear* devices — is
   computed once per netlist and reused by every Newton iteration.
   Iterations then copy the base system and restamp only the diode
   companion entries, instead of re-walking the element list with
   hashtable lookups per rebuild.

   The base system is assembled in triplet form and then lowered to
   either a dense matrix (small systems — the O(n³) constant is tiny and
   cache-friendly) or CSR with a cached minimum-degree ordering (large
   systems, where dense factorisation is almost entirely wasted work on
   structural zeros).  Diode companion stamps get explicit zero triplets
   so the sparse pattern — and therefore the cached ordering and the
   per-diode value indices — is stable across Newton iterations. *)

type backend = [ `Auto | `Dense | `Sparse ]

(* Above this many unknowns the sparse path wins even for one-shot
   solves; below it the dense kernel's low constant dominates. *)
let sparse_threshold = 128

type base =
  | Dense_base of Numeric.Matrix.t
  | Sparse_base of {
      s_a : Numeric.Sparse.t;
      s_order : int array; (* cached fill-reducing ordering *)
      (* Per diode, the CSR value positions of its four companion stamps
         as (value index, ±1) — filled per Newton iteration. *)
      s_diode_pos : (int * float) array array;
    }

type prepared = {
  elements : Element.t array;
  n_nodes : int;
  size : int;
  (* Node name -> unknown index (ground absent), element id -> position
     in [elements]: hashed once per named query or injected element;
     building a solution and reading its observables never hash. *)
  node_index : (string, int) Hashtbl.t;
  element_index : (string, int) Hashtbl.t;
  (* Per-element resolved unknown indices: None = ground. *)
  el_a : int option array;
  el_b : int option array;
  (* MNA branch row per element, -1 when the element has none. *)
  el_branch : int array;
  (* Diodes as (element index, params); restamped each iteration. *)
  diodes : (int * Element.diode_params) array;
  base : base;
  base_b : float array;
}

let size p = p.size

let backend_used p =
  match p.base with Dense_base _ -> `Dense | Sparse_base _ -> `Sparse

let prepare ?(gmin = 1e-9) ?(backend = `Auto) netlist =
  let elements = Array.of_list (Netlist.elements netlist) in
  let node_names = Netlist.nodes netlist in
  let n_nodes = List.length node_names in
  let node_index = Hashtbl.create n_nodes in
  List.iteri (fun i n -> Hashtbl.add node_index n i) node_names;
  let n_elements = Array.length elements in
  let element_index = Hashtbl.create n_elements in
  Array.iteri
    (fun i (e : Element.t) -> Hashtbl.replace element_index e.Element.id i)
    elements;
  let el_branch = Array.make n_elements (-1) in
  let next_branch = ref n_nodes in
  Array.iteri
    (fun i (e : Element.t) ->
      if Element.is_branch_element e.Element.kind then begin
        el_branch.(i) <- !next_branch;
        incr next_branch
      end)
    elements;
  let size = !next_branch in
  let node n =
    if String.equal n Netlist.ground then None else Hashtbl.find_opt node_index n
  in
  let el_a =
    Array.map (fun (e : Element.t) -> node e.Element.node_a) elements
  in
  let el_b =
    Array.map (fun (e : Element.t) -> node e.Element.node_b) elements
  in
  let diodes = ref [] in
  let trip = Numeric.Sparse.create size in
  let b = Numeric.Vector.create size in
  let stamp_conductance ia ib g =
    (match ia with Some i -> Numeric.Sparse.add_to trip i i g | None -> ());
    (match ib with Some j -> Numeric.Sparse.add_to trip j j g | None -> ());
    match (ia, ib) with
    | Some i, Some j ->
        Numeric.Sparse.add_to trip i j (-.g);
        Numeric.Sparse.add_to trip j i (-.g)
    | _ -> ()
  in
  let stamp_current_source ia ib amps =
    (* amps flows a -> b inside the source, i.e. out of node b. *)
    (match ia with Some i -> b.(i) <- b.(i) -. amps | None -> ());
    match ib with Some j -> b.(j) <- b.(j) +. amps | None -> ()
  in
  let stamp_voltage_branch k ia ib volts =
    (match ia with
    | Some i ->
        Numeric.Sparse.add_to trip i k 1.0;
        Numeric.Sparse.add_to trip k i 1.0
    | None -> ());
    (match ib with
    | Some j ->
        Numeric.Sparse.add_to trip j k (-1.0);
        Numeric.Sparse.add_to trip k j (-1.0)
    | None -> ());
    b.(k) <- b.(k) +. volts
  in
  Array.iteri
    (fun idx (e : Element.t) ->
      let ia = el_a.(idx) and ib = el_b.(idx) in
      match e.Element.kind with
      | Element.Resistor r | Element.Load r -> stamp_conductance ia ib (1.0 /. r)
      | Element.Switch true ->
          stamp_conductance ia ib (1.0 /. closed_switch_resistance)
      | Element.Switch false | Element.Capacitor _ | Element.Voltage_sensor -> ()
      | Element.Isource amps -> stamp_current_source ia ib amps
      | Element.Vsource volts -> stamp_voltage_branch el_branch.(idx) ia ib volts
      | Element.Inductor _ -> stamp_voltage_branch el_branch.(idx) ia ib 0.0
      | Element.Current_sensor -> stamp_voltage_branch el_branch.(idx) ia ib 0.0
      | Element.Diode p ->
          (* Reserve the companion stamp positions with explicit zeros so
             the compressed pattern covers them. *)
          stamp_conductance ia ib 0.0;
          diodes := (idx, p) :: !diodes)
    elements;
  (* gmin to ground for solvability under fault injection. *)
  for i = 0 to n_nodes - 1 do
    Numeric.Sparse.add_to trip i i gmin
  done;
  let diodes = Array.of_list (List.rev !diodes) in
  let sa = Numeric.Sparse.compress trip in
  let chosen =
    match backend with
    | `Dense -> `Dense
    | `Sparse -> `Sparse
    | `Auto -> if size >= sparse_threshold then `Sparse else `Dense
  in
  let base =
    match chosen with
    | `Dense -> Dense_base (Numeric.Sparse.to_dense sa)
    | `Sparse ->
        let pos i j =
          match Numeric.Sparse.index sa i j with
          | Some p -> p
          | None -> assert false (* reserved above *)
        in
        let s_diode_pos =
          Array.map
            (fun (idx, _) ->
              let ia = el_a.(idx) and ib = el_b.(idx) in
              let entries = ref [] in
              (match ia with
              | Some i -> entries := (pos i i, 1.0) :: !entries
              | None -> ());
              (match ib with
              | Some j -> entries := (pos j j, 1.0) :: !entries
              | None -> ());
              (match (ia, ib) with
              | Some i, Some j ->
                  entries := (pos i j, -1.0) :: (pos j i, -1.0) :: !entries
              | _ -> ());
              Array.of_list !entries)
            diodes
        in
        Sparse_base { s_a = sa; s_order = Numeric.Sparse.min_degree_order sa; s_diode_pos }
  in
  {
    elements;
    n_nodes;
    size;
    node_index;
    element_index;
    el_a;
    el_b;
    el_branch;
    diodes;
    base;
    base_b = b;
  }

(* ---------- assembly and raw solves ---------- *)

type assembled =
  | A_dense of Numeric.Matrix.t
  | A_sparse of Numeric.Sparse.t

let node_v v_guess = function Some i -> v_guess.(i) | None -> 0.0

let diode_companion p v_guess idx (prm : Element.diode_params) =
  (* Newton companion model: conductance g and current source
     i_eq = i(v) - g v, in parallel a -> b. *)
  let v = node_v v_guess p.el_a.(idx) -. node_v v_guess p.el_b.(idx) in
  let g = Float.max (diode_conductance prm v) 1e-12 in
  let i_eq = (diode_current prm v) -. (g *. v) in
  (g, i_eq)

(* The MNA system at a given diode-voltage guess.  Linear circuits reuse
   the base arrays directly; circuits with diodes copy and restamp only
   the companion entries. *)
let assemble p v_guess =
  if Array.length p.diodes = 0 then
    ( (match p.base with
      | Dense_base a -> A_dense a
      | Sparse_base { s_a; _ } -> A_sparse s_a),
      p.base_b )
  else begin
    let b = Array.copy p.base_b in
    let stamp_rhs idx i_eq =
      (match p.el_a.(idx) with
      | Some i -> b.(i) <- b.(i) -. i_eq
      | None -> ());
      match p.el_b.(idx) with
      | Some j -> b.(j) <- b.(j) +. i_eq
      | None -> ()
    in
    let a =
      match p.base with
      | Dense_base base_a ->
          let a = Numeric.Matrix.copy base_a in
          Array.iter
            (fun (idx, prm) ->
              let g, i_eq = diode_companion p v_guess idx prm in
              let ia = p.el_a.(idx) and ib = p.el_b.(idx) in
              (match ia with
              | Some i -> Numeric.Matrix.add_to a i i g
              | None -> ());
              (match ib with
              | Some j -> Numeric.Matrix.add_to a j j g
              | None -> ());
              (match (ia, ib) with
              | Some i, Some j ->
                  Numeric.Matrix.add_to a i j (-.g);
                  Numeric.Matrix.add_to a j i (-.g)
              | _ -> ());
              stamp_rhs idx i_eq)
            p.diodes;
          A_dense a
      | Sparse_base { s_a; s_diode_pos; _ } ->
          let a = Numeric.Sparse.copy s_a in
          Array.iteri
            (fun di (idx, prm) ->
              let g, i_eq = diode_companion p v_guess idx prm in
              Array.iter
                (fun (vi, sign) -> Numeric.Sparse.add_to_value a vi (sign *. g))
                s_diode_pos.(di);
              stamp_rhs idx i_eq)
            p.diodes;
          A_sparse a
    in
    (a, b)
  end

let singular_error k =
  Singular_system (Printf.sprintf "pivot failure at unknown %d" k)

let solve_assembled p a b =
  match a with
  | A_dense m -> (
      (* [Lu.solve] copies its inputs, so the base system survives. *)
      match Numeric.Lu.solve m b with
      | x -> Ok x
      | exception Numeric.Lu.Singular k -> Error (singular_error k))
  | A_sparse s -> (
      let order =
        match p.base with
        | Sparse_base { s_order; _ } -> s_order
        | Dense_base _ -> assert false
      in
      match Numeric.Sparse.solve ~order s b with
      | x -> Ok x
      | exception Numeric.Lu.Singular k -> Error (singular_error k))

(* ---------- Newton iteration ---------- *)

let reltol = 1e-6
let vntol = 1e-6

(* Generic damped Newton driver shared by the prepared solve (dense or
   sparse base) and the golden-factor injection re-solve.  [solve_once]
   produces the next iterate from the current guess. *)
let newton_loop ~max_iterations ~max_step ~n_nodes solve_once guess0 =
  let rec go v_guess iter =
    if iter > max_iterations then Error (No_convergence max_iterations)
    else
      match solve_once v_guess with
      | Error _ as e -> e
      | Ok x ->
          (* Damp the node-voltage update to keep the diode exponential
             stable. *)
          let damped = Array.copy x in
          for i = 0 to n_nodes - 1 do
            let dv = x.(i) -. v_guess.(i) in
            if Float.abs dv > max_step then
              damped.(i) <- v_guess.(i) +. (if dv > 0.0 then max_step else -.max_step)
          done;
          (* SPICE-style per-variable tolerance: |Δv| ≤ reltol·|v| + vntol.
             An absolute-only criterion is unreachable when the system is
             ill-conditioned (mΩ switches vs gmin span ~12 decades and the
             diode companion amplifies LU roundoff). *)
          let converged = ref true in
          for i = 0 to Array.length damped - 1 do
            let dv = Float.abs (damped.(i) -. v_guess.(i)) in
            if dv > (reltol *. Float.abs damped.(i)) +. vntol then
              converged := false
          done;
          if !converged then Ok damped else go damped (iter + 1)
  in
  go guess0 0

(* Raw solve: the unknown vector, before observable extraction. *)
let solve_raw ?(max_iterations = 200) ?(max_step_param = 0.5) p =
  let solve_once v_guess =
    let a, b = assemble p v_guess in
    solve_assembled p a b
  in
  if Array.length p.diodes = 0 then solve_once [||]
  else
    newton_loop ~max_iterations ~max_step:max_step_param ~n_nodes:p.n_nodes
      solve_once
      (Array.make p.size 0.0)

(* ---------- observables ----------

   A solution is the unknown vector plus the element kinds it was solved
   with; every observable is read from it on demand.  [elements] is
   passed explicitly so the injection path can keep one element's kind
   swapped for its faulted kind while reusing the golden topology
   (node/branch numbering is unchanged by faults).  Only the sensor
   readings — which every FMEA row compares — are computed eagerly. *)

type solution = {
  p : prepared;
  elements : Element.t array;
  x : float array;
  current_sensors : (string * float) list;
  voltage_sensors : (string * float) list;
}

(* Current a -> b through element [idx] under the given kinds. *)
let[@inline] current_at p (elements : Element.t array) x idx =
  let va = node_v x p.el_a.(idx) and vb = node_v x p.el_b.(idx) in
  match elements.(idx).Element.kind with
  | Element.Resistor r | Element.Load r -> (va -. vb) /. r
  | Element.Switch true -> (va -. vb) /. closed_switch_resistance
  | Element.Switch false | Element.Capacitor _ | Element.Voltage_sensor -> 0.0
  | Element.Isource amps -> amps
  | Element.Diode prm -> diode_current prm (va -. vb)
  | Element.Vsource _ | Element.Inductor _ | Element.Current_sensor ->
      x.(p.el_branch.(idx))

let extract p (elements : Element.t array) x =
  let current_sensors = ref [] in
  let voltage_sensors = ref [] in
  Array.iteri
    (fun idx (e : Element.t) ->
      match e.Element.kind with
      | Element.Current_sensor ->
          current_sensors :=
            (e.Element.id, current_at p elements x idx) :: !current_sensors
      | Element.Voltage_sensor ->
          voltage_sensors :=
            (e.Element.id, node_v x p.el_a.(idx) -. node_v x p.el_b.(idx))
            :: !voltage_sensors
      | _ -> ())
    elements;
  {
    p;
    elements;
    x;
    current_sensors = List.rev !current_sensors;
    voltage_sensors = List.rev !voltage_sensors;
  }

let solve ?max_iterations ?max_step_param p =
  match solve_raw ?max_iterations ?max_step_param p with
  | Error _ as e -> e
  | Ok x -> Ok (extract p p.elements x)

let analyse ?gmin ?backend ?max_iterations ?max_step_param netlist =
  solve ?max_iterations ?max_step_param (prepare ?gmin ?backend netlist)

(* ---------- golden factorisation and low-rank fault re-solve ----------

   The fault-injection FMEA solves thousands of systems that differ from
   the golden one by a handful of stamps: an open, a short or a drift on
   one element is a rank-0/1/2 perturbation A + U·Vᵀ of the golden MNA
   matrix.  [factorise] captures the golden factors once; [inject] then
   classifies a fault into its low-rank delta and re-solves with
   Sherman–Morrison–Woodbury against the existing factors, instead of
   assembling and factorising a faulted system from scratch. *)

type factors_v =
  | F_dense of Numeric.Lu.factors
  | F_sparse of Numeric.Sparse.factors

type golden = {
  g_p : prepared;
  g_a : assembled; (* final op-point matrix, for refinement residuals *)
  g_fact : factors_v;
  g_b : float array; (* final op-point RHS, incl. diode companions *)
  g_x : float array;
  g_solution : solution;
  (* Per p.diodes entry: companion (g, i_eq) baked into g_a/g_b. *)
  g_diode_op : (float * float) array;
}

let solve_factored_v f b =
  match f with
  | F_dense f -> Numeric.Lu.solve_factored f b
  | F_sparse f -> Numeric.Sparse.solve_factored f b

let matvec_v a x =
  match a with
  | A_dense m -> Numeric.Matrix.mul_vec m x
  | A_sparse s -> Numeric.Sparse.mul_vec s x

let factorise ?max_iterations ?max_step_param p =
  match solve_raw ?max_iterations ?max_step_param p with
  | Error err -> Error err
  | Ok x_star -> (
      (* Rebuild the system at the converged operating point: the golden
         factors must correspond exactly to the stamps recorded in
         [g_diode_op], since injection deltas are computed against them. *)
      let a, b = assemble p x_star in
      let fact_result =
        try
          Ok
            (match a with
            | A_dense m -> F_dense (Numeric.Lu.decompose m)
            | A_sparse s ->
                let order =
                  match p.base with
                  | Sparse_base { s_order; _ } -> s_order
                  | Dense_base _ -> assert false
                in
                F_sparse (Numeric.Sparse.decompose ~order s))
        with Numeric.Lu.Singular k -> Error (singular_error k)
      in
      match fact_result with
      | Error err -> Error err
      | Ok fact ->
          let g_x = solve_factored_v fact b in
          let g_diode_op =
            Array.map
              (fun (idx, prm) -> diode_companion p x_star idx prm)
              p.diodes
          in
          Ok
            {
              g_p = p;
              g_a = a;
              g_fact = fact;
              g_b = b;
              g_x;
              g_solution = extract p p.elements g_x;
              g_diode_op;
            })

let golden_solution g = g.g_solution

let smw_singular_error element_id fault =
  Singular_system
    (Printf.sprintf "fault %s on %s makes the system singular"
       (Fault.to_string fault) element_id)

let inject ?(max_iterations = 200) ?(max_step_param = 0.5)
    ?(on_path = fun _ -> ()) g ~element_id fault =
  let p = g.g_p in
  let idx =
    match Hashtbl.find_opt p.element_index element_id with
    | Some i -> i
    | None -> raise Not_found
  in
  let e = p.elements.(idx) in
  let old_kind = e.Element.kind in
  let new_kind = Fault.faulted_kind old_kind fault ~element:element_id in
  let faulted_elements = Array.copy p.elements in
  faulted_elements.(idx) <- { e with Element.kind = new_kind };
  (* coeff·(e_a − e_b) over the given terminals, ground dropped. *)
  let pvec ia ib coeff =
    Array.of_list
      (List.filter_map Fun.id
         [
           Option.map (fun i -> (i, coeff)) ia;
           Option.map (fun j -> (j, -.coeff)) ib;
         ])
  in
  let ia = p.el_a.(idx) and ib = p.el_b.(idx) in
  let pair_vec = pvec ia ib in
  (* Conductance stamped for a (non-branch, non-diode) kind. *)
  let static_g = function
    | Element.Resistor r | Element.Load r -> 1.0 /. r
    | Element.Switch true -> 1.0 /. closed_switch_resistance
    | Element.Switch false | Element.Capacitor _ | Element.Voltage_sensor
    | Element.Isource _ ->
        0.0
    | Element.Vsource _ | Element.Inductor _ | Element.Current_sensor
    | Element.Diode _ ->
        assert false
  in
  let my_diode = ref None in
  Array.iteri
    (fun di (ei, _) -> if ei = idx then my_diode := Some di)
    p.diodes;
  let updates = ref [] in
  let rhs = ref [] in
  let add_update u v =
    if Array.length u > 0 && Array.length v > 0 then
      updates := (u, v) :: !updates
  in
  let add_rhs i d =
    match i with
    | Some i when d <> 0.0 -> rhs := (i, d) :: !rhs
    | _ -> ()
  in
  let k = p.el_branch.(idx) in
  if k >= 0 then begin
    (* Branch element (Vsource / Inductor / Current_sensor): the branch
       row and column stay in the system; the fault rewrites the branch's
       defining equation.  *)
    let old_bk = match old_kind with Element.Vsource v -> v | _ -> 0.0 in
    match new_kind with
    | Element.Switch false ->
        (* Disable the branch: row k becomes x_k = 0 and the branch
           current drops out of the KCL rows.  With the original stamps
           A(k,a)=1, A(k,b)=-1, A(a,k)=1, A(b,k)=-1, A(k,k)=0, this is
           the rank-2 update e_k·(e_k − e_a + e_b)ᵀ + (e_b − e_a)·e_kᵀ. *)
        add_update [| (k, 1.0) |] (Array.append [| (k, 1.0) |] (pvec ia ib (-1.0)));
        add_update (pvec ia ib (-1.0)) [| (k, 1.0) |];
        if old_bk <> 0.0 then rhs := (k, -.old_bk) :: !rhs
    | Element.Resistor r ->
        (* Short: keep the branch current and turn the defining equation
           into v_a − v_b − r·i_k = 0, i.e. add −r at (k,k).  Extraction
           as (va − vb)/r then equals x_k by construction. *)
        add_update [| (k, 1.0) |] [| (k, -.r) |];
        if old_bk <> 0.0 then rhs := (k, -.old_bk) :: !rhs
    | Element.Vsource v' -> if v' <> old_bk then rhs := (k, v' -. old_bk) :: !rhs
    | Element.Inductor _ -> (* still a DC short — identical stamps *) ()
    | _ -> assert false (* no fault maps a branch element elsewhere *)
  end
  else begin
    let g_old =
      match old_kind with
      | Element.Diode _ -> (
          match !my_diode with
          | Some di -> fst g.g_diode_op.(di)
          | None -> assert false)
      | kind -> static_g kind
    in
    let dg = static_g new_kind -. g_old in
    if dg <> 0.0 then add_update (pair_vec dg) (pair_vec 1.0);
    (* Un-stamp the old RHS contribution, stamp the new one. *)
    (match old_kind with
    | Element.Isource amps ->
        add_rhs ia amps;
        add_rhs ib (-.amps)
    | Element.Diode _ ->
        let i_eq =
          match !my_diode with
          | Some di -> snd g.g_diode_op.(di)
          | None -> 0.0
        in
        add_rhs ia i_eq;
        add_rhs ib (-.i_eq)
    | _ -> ());
    match new_kind with
    | Element.Isource amps ->
        add_rhs ia (-.amps);
        add_rhs ib amps
    | _ -> ()
  end;
  let fault_updates = Array.of_list (List.rev !updates) in
  let fu = Array.map fst fault_updates and fv = Array.map snd fault_updates in
  if Array.length fu = 0 && !rhs = [] then begin
    (* The faulted stamps are identical (e.g. capacitor open, closed
       switch shorted): the golden solution is the faulted solution. *)
    on_path `Reused;
    Ok (extract p faulted_elements g.g_x)
  end
  else begin
    let n = p.size in
    let base_solve b = solve_factored_v g.g_fact b in
    let b_fault =
      if !rhs = [] then g.g_b
      else begin
        let b = Array.copy g.g_b in
        List.iter (fun (i, d) -> b.(i) <- b.(i) +. d) !rhs;
        b
      end
    in
    (* Diodes other than the faulted element stay active: their golden
       companion stamps are inside the factors, so each Newton iteration
       contributes (g(v) − g_op) rank-1 corrections on top of the fault's
       own delta.  At the warm start v = golden x those corrections are
       exactly zero. *)
    let active =
      Array.of_list
        (List.filter_map Fun.id
           (Array.to_list
              (Array.mapi
                 (fun di (ei, prm) ->
                   if ei = idx then None
                   else Some (ei, prm, g.g_diode_op.(di)))
                 p.diodes)))
    in
    if Array.length active = 0 then begin
      (* Linear faulted circuit: one SMW re-solve plus one step of
         iterative refinement (gmin-scale cancellation on opens would
         otherwise cost a few digits). *)
      match Numeric.Smw.prepare ~n ~solve:base_solve ~u:fu ~v:fv with
      | exception Numeric.Lu.Singular _ ->
          Error (smw_singular_error element_id fault)
      | smw ->
          (* An unchanged RHS needs no substitution: [g_x] is exactly
             [base_solve g_b] ([factorise] computed it so, and the solve
             is deterministic), so only the SMW correction remains. *)
          let x =
            if !rhs = [] then Numeric.Smw.correct smw (Array.copy g.g_x)
            else Numeric.Smw.solve smw b_fault
          in
          let ax = matvec_v g.g_a x in
          let uvx = Numeric.Smw.apply_update smw x in
          let r = Array.init n (fun i -> b_fault.(i) -. ax.(i) -. uvx.(i)) in
          let dx = Numeric.Smw.solve smw r in
          for i = 0 to n - 1 do
            x.(i) <- x.(i) +. dx.(i)
          done;
          on_path (`Rank_update (Numeric.Smw.rank smw));
          Ok (extract p faulted_elements x)
    end
    else begin
      let rank_seen = ref (Array.length fu) in
      let solve_once v_guess =
        let extra = ref [] in
        let b = Array.copy b_fault in
        Array.iter
          (fun (ei, prm, (g_op, ieq_op)) ->
            let dia = p.el_a.(ei) and dib = p.el_b.(ei) in
            let v = node_v v_guess dia -. node_v v_guess dib in
            let gd = Float.max (diode_conductance prm v) 1e-12 in
            let ieq = (diode_current prm v) -. (gd *. v) in
            let dgd = gd -. g_op and dieq = ieq -. ieq_op in
            if dgd <> 0.0 then extra := (pvec dia dib dgd, pvec dia dib 1.0) :: !extra;
            (match dia with
            | Some i -> b.(i) <- b.(i) -. dieq
            | None -> ());
            match dib with
            | Some j -> b.(j) <- b.(j) +. dieq
            | None -> ())
          active;
        let extra = Array.of_list !extra in
        let u = Array.append fu (Array.map fst extra) in
        let v = Array.append fv (Array.map snd extra) in
        rank_seen := max !rank_seen (Array.length u);
        match Numeric.Smw.prepare ~n ~solve:base_solve ~u ~v with
        | exception Numeric.Lu.Singular _ ->
            Error (smw_singular_error element_id fault)
        | smw -> Ok (Numeric.Smw.solve smw b)
      in
      match
        newton_loop ~max_iterations ~max_step:max_step_param
          ~n_nodes:p.n_nodes solve_once (Array.copy g.g_x)
      with
      | Error _ as err -> err
      | Ok x ->
          on_path (`Rank_update !rank_seen);
          Ok (extract p faulted_elements x)
    end
  end

(* ---------- observable queries ---------- *)

let node_voltage s n =
  let n = Netlist.normalise_node n in
  if String.equal n Netlist.ground then 0.0
  else
    match Hashtbl.find_opt s.p.node_index n with
    | Some i -> s.x.(i)
    | None -> raise Not_found

let element_current s id =
  match Hashtbl.find_opt s.p.element_index id with
  | Some idx -> current_at s.p s.elements s.x idx
  | None -> raise Not_found

let max_element_current s =
  let m = ref 0.0 in
  for idx = 0 to Array.length s.elements - 1 do
    m := Float.max !m (Float.abs (current_at s.p s.elements s.x idx))
  done;
  !m

let current_sensor_readings s = s.current_sensors

let voltage_sensor_readings s = s.voltage_sensors

let all_sensor_readings s = s.current_sensors @ s.voltage_sensors
