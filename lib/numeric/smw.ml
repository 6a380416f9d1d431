type sparse_vec = (int * float) array

type t = {
  k : int;
  n : int;
  base_solve : float array -> float array;
  v : sparse_vec array;
  u : sparse_vec array;
  z : float array array; (* z.(i) = A⁻¹ uᵢ, dense columns *)
  cf : Lu.factors; (* LU of the k×k capacitance matrix I + VᵀZ *)
}

let dense_of n (sv : sparse_vec) =
  let d = Array.make n 0.0 in
  Array.iter (fun (i, x) -> d.(i) <- d.(i) +. x) sv;
  d

let dot_sparse (sv : sparse_vec) (dense : float array) =
  Array.fold_left (fun acc (i, x) -> acc +. (x *. dense.(i))) 0.0 sv

let prepare ~n ~solve ~u ~v =
  let k = Array.length u in
  if Array.length v <> k then invalid_arg "Smw.prepare: rank mismatch";
  let z = Array.map (fun ui -> solve (dense_of n ui)) u in
  let c = Matrix.identity k in
  for i = 0 to k - 1 do
    for j = 0 to k - 1 do
      Matrix.add_to c i j (dot_sparse v.(i) z.(j))
    done
  done;
  { k; n; base_solve = solve; v; u; z; cf = Lu.decompose c }

let rank t = t.k

let correct t y =
  if t.k = 0 then y
  else begin
    let w = Array.init t.k (fun i -> dot_sparse t.v.(i) y) in
    let s = Lu.solve_factored t.cf w in
    for j = 0 to t.k - 1 do
      let sj = s.(j) in
      if sj <> 0.0 then begin
        let zj = t.z.(j) in
        for i = 0 to t.n - 1 do
          y.(i) <- y.(i) -. (zj.(i) *. sj)
        done
      end
    done;
    y
  end

let solve t b = correct t (t.base_solve b)

let apply_update t x =
  let r = Array.make t.n 0.0 in
  for j = 0 to t.k - 1 do
    let c = dot_sparse t.v.(j) x in
    if c <> 0.0 then Array.iter (fun (i, uv) -> r.(i) <- r.(i) +. (uv *. c)) t.u.(j)
  done;
  r
