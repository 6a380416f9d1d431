(* Seeded draws for the input generators, on the repo's SplitMix64
   ([Analyst.Rng]): fully specified, so the same seed gives byte-identical
   inputs on every OCaml version and platform. *)

type t = Analyst.Rng.t

let make = Analyst.Rng.create

let next64 = Analyst.Rng.next_int64

(* Uniform integer in [0, bound). *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int";
  Int64.to_int (Int64.unsigned_rem (next64 t) (Int64.of_int bound))

(* Uniform float in [0, 1) with 53 random bits. *)
let float = Analyst.Rng.float

let range t lo hi = lo +. ((hi -. lo) *. float t)

(* A float in [lo, hi) rounded to four significant digits, so generated model
   texts carry short, exactly reproducible literals. *)
let value t lo hi = float_of_string (Printf.sprintf "%.4g" (range t lo hi))

let pick t arr = arr.(int t (Array.length arr))

let shuffle t arr =
  let a = Array.copy arr in
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a
