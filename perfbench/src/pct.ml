(* Order statistics over latency samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* The nearest rank of the [p]th percentile of [n] samples, [p] in
   (0, 100]; the small offset keeps decimal [p] from rounding up. *)
let rank ~n p = int_of_float (Float.ceil ((p /. 100.0 *. float_of_int n) -. 1e-9))

let percentile_sorted a p =
  let n = Array.length a in
  if n = 0 then nan else a.(max 0 (min (n - 1) (rank ~n p - 1)))

let percentile xs p = percentile_sorted (sorted xs) p

let median xs = percentile xs 50.0

(* Samples strictly beyond the nearest-rank [p]th percentile of [n]. *)
let beyond ~n p = n - rank ~n p

(* The highest of the usual reporting percentiles that still has at
   least ten samples beyond it, or [None] when even the median has fewer. *)
let candidates = [ 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ]

let highest_supported ~n =
  List.find_opt (fun p -> beyond ~n p >= 10) candidates
