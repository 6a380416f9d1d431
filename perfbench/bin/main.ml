(* perfbench: one benchmark for the DECISIVE loop.

   main.exe --workload NAME --seed N --seconds S --trace 0|1
            --same PATH --floor PATH

   Run from the root of a checkout (perfbench/run.sh builds the program
   and calls this).  Prints human-readable lines, then one JSON object as
   the last line of standard output. *)

open Perfbench

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let same = ref "" and floor = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--same", Arg.Set_string same, "PATH the same executable");
      ("--floor", Arg.Set_string floor, "PATH the empty floor executable");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1 --same PATH --floor PATH";
  exit (Bench.main ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~same:!same ~floor:!floor)
