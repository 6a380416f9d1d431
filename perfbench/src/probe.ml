(* Layer figures no replay produces: process start-up and the
   scheduler's dispatch overhead. *)

open Common

(* [same --version] and the empty floor executable, spawned alternately
   so both see the same machine state. *)
let startup ctx ~count =
  Proc.mkdir_p ctx.work;
  let out = Filename.concat ctx.work "startup.out" and err = Filename.concat ctx.work "startup.err" in
  let spawn argv = snd (Proc.run ~stdout:out ~stderr:err argv) *. 1000.0 in
  let pairs = List.init count (fun _ -> (spawn [| ctx.same; "--version" |], spawn [| ctx.floor |])) in
  [
    metric "startup.same_version_ms" "ms" (Pct.median (List.map fst pairs));
    metric "startup.floor_ms" "ms" (Pct.median (List.map snd pairs));
    metric "exec.dispatch_overhead_ns" "ns" (Exec.Cost.calibrate ());
  ]
