(* Monotonic time and process memory. *)

external now_ns : unit -> int = "perfbench_monotonic_ns" [@@noalloc]

external children_maxrss_kb : unit -> int = "perfbench_children_maxrss_kb"
  [@@noalloc]

(* User + system CPU time, all threads, in microseconds. *)
external self_cpu_us : unit -> int = "perfbench_self_cpu_us" [@@noalloc]

external children_cpu_us : unit -> int = "perfbench_children_cpu_us" [@@noalloc]

external clock_ticks : unit -> int = "perfbench_clock_ticks" [@@noalloc]

let seconds_since t0 = float_of_int (now_ns () - t0) /. 1e9

let ms_since t0 = float_of_int (now_ns () - t0) /. 1e6

(* [f ()] and its wall time in seconds. *)
let timed f =
  let t0 = now_ns () in
  let v = f () in
  (v, seconds_since t0)

(* A field of /proc/<pid>/status in kB, e.g. ["VmHWM"]. *)
let proc_status_kb pid field =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> None
  | text ->
      String.split_on_char '\n' text
      |> List.find_map (fun line ->
             match String.index_opt line ':' with
             | Some i when String.sub line 0 i = field ->
                 String.sub line (i + 1) (String.length line - i - 1)
                 |> String.trim
                 |> String.split_on_char ' '
                 |> List.hd |> int_of_string_opt
             | _ -> None)

(* User + system CPU time of a live process, all threads, in
   milliseconds (clock-tick resolution). *)
let proc_cpu_ms pid =
  let path = Printf.sprintf "/proc/%d/stat" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> 0.0
  | text -> (
      (* Fields after the parenthesised command name; utime and stime are
         the 14th and 15th fields of the line. *)
      let rest = String.sub text (String.rindex text ')' + 2) (String.length text - String.rindex text ')' - 2) in
      match String.split_on_char ' ' rest with
      | _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: utime :: stime :: _ ->
          float_of_int (int_of_string utime + int_of_string stime) *. 1000.0 /. float_of_int (clock_ticks ())
      | _ -> 0.0)
