(* Child processes: spawn, wait, time, stop. *)

let open_out_file path =
  Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644

(* Run [argv] to completion with stdout and stderr sent to files;
   returns the exit code and the wall time from spawn to exit. *)
let run ~stdout ~stderr argv =
  let out = open_out_file stdout in
  let err = open_out_file stderr in
  let t0 = Clock.now_ns () in
  let pid = Unix.create_process argv.(0) argv Unix.stdin out err in
  let _, status = Unix.waitpid [] pid in
  let elapsed = Clock.seconds_since t0 in
  Unix.close out;
  Unix.close err;
  let code =
    match status with
    | Unix.WEXITED c -> c
    | Unix.WSIGNALED s -> 128 + abs s
    | Unix.WSTOPPED _ -> 255
  in
  (code, elapsed)

(* Start [argv] in the background. *)
let spawn ~stdout ~stderr argv =
  let out = open_out_file stdout in
  let err = open_out_file stderr in
  let pid = Unix.create_process argv.(0) argv Unix.stdin out err in
  Unix.close out;
  Unix.close err;
  pid

let reaped pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

(* Wait up to [timeout] seconds for [pid] to exit on its own, then
   SIGTERM, then SIGKILL; always reaps the child. *)
let stop ?(timeout = 5.0) pid =
  let wait_for limit =
    let t0 = Clock.now_ns () in
    let rec loop () =
      if reaped pid then true
      else if Clock.seconds_since t0 > limit then false
      else begin
        Unix.sleepf 0.005;
        loop ()
      end
    in
    loop ()
  in
  if not (wait_for timeout) then begin
    (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
    if not (wait_for 2.0) then begin
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (wait_for 10.0)
    end
  end

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text)

let rec remove_tree path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter
        (fun name -> remove_tree (Filename.concat path name))
        (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end
