(* The tpdbt binary run the way a user runs it — a [tpdbt serve]
   daemon, a [tpdbt sweep] — and the /proc readings the ledger takes of
   it and of itself. *)

module Daemon = Tpdbt_serve.Daemon

type t = { pid : int; socket : string }

(* The binary built next to the ledger (_build/default/bin). *)
let exe () =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "tpdbt.exe")

let request t payload = Daemon.request ~socket:t.socket payload

let kill t =
  (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] t.pid) with Unix.Unix_error _ -> ()

(* Spawn with its own journal under [dir] and wait until it answers a
   ping. *)
let start ~dir =
  let socket = Filename.concat dir "serve.sock" in
  let journal = Filename.concat dir "serve.journal" in
  let exe = exe () in
  let pid =
    Unix.create_process exe
      [| exe; "serve"; "--socket"; socket; "--journal"; journal; "--quiet" |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  let t = { pid; socket } in
  let give_up = Unix.gettimeofday () +. 30.0 in
  let rec wait () =
    match request t {|{"op":"ping"}|} with
    | Ok _ -> t
    | Error msg ->
        if Unix.gettimeofday () > give_up then begin
          kill t;
          failwith ("tpdbt serve never answered: " ^ msg)
        end
        else begin
          Unix.sleepf 0.002;
          wait ()
        end
  in
  wait ()

(* Run [tpdbt args] to completion with its output (tables, progress)
   discarded; its exit status. *)
let tpdbt args =
  let exe = exe () in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close null)
      (fun () ->
        Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin null
          null)
  in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED code -> code
  | _, (Unix.WSIGNALED n | Unix.WSTOPPED n) -> 128 + n

(* Graceful shutdown: drain, then reap. *)
let stop t =
  match request t {|{"op":"drain"}|} with
  | Ok _ -> ignore (Unix.waitpid [] t.pid)
  | Error _ -> kill t

let read_file path = In_channel.with_open_bin path In_channel.input_all

let proc who file = Printf.sprintf "/proc/%s/%s" who file

(* Restart the peak resident set (VmHWM) from the current one, so the
   next reading is the peak of what ran in between. *)
let reset_peak who =
  Out_channel.with_open_bin (proc who "clear_refs") (fun oc ->
      output_string oc "5")

(* Peak resident set (VmHWM) in MiB. *)
let peak_rss_mb who =
  let line =
    List.find
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' (read_file (proc who "status")))
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
