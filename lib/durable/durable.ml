type 'a classified =
  | Valid of 'a
  | Missing
  | Stale_version of string
  | Corrupt of string

let bind c f =
  match c with
  | Valid v -> f v
  | Missing -> Missing
  | Stale_version line -> Stale_version line
  | Corrupt reason -> Corrupt reason

let to_result ~what = function
  | Valid v -> Ok v
  | Missing -> Error ("missing " ^ what)
  | Stale_version line ->
      Error (Printf.sprintf "stale %s version: %s" what line)
  | Corrupt reason -> Error (Printf.sprintf "corrupt %s: %s" what reason)

(* ---- CRC32 ------------------------------------------------------------- *)

(* Table-driven and reflected, on native ints: the 32-bit value fits in
   a 63-bit int, so no byte boxes an Int32. *)
let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then (!c lsr 1) lxor 0xEDB88320 else !c lsr 1
      done;
      !c)

let crc32 s =
  let c = ref 0xFFFFFFFF in
  for i = 0 to String.length s - 1 do
    c := crc_table.((!c lxor Char.code s.[i]) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let crc_hex s = Printf.sprintf "%08x" (crc32 s)

(* ---- sealed frame ------------------------------------------------------ *)

let seal ~magic payload =
  Printf.sprintf "%s\ncrc %s %d\n%s" magic (crc_hex payload)
    (String.length payload) payload

let split_line s pos =
  match String.index_from_opt s pos '\n' with
  | None -> None
  | Some i -> Some (String.sub s pos (i - pos), i + 1)

let blank =
  String.for_all (function
    | ' ' | '\t' | '\n' | '\r' | '\012' -> true
    | _ -> false)

let unseal ~magic text =
  let name = String.sub magic 0 (String.rindex magic ' ' + 1) in
  if blank text then Corrupt "empty file"
  else
    match split_line text 0 with
    | None -> Corrupt "missing newline after magic"
    | Some (line1, _) when not (String.equal line1 magic) ->
        if String.starts_with ~prefix:name line1 then Stale_version line1
        else Corrupt "unrecognised header"
    | Some (_, p1) -> (
        match split_line text p1 with
        | None -> Corrupt "missing crc header"
        | Some (line2, p2) -> (
            match String.split_on_char ' ' line2 with
            | [ "crc"; hex; len ] -> (
                match int_of_string_opt len with
                | Some len when len >= 0 ->
                    let avail = String.length text - p2 in
                    if avail < len then
                      Corrupt
                        (Printf.sprintf "truncated: %d of %d payload bytes"
                           avail len)
                    else if avail > len then
                      Corrupt
                        (Printf.sprintf
                           "trailing garbage: %d bytes past the payload"
                           (avail - len))
                    else
                      let payload = String.sub text p2 len in
                      let actual = crc_hex payload in
                      if String.equal actual hex then Valid payload
                      else
                        Corrupt
                          (Printf.sprintf "crc mismatch: header %s, payload %s"
                             hex actual)
                | _ -> Corrupt "malformed crc header")
            | _ -> Corrupt "malformed crc header"))

(* ---- files ------------------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Directories cannot be opened for writing; O_RDONLY is the documented
   way to fsync one.  Filesystems that refuse (EINVAL and friends) get
   the rename's usual eventual durability. *)
let sync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())

let atomic_write path text =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try
     output_string oc text;
     (* The bytes must be durable before the rename publishes them, or
        a power cut can leave a complete-looking file full of zeroes. *)
     flush oc;
     Unix.fsync (Unix.descr_of_out_channel oc);
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path;
  (* The rename lives in the directory: unsynced, a power cut can forget
     the new name, or resurrect the old file, though the data is safe. *)
  sync_dir (Filename.dirname path)
