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

(* ---- line records ------------------------------------------------------ *)

(* A payload is a run of '\n'-terminated lines of ' '-separated words;
   most lines open with a tag word naming what they hold. *)

module Writer = struct
  type t = Buffer.t

  let create () = Buffer.create 8192
  let contents = Buffer.contents
  let line w fmt = Printf.kbprintf (fun w -> Buffer.add_char w '\n') w fmt

  let ints w tag a =
    Buffer.add_string w tag;
    Buffer.add_char w ' ';
    Buffer.add_string w (string_of_int (Array.length a));
    Array.iter
      (fun v ->
        Buffer.add_char w ' ';
        Buffer.add_string w (string_of_int v))
      a;
    Buffer.add_char w '\n'

  let section w tag text =
    line w "%s %d" tag
      (String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 text);
    Buffer.add_string w text
end

module Reader = struct
  type error = { line : int; field : string; reason : string }

  exception Malformed of error

  type t = {
    text : string;
    stop : int;  (** end of this reader's lines *)
    mutable next : int;  (** start of the next line *)
    mutable line : int;  (** number of the current line, 0 before the first *)
    mutable pos : int;  (** next unread word; past [eol] once all are read *)
    mutable eol : int;  (** the current line's '\n' *)
    mutable field : string;  (** what the current line holds *)
  }

  let fail_at line field reason = raise (Malformed { line; field; reason })
  let fail r = fail_at r.line
  let line_number r = r.line

  let check_consumed r =
    if r.pos <= r.eol then fail r r.field "unexpected words at end of line"

  let rec word_end text i =
    if i < String.length text && text.[i] <> ' ' && text.[i] <> '\n' then
      word_end text (i + 1)
    else i

  (* The end of the [n] lines after the current one; line 0 stands for
     "past the last line". *)
  let span r field n =
    check_consumed r;
    let rec skip at n =
      if n = 0 then at
      else
        match String.index_from_opt r.text at '\n' with
        | Some eol when eol < r.stop -> skip (eol + 1) (n - 1)
        | _ when at < r.stop -> fail_at (r.line + 1) field "unterminated line"
        | _ -> fail_at 0 field "truncated"
    in
    skip r.next n

  let next r field =
    let next = span r field 1 in
    r.line <- r.line + 1;
    r.pos <- r.next;
    r.eol <- next - 1;
    r.next <- next;
    r.field <- field

  let rec same text at tag i =
    i = String.length tag
    || (text.[at + i] = tag.[i] && same text at tag (i + 1))

  let tagged r tag =
    next r tag;
    let n = String.length tag in
    if
      r.eol - r.pos >= n
      && same r.text r.pos tag 0
      && (r.pos + n = r.eol || r.text.[r.pos + n] = ' ')
    then r.pos <- r.pos + n + 1
    else fail r tag ("expected a " ^ tag ^ " line")

  let word r field =
    if r.pos > r.eol then fail r field "missing";
    let e = word_end r.text r.pos in
    let w = String.sub r.text r.pos (e - r.pos) in
    r.pos <- e + 1;
    w

  let not_an_int r field e =
    let w = String.sub r.text r.pos (e - r.pos) in
    fail r field (Printf.sprintf "not an integer: %S" w)

  (* Decimal only, parsed in place.  The value accumulates negated so
     that [min_int] parses; [acc * 10 - d >= min_int] is
     [acc >= (min_int + d) / 10], division rounding toward zero. *)
  let int r field =
    if r.pos > r.eol then fail r field "missing";
    let e = word_end r.text r.pos in
    let neg = e > r.pos && r.text.[r.pos] = '-' in
    let first = if neg then r.pos + 1 else r.pos in
    if first = e then not_an_int r field e;
    let acc = ref 0 in
    for i = first to e - 1 do
      let d = Char.code r.text.[i] - Char.code '0' in
      if d < 0 || d > 9 || !acc < (min_int + d) / 10 then not_an_int r field e;
      acc := (!acc * 10) - d
    done;
    if (not neg) && !acc = min_int then not_an_int r field e;
    r.pos <- e + 1;
    if neg then !acc else - !acc

  let parsed of_string what r field =
    let w = word r field in
    match of_string w with
    | Some v -> v
    | None -> fail r field (Printf.sprintf "not %s: %S" what w)

  let int64 = parsed Int64.of_string_opt "an int64"
  let float = parsed float_of_string_opt "a float"

  let count r field =
    let n = int r field in
    if n < 0 then fail r field (Printf.sprintf "negative count %d" n);
    n

  let list r tag item =
    tagged r tag;
    List.init (count r tag) (fun _ -> item r)

  let ints r tag = Array.of_list (list r tag (fun r -> int r tag))

  let peek r =
    check_consumed r;
    if r.next >= r.stop then None
    else Some (String.sub r.text r.next (word_end r.text r.next - r.next))

  let lines r field n =
    let stop = span r field n in
    let text = String.sub r.text r.next (stop - r.next) in
    r.next <- stop;
    r.line <- r.line + n;
    text

  let section r tag =
    tagged r tag;
    let n = count r tag in
    let sub = { r with stop = span r tag n; pos = r.eol + 1 } in
    r.next <- sub.stop;
    r.line <- r.line + n;
    sub

  let section_text r tag =
    tagged r tag;
    lines r tag (count r tag)

  let eof r =
    check_consumed r;
    if r.next < r.stop then fail_at (r.line + 1) "trailer" "trailing garbage"

  let finish r =
    tagged r "end";
    eof r

  let run text read =
    let stop = String.length text in
    let r = { text; stop; next = 0; line = 0; pos = 1; eol = 0; field = "" } in
    match read r with v -> Ok v | exception Malformed e -> Error e

  let describe { line; field; reason } =
    if line = 0 then Printf.sprintf "%s: %s at end of record" field reason
    else Printf.sprintf "line %d: %s: %s" line field reason
end

let parse ~magic read text =
  bind (unseal ~magic text) (fun payload ->
      match Reader.run payload read with
      | Ok v -> Valid v
      | Error e -> Corrupt (Reader.describe e))
