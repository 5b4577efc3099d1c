(* The durable-record layer's frame, as one property every sealed
   format must satisfy: truncation at every offset and every
   single-bit flip are classified exactly, the classic damage inputs
   keep their reason strings, and a payload damaged and then re-sealed
   with a correct CRC — damage the frame cannot see — is still
   classified without an exception.  The checkpoint formats run it in
   test_robustness.ml, the engine and group snapshots in
   test_snapshots.ml and profile files in test_profiles.ml.  A format
   whose parsed value is later restored into live state passes
   [restore]: every integer-substituted payload that still parses must
   then restore or be refused, never raise or exhaust memory. *)

module Durable = Tpdbt_durable.Durable

let checks = Alcotest.check Alcotest.string
let erase c = Durable.bind c (fun _ -> Durable.Valid ())

let class_name = function
  | Durable.Valid () -> "valid"
  | Durable.Missing -> "missing"
  | Durable.Stale_version line -> "stale " ^ line
  | Durable.Corrupt reason -> "corrupt " ^ reason

let flip text i bit =
  let b = Bytes.of_string text in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
  Bytes.to_string b

let is_corrupt = function Durable.Corrupt _ -> true | _ -> false

(* Offset and length of every integer word of [payload]. *)
let int_tokens payload =
  let is_int w =
    let digits =
      if String.starts_with ~prefix:"-" w then
        String.sub w 1 (String.length w - 1)
      else w
    in
    digits <> "" && String.for_all (fun c -> c >= '0' && c <= '9') digits
  in
  let tokens = ref [] and start = ref 0 in
  String.iteri
    (fun i c ->
      if c = ' ' || c = '\n' then begin
        if is_int (String.sub payload !start (i - !start)) then
          tokens := (!start, i - !start) :: !tokens;
        start := i + 1
      end)
    payload;
  List.rev !tokens

(* One format instance: its text, its total classifier and, for a state
   image, the restore that must refuse what the grammar let through. *)
let check ?restore name text classify_value =
  let classify t = erase (classify_value t) in
  let magic = String.sub text 0 (String.index text '\n') in
  let kind = String.sub magic 0 (String.rindex magic ' ') in
  let payload =
    match Durable.unseal ~magic text with
    | Durable.Valid p -> p
    | _ -> Alcotest.fail (name ^ ": cannot unseal the pristine text")
  in
  let expect what want got =
    checks (name ^ ": " ^ what) want (class_name got)
  in
  expect "pristine" "valid" (classify text);
  for len = 0 to String.length text - 1 do
    if not (is_corrupt (classify (String.sub text 0 len))) then
      Alcotest.failf "%s: truncation to %d bytes not corrupt" name len
  done;
  (* The version digit ends the magic line; the newline after it is
     the only other byte whose flip still reads as this format. *)
  let version_at = String.length magic - 1 in
  for i = 0 to String.length text - 1 do
    for bit = 0 to 7 do
      let got = classify (flip text i bit) in
      let ok =
        match got with
        | Durable.Stale_version _ -> i = version_at || i = version_at + 1
        | Durable.Corrupt _ -> i <> version_at && i <> version_at + 1
        | Durable.Valid () | Durable.Missing -> false
      in
      if not ok then
        Alcotest.failf "%s: flip of bit %d at byte %d classified %s" name bit i
          (class_name got)
    done
  done;
  expect "empty" "corrupt empty file" (classify "");
  expect "whitespace only" "corrupt empty file" (classify " \n \n");
  expect "trailing garbage" "corrupt trailing garbage: 5 bytes past the payload"
    (classify (text ^ "junk\n"));
  expect "foreign text" "corrupt unrecognised header"
    (classify "not a durable record at all\n");
  expect "older version" ("stale " ^ kind ^ " 0")
    (classify (kind ^ " 0" ^ String.sub text (String.length magic)
                 (String.length text - String.length magic)));
  (* Damage the frame cannot see: the payload's own grammar must
     classify it. *)
  let resealed what mutant =
    match classify (Durable.seal ~magic mutant) with
    | _ -> ()
    | exception e ->
        Alcotest.failf "%s: re-sealed %s raised %s" name (what ())
          (Printexc.to_string e)
  in
  (* Bits 0 and 1 of every byte turn digits into other digits (ids,
     counts, counters) and letters into other letters... *)
  String.iteri
    (fun i _ ->
      for bit = 0 to 1 do
        resealed
          (fun () -> Printf.sprintf "flip of bit %d at payload byte %d" bit i)
          (flip payload i bit)
      done)
    payload;
  (* ... but never into a sign or a far larger number: replace each
     integer whole, so that a count or an id turns negative, names
     nothing, or promises far more than follows.  A restored image also
     meets an id or a size far past anything its run could reach. *)
  let substituted what mutant =
    match classify_value (Durable.seal ~magic mutant) with
    | Durable.Valid v -> (
        match Option.map (fun restore -> restore v) restore with
        | _ -> ()
        | exception e ->
            Alcotest.failf "%s: restoring %s raised %s" name (what ())
              (Printexc.to_string e))
    | Durable.Missing | Durable.Stale_version _ | Durable.Corrupt _ -> ()
    | exception e ->
        Alcotest.failf "%s: re-sealed %s raised %s" name (what ())
          (Printexc.to_string e)
  in
  let values =
    [ "-1"; "-7"; "100000" ]
    @ if Option.is_none restore then [] else [ "1000000000" ]
  in
  List.iter
    (fun (i, len) ->
      List.iter
        (fun v ->
          substituted
            (fun () ->
              Printf.sprintf "%S at payload byte %d replaced by %s"
                (String.sub payload i len) i v)
            (String.sub payload 0 i ^ v
            ^ String.sub payload (i + len) (String.length payload - i - len)))
        values)
    (int_tokens payload)
