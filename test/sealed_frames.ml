(* The durable-record layer's frame, as one property every sealed
   format must satisfy: truncation at every offset and every
   single-bit flip are classified exactly, the classic damage inputs
   keep their reason strings, and a payload damaged and then re-sealed
   with a correct CRC — damage the frame cannot see — is still
   classified without an exception.  The checkpoint formats run it in
   test_robustness.ml, the engine snapshot in test_snapshots.ml. *)

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

(* One format instance: its text and its total classifier. *)
let check name text classify =
  let classify t = erase (classify t) in
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
     classify it.  Bits 0 and 1 of every byte turn digits into other
     digits (ids, counts, counters) and letters into other letters. *)
  String.iteri
    (fun i _ ->
      for bit = 0 to 1 do
        match classify (Durable.seal ~magic (flip payload i bit)) with
        | _ -> ()
        | exception e ->
            Alcotest.failf "%s: re-sealed flip of bit %d at payload byte %d \
                            raised %s"
              name bit i (Printexc.to_string e)
      done)
    payload
