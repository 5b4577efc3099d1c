(* The durable-record layer's own checks: the CRC-32 check value, the
   line-record codec's edge cases, and the serving journal (TPDBT-JRNL),
   whose per-record frames recover the intact prefix of any damaged
   file.  The sealed-frame property over the checkpoint, snapshot and
   profile formats is Sealed_frames, run by test_robustness.ml,
   test_snapshots.ml and test_profiles.ml. *)

module Durable = Tpdbt_durable.Durable
module Journal = Tpdbt_serve.Journal

let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let test_crc32 () =
  checki "CRC-32 check value" 0xCBF43926 (Durable.crc32 "123456789");
  checks "empty input" "00000000" (Durable.crc_hex "")

(* ------------------------------------------------------------------ *)
(* Line records                                                         *)
(* ------------------------------------------------------------------ *)

module W = Durable.Writer
module R = Durable.Reader

let read text f =
  match R.run text f with
  | Ok v -> Ok v
  | Error { R.line; field; reason } ->
      Error (Printf.sprintf "%d %s: %s" line field reason)

let test_line_records () =
  let w = W.create () in
  W.ints w "extremes" [| min_int; -1; 0; max_int |];
  W.section w "inner" "a 1\nb 2\n";
  W.line w "end";
  let text = W.contents w in
  checks "writer bytes"
    (Printf.sprintf "extremes 4 %d -1 0 %d\ninner 2\na 1\nb 2\nend\n" min_int
       max_int)
    text;
  let parsed =
    read text (fun r ->
        let a = R.ints r "extremes" in
        let inner = R.section r "inner" in
        R.tagged inner "a";
        ignore (R.int inner "a");
        R.tagged inner "b";
        let b_line = R.line_number inner in
        ignore (R.int inner "b");
        R.eof inner;
        R.finish r;
        (a, b_line))
  in
  (match parsed with
  | Ok (a, b_line) ->
      Alcotest.(check (array int)) "ints" [| min_int; -1; 0; max_int |] a;
      checki "a section keeps the enclosing line numbers" 4 b_line
  | Error e -> Alcotest.fail e);
  (* Each malformed payload is refused at its line, naming the field. *)
  let refused what text f want =
    match read text f with
    | Ok _ -> Alcotest.failf "%s accepted" what
    | Error got -> checks what want got
  in
  let one_int r =
    R.tagged r "n";
    R.int r "n"
  in
  refused "past max_int" "n 4611686018427387904\n" one_int
    "1 n: not an integer: \"4611686018427387904\"";
  refused "a plus sign" "n +1\n" one_int "1 n: not an integer: \"+1\"";
  refused "a bare minus" "n -\n" one_int "1 n: not an integer: \"-\"";
  refused "a missing field" "n\n" one_int "1 n: missing";
  refused "a negative count" "xs -1\n" (fun r -> R.ints r "xs")
    "1 xs: negative count -1";
  refused "a count past the values" "xs 3 1 2\n" (fun r -> R.ints r "xs")
    "1 xs: missing";
  refused "an unread word" "n 1 2\nend\n"
    (fun r ->
      ignore (one_int r);
      R.finish r)
    "1 n: unexpected words at end of line";
  refused "an unterminated line" "n 1\nend" (fun r ->
      ignore (one_int r);
      R.finish r)
    "2 end: unterminated line";
  refused "a section past the payload" "s 3\nx\n" (fun r -> R.section r "s")
    "0 s: truncated";
  refused "trailing lines" "end\nmore\n" R.finish "2 trailer: trailing garbage"

(* ------------------------------------------------------------------ *)
(* The journal's per-record frames                                      *)
(* ------------------------------------------------------------------ *)

let test_journal_prefix_recovery () =
  Test_snapshots.with_temp_dir (fun dir ->
      let path = Filename.concat dir "journal" in
      let records =
        [
          Journal.Sweep_begin { id = 1; benches = [ "gzip"; "swim" ] };
          Journal.Snapshot_ref { id = 1; bench = "gzip" };
          Journal.Sweep_end { id = 1 };
          Journal.Sweep_begin { id = 2; benches = [ "mcf" ] };
          Journal.Drained;
        ]
      in
      let j, _ = Journal.open_ ~path in
      List.iter (Journal.append j) records;
      Journal.close j;
      let text = Durable.read_file path in
      (* Offsets just past each line: the header, then every record. *)
      let ends =
        List.filter_map
          (fun i -> if text.[i] = '\n' then Some (i + 1) else None)
          (List.init (String.length text) Fun.id)
      in
      let header_end = List.hd ends in
      (* Records lying wholly before byte offset [at]. *)
      let intact at = List.length (List.filter (fun e -> e <= at) ends) - 1 in
      checki "every record written" (List.length records)
        (intact (String.length text));
      let reopen what damaged ~expect ~torn =
        Test_snapshots.write_file path damaged;
        let j, r = Journal.open_ ~path in
        Journal.close j;
        if r.Journal.records <> expect || r.Journal.torn <> torn then
          Alcotest.failf "%s: recovered %d records (torn %d), expected %d \
                          (torn %d)"
            what r.Journal.records r.Journal.torn expect torn;
        let j, r = Journal.open_ ~path in
        Journal.close j;
        if r.Journal.records <> expect || r.Journal.torn <> 0 then
          Alcotest.failf "%s: repaired file reopened with %d records, torn %d"
            what r.Journal.records r.Journal.torn
      in
      for len = 0 to String.length text - 1 do
        let whole = List.mem len ends in
        reopen
          (Printf.sprintf "truncation to %d" len)
          (String.sub text 0 len)
          ~expect:(max 0 (intact len))
          ~torn:(if whole then 0 else 1)
      done;
      for i = 0 to String.length text - 1 do
        for bit = 0 to 7 do
          reopen
            (Printf.sprintf "flip of bit %d at byte %d" bit i)
            (Sealed_frames.flip text i bit)
            ~expect:(if i < header_end then 0 else intact i)
            ~torn:1
        done
      done)

let suite =
  [
    Alcotest.test_case "crc32 check value" `Quick test_crc32;
    Alcotest.test_case "line records" `Quick test_line_records;
    Alcotest.test_case "journal keeps the intact prefix" `Quick
      test_journal_prefix_recovery;
  ]
