(* The durable-record layer's own checks: the CRC-32 check value and
   the serving journal (TPDBT-JRNL), whose per-record frames recover the
   intact prefix of any damaged file.  The sealed-frame property over
   the checkpoint and snapshot formats is Sealed_frames, run by
   test_robustness.ml and test_snapshots.ml. *)

module Durable = Tpdbt_durable.Durable
module Journal = Tpdbt_serve.Journal

let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let test_crc32 () =
  checki "CRC-32 check value" 0xCBF43926 (Durable.crc32 "123456789");
  checks "empty input" "00000000" (Durable.crc_hex "")

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
    Alcotest.test_case "journal keeps the intact prefix" `Quick
      test_journal_prefix_recovery;
  ]
