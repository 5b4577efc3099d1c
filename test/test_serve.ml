(* The serving subsystem: framing, strict protocol validation, the
   session journal, the warm reply cache, the server state machine
   (admission, backpressure, drain, disconnects, journal recovery),
   and the CLI's exit-code taxonomy. *)

module Frame = Tpdbt_serve.Frame
module Protocol = Tpdbt_serve.Protocol
module Journal = Tpdbt_serve.Journal
module Warm_cache = Tpdbt_serve.Warm_cache
module Server = Tpdbt_serve.Server
module Json = Tpdbt_telemetry.Json

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let rec rm_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_tree (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_temp_dir f =
  let dir = Filename.temp_file "tpdbt-serve" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_tree dir) (fun () -> f dir)

let member name payload =
  match Json.parse payload with
  | Error msg -> Alcotest.fail ("reply not JSON: " ^ msg)
  | Ok doc -> Json.member name doc

let kind_of payload =
  match member "kind" payload with
  | Some (Json.Str s) -> s
  | _ -> ""

let is_ok payload = member "ok" payload = Some (Json.Bool true)

(* ------------------------------------------------------------------ *)
(* Framing                                                              *)
(* ------------------------------------------------------------------ *)

let test_frame_roundtrip () =
  let payloads = [ ""; "x"; "{\"op\":\"ping\"}"; String.make 1000 'z' ] in
  let dec = Frame.decoder () in
  List.iter (fun p -> Frame.feed dec (Frame.encode p)) payloads;
  List.iter
    (fun p ->
      match Frame.next dec with
      | Ok (Some got) -> checks "frame payload" p got
      | Ok None -> Alcotest.fail "frame missing"
      | Error e -> Alcotest.fail (Frame.error_to_string e))
    payloads;
  checkb "drained" true (Frame.next dec = Ok None);
  checki "no residue" 0 (Frame.buffered dec)

let test_frame_byte_at_a_time () =
  let wire = Frame.encode "hello" ^ Frame.encode "" in
  let dec = Frame.decoder () in
  let got = ref [] in
  String.iter
    (fun ch ->
      Frame.feed dec (String.make 1 ch);
      match Frame.next dec with
      | Ok (Some p) -> got := p :: !got
      | Ok None -> ()
      | Error e -> Alcotest.fail (Frame.error_to_string e))
    wire;
  checkb "both frames, in order" true (List.rev !got = [ "hello"; "" ])

let test_frame_damage_is_sticky () =
  let dec = Frame.decoder () in
  Frame.feed dec "not-a-length\n";
  (match Frame.next dec with
  | Error (Frame.Bad_header _) -> ()
  | _ -> Alcotest.fail "garbage header accepted");
  (* Poisoned: even well-formed bytes fed later are refused. *)
  Frame.feed dec (Frame.encode "{}");
  (match Frame.next dec with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "decoder resynchronised after damage");
  let big = Frame.decoder ~max_frame:64 () in
  Frame.feed big "65\n";
  match Frame.next big with
  | Error (Frame.Oversize 65) -> ()
  | _ -> Alcotest.fail "oversize declaration accepted"

(* ------------------------------------------------------------------ *)
(* Protocol strictness                                                  *)
(* ------------------------------------------------------------------ *)

let test_protocol_accepts () =
  (match Protocol.parse_request "{\"op\":\"ping\"}" with
  | Ok Protocol.Ping -> ()
  | _ -> Alcotest.fail "ping rejected");
  (match
     Protocol.parse_request
       "{\"op\":\"run\",\"workload\":\"gzip\",\"threshold\":7}"
   with
  | Ok (Protocol.Run { workload = "gzip"; threshold = 7; max_steps = None })
    ->
      ()
  | _ -> Alcotest.fail "run rejected");
  (match Protocol.parse_request "{\"op\":\"sweep\"}" with
  | Ok (Protocol.Sweep { benches = []; max_steps = None; return_results })
    ->
      checkb "return_results defaults on" true return_results
  | _ -> Alcotest.fail "bare sweep rejected");
  match
    Protocol.parse_request
      "{\"op\":\"translate\",\"program\":\"halt\",\"seed\":9}"
  with
  | Ok (Protocol.Translate { seed = 9L; threshold = 1000; _ }) -> ()
  | _ -> Alcotest.fail "translate rejected"

let test_protocol_rejects () =
  let rejected s =
    match Protocol.parse_request s with
    | Error _ -> true
    | Ok _ -> false
  in
  List.iter
    (fun (label, s) -> checkb label true (rejected s))
    [
      ("not json", "{");
      ("not an object", "[1,2]");
      ("no op", "{}");
      ("unknown op", "{\"op\":\"launch\"}");
      ("fuzz is cli-only", "{\"op\":\"fuzz\"}");
      ( "fuzz with params is still cli-only",
        "{\"op\":\"fuzz\",\"budget\":10}" );
      ("unknown member", "{\"op\":\"ping\",\"extra\":1}");
      ("duplicate member", "{\"op\":\"ping\",\"op\":\"ping\"}");
      ("missing workload", "{\"op\":\"run\"}");
      ("empty workload", "{\"op\":\"run\",\"workload\":\"\"}");
      ("wrong type", "{\"op\":\"run\",\"workload\":5}");
      ( "negative threshold",
        "{\"op\":\"run\",\"workload\":\"gzip\",\"threshold\":-1}" );
      ( "fractional max_steps",
        "{\"op\":\"run\",\"workload\":\"gzip\",\"max_steps\":1.5}" );
      ( "zero max_steps",
        "{\"op\":\"run\",\"workload\":\"gzip\",\"max_steps\":0}" );
      ( "empty bench name",
        "{\"op\":\"sweep\",\"benches\":[\"gzip\",\"\"]}" );
      ("empty program", "{\"op\":\"translate\",\"program\":\"  \"}")
    ]

let test_cache_keys () =
  let parse s =
    match Protocol.parse_request s with
    | Ok r -> r
    | Error m -> Alcotest.fail m
  in
  let a =
    parse "{\"op\":\"run\",\"workload\":\"gzip\",\"threshold\":20}"
  in
  let b =
    parse "{\"op\":\"run\",\"threshold\":20,\"workload\":\"gzip\"}"
  in
  checkb "member order does not change the key" true
    (Protocol.cache_key a = Protocol.cache_key b);
  let c =
    parse "{\"op\":\"run\",\"workload\":\"gzip\",\"threshold\":21}"
  in
  checkb "parameters change the key" true
    (Protocol.cache_key a <> Protocol.cache_key c);
  checkb "probes are uncacheable" true
    (Protocol.cache_key Protocol.Ping = None);
  checkb "sweeps are uncacheable" true
    (Protocol.cache_key
       (parse "{\"op\":\"sweep\",\"benches\":[\"gzip\"]}")
    = None)

(* ------------------------------------------------------------------ *)
(* Journal                                                              *)
(* ------------------------------------------------------------------ *)

let test_journal_roundtrip_and_torn_tail () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "journal" in
      let j, r0 = Journal.open_ ~path in
      checki "fresh journal is empty" 0 r0.Journal.records;
      Journal.append j
        (Journal.Sweep_begin { id = 1; benches = [ "gzip"; "art" ] });
      Journal.append j (Journal.Sweep_end { id = 1 });
      Journal.append j (Journal.Sweep_begin { id = 2; benches = [ "swim" ] });
      Journal.close j;
      (* Damage the tail the way a crash mid-append would. *)
      let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
      output_string oc "R 0000 garbage";
      close_out oc;
      let j2, r = Journal.open_ ~path in
      Journal.close j2;
      checki "intact records survive" 3 r.Journal.records;
      checki "torn tail truncated" 1 r.Journal.torn;
      checkb "sweep 2 still in flight" true
        (r.Journal.inflight = [ (2, [ "swim" ]) ]);
      (* The truncation repaired the file: reopening is clean. *)
      let j3, r2 = Journal.open_ ~path in
      Journal.append j3 Journal.Drained;
      Journal.close j3;
      checki "no damage on reopen" 0 r2.Journal.torn;
      let j4, r3 = Journal.open_ ~path in
      Journal.close j4;
      checkb "drained clears in-flight" true (r3.Journal.inflight = []))

let test_journal_record_encoding () =
  List.iter
    (fun r ->
      match Journal.record_of_string (Journal.record_to_string r) with
      | Some r' -> checkb "record roundtrips" true (r = r')
      | None -> Alcotest.fail "record did not roundtrip")
    [
      Journal.Sweep_begin { id = 3; benches = [ "a"; "b" ] };
      Journal.Sweep_begin { id = 0; benches = [] };
      Journal.Sweep_end { id = 12 };
      Journal.Drained;
    ];
  checkb "garbage rejected" true (Journal.record_of_string "launch 1" = None)

(* ------------------------------------------------------------------ *)
(* Warm cache                                                           *)
(* ------------------------------------------------------------------ *)

let test_warm_cache_bounded_lru () =
  let c = Warm_cache.create ~capacity:10 in
  Warm_cache.add c ~now:1 ~key:"a" ~size:4 "ra";
  Warm_cache.add c ~now:2 ~key:"b" ~size:4 "rb";
  checkb "hit a" true (Warm_cache.find c ~now:3 "a" = Some "ra");
  (* b is now least recent; an insert over budget evicts it. *)
  Warm_cache.add c ~now:4 ~key:"c" ~size:4 "rc";
  checkb "b evicted" true (Warm_cache.find c ~now:5 "b" = None);
  checkb "a survives" true (Warm_cache.find c ~now:6 "a" = Some "ra");
  checki "evictions counted" 1 (Warm_cache.evictions c);
  checkb "usage bounded" true (Warm_cache.used c <= 10);
  Warm_cache.add c ~now:7 ~key:"a" ~size:4 "ra2";
  checkb "replacement visible" true (Warm_cache.find c ~now:8 "a" = Some "ra2")

(* ------------------------------------------------------------------ *)
(* Server state machine                                                 *)
(* ------------------------------------------------------------------ *)

let small_config queue_limit =
  { Server.default_config with Server.queue_limit; max_steps = Some 20_000 }

let run_req ?(threshold = 20) workload =
  Json.obj
    [
      ("op", Json.quote "run");
      ("workload", Json.quote workload);
      ("threshold", string_of_int threshold);
    ]

let test_server_probes_and_validation () =
  let s = Server.create (small_config 4) in
  (match Server.offer s ~client:0 "{\"op\":\"ping\"}" with
  | Server.Reply r -> checkb "ready" true (is_ok r)
  | Server.Enqueued _ -> Alcotest.fail "ping queued");
  (match Server.offer s ~client:0 "garbage" with
  | Server.Reply r -> checks "invalid kind" "invalid" (kind_of r)
  | Server.Enqueued _ -> Alcotest.fail "garbage queued");
  (* The fuzz op is deliberately not served: a campaign would pin the
     worker for unbounded time.  The refusal must be a clean protocol
     rejection that names the CLI alternative — not an internal error. *)
  (match Server.offer s ~client:0 "{\"op\":\"fuzz\"}" with
  | Server.Reply r ->
      checks "fuzz refusal kind" "invalid" (kind_of r);
      let mentions_cli =
        match Protocol.parse_request "{\"op\":\"fuzz\"}" with
        | Error msg ->
            let needle = "tpdbt fuzz" in
            let n = String.length needle and m = String.length msg in
            let rec at i =
              i + n <= m && (String.sub msg i n = needle || at (i + 1))
            in
            at 0
        | Ok _ -> false
      in
      checkb "refusal points at the subcommand" true mentions_cli
  | Server.Enqueued _ -> Alcotest.fail "fuzz queued");
  (* Unknown benchmark: admitted (the schema cannot know the suite),
     rejected at execution, never fatal. *)
  (match Server.offer s ~client:0 (run_req "no-such") with
  | Server.Enqueued _ -> (
      match Server.step s with
      | Some { Server.reply; delivered; _ } ->
          checks "semantic rejection" "invalid" (kind_of reply);
          checkb "still delivered" true delivered
      | None -> Alcotest.fail "job vanished")
  | Server.Reply _ -> Alcotest.fail "expensive request answered inline");
  checkb "server is idle again" true (Server.idle s);
  Server.close s

let test_server_backpressure_and_disconnect () =
  let s = Server.create (small_config 2) in
  let offers =
    List.map
      (fun t -> Server.offer s ~client:1 (run_req ~threshold:t "gzip"))
      [ 20; 21; 22; 23 ]
  in
  let enqueued =
    List.length
      (List.filter (function Server.Enqueued _ -> true | _ -> false) offers)
  in
  let overloaded =
    List.length
      (List.filter
         (function
           | Server.Reply r -> kind_of r = "overloaded"
           | Server.Enqueued _ -> false)
         offers)
  in
  checki "bounded admission" 2 enqueued;
  checki "the rest get backpressure" 2 overloaded;
  checki "queue never exceeds the limit" 2 (Server.queue_peak s);
  Server.disconnect s ~client:1;
  (match Server.step s with
  | Some { Server.delivered; reply; _ } ->
      checkb "dead client's reply dropped" false delivered;
      checkb "the work itself succeeded" true (is_ok reply)
  | None -> Alcotest.fail "job vanished");
  ignore (Server.step s);
  checkb "queue drained" true (Server.idle s);
  Server.close s

let test_server_drain_refuses_new_work () =
  let s = Server.create (small_config 2) in
  (match Server.offer s ~client:0 (run_req "gzip") with
  | Server.Enqueued _ -> ()
  | Server.Reply _ -> Alcotest.fail "admission refused while accepting");
  (match Server.offer s ~client:0 "{\"op\":\"drain\"}" with
  | Server.Reply r -> checkb "drain acknowledged" true (is_ok r)
  | Server.Enqueued _ -> Alcotest.fail "drain queued");
  (match Server.offer s ~client:0 (run_req "swim") with
  | Server.Reply r -> checks "draining refusal" "draining" (kind_of r)
  | Server.Enqueued _ -> Alcotest.fail "admitted while draining");
  (match Server.offer s ~client:0 "{\"op\":\"ping\"}" with
  | Server.Reply r ->
      checkb "probes still served, not ready" true
        (is_ok r && member "ready" r = Some (Json.Bool false))
  | Server.Enqueued _ -> Alcotest.fail "ping queued");
  (* The queued job still completes before shutdown. *)
  (match Server.step s with
  | Some { Server.reply; _ } -> checkb "queued job finished" true (is_ok reply)
  | None -> Alcotest.fail "queued job discarded");
  checkb "drained and idle" true (Server.draining s && Server.idle s);
  Server.close s

let test_server_sweep_journal_recovery () =
  (* A sweep that is journalled but never marked complete (the server
     "dies" without close) must be re-enqueued as an orphan by the
     next server over the same journal, and its results must land in
     the checkpoint store. *)
  with_temp_dir (fun dir ->
      let ckpt = Filename.concat dir "ckpt" in
      let config =
        {
          (small_config 4) with
          Server.checkpoint_dir = Some ckpt;
          journal_path = Some (Filename.concat dir "journal");
        }
      in
      let s = Server.create config in
      let sweep_req =
        Json.obj
          [
            ("op", Json.quote "sweep");
            ("benches", Json.arr [ Json.quote "gzip" ]);
            ("return_results", "false");
          ]
      in
      (match Server.offer s ~client:0 sweep_req with
      | Server.Enqueued _ -> ()
      | Server.Reply _ -> Alcotest.fail "sweep refused");
      (* Simulated kill: the admitted sweep never runs; the journal
         keeps its Sweep_begin only if it started.  Run it, then fake
         the missing Sweep_end by re-opening the journal and
         re-appending a begin. *)
      (match Server.step s with
      | Some { Server.reply; _ } -> checkb "sweep ran" true (is_ok reply)
      | None -> Alcotest.fail "sweep vanished");
      (* Orphan: journal says a sweep began and never ended. *)
      let j, _ = Journal.open_ ~path:(Filename.concat dir "journal") in
      Journal.append j (Journal.Sweep_begin { id = 99; benches = [ "gzip" ] });
      Journal.close j;
      let s2 = Server.create config in
      checkb "in-flight sweep recovered" true
        (Server.recovered s2 = [ (99, [ "gzip" ]) ]);
      checki "recovery job queued" 1 (Server.pending s2);
      (match Server.step s2 with
      | Some { Server.client = None; reply; delivered; _ } ->
          checkb "orphan reply undeliverable" false delivered;
          checkb "orphan sweep resumed from checkpoints" true (is_ok reply)
      | Some _ -> Alcotest.fail "orphan has a client"
      | None -> Alcotest.fail "orphan never ran");
      Server.drain s2;
      Server.close s2;
      (* The clean shutdown is journalled: a third server recovers
         nothing. *)
      let s3 = Server.create config in
      checkb "nothing to recover after drain" true (Server.recovered s3 = []);
      Server.close s3)

let test_server_warm_cache_byte_identical () =
  let s = Server.create (small_config 4) in
  let exec () =
    match Server.offer s ~client:0 (run_req "gzip") with
    | Server.Enqueued _ -> (
        match Server.step s with
        | Some { Server.reply; _ } -> reply
        | None -> Alcotest.fail "job vanished")
    | Server.Reply _ -> Alcotest.fail "refused"
  in
  let cold = exec () in
  let warm = exec () in
  checks "warm reply byte-identical to cold" cold warm;
  (match Server.offer s ~client:0 "{\"op\":\"status\"}" with
  | Server.Reply r ->
      checkb "served from the cache" true
        (member "cache_hits" r = Some (Json.Num 1.0))
  | Server.Enqueued _ -> Alcotest.fail "status queued");
  Server.close s

(* ------------------------------------------------------------------ *)
(* CLI exit-code taxonomy                                               *)
(* ------------------------------------------------------------------ *)

let tpdbt = Filename.concat (Filename.concat ".." "bin") "tpdbt.exe"

(* The exit code of tpdbt run on [args], its stdout written to [out]. *)
let exit_to out args =
  match
    Unix.system
      (Filename.quote_command tpdbt args ~stdout:out ~stderr:Filename.null)
  with
  | Unix.WEXITED n -> n
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> Alcotest.fail "tpdbt killed"

let exit_of args = exit_to Filename.null args

let test_cli_exit_taxonomy () =
  if not (Sys.file_exists tpdbt) then
    Alcotest.skip ()
  else begin
    checki "success is 0" 0 (exit_of [ "--version" ]);
    checki "unknown subcommand is usage (1)" 1 (exit_of [ "no-such-cmd" ]);
    checki "unknown benchmark is usage (1)" 1
      (exit_of [ "bench"; "no-such-bench" ]);
    let sweep extra =
      exit_of
        ([ "sweep"; "-b"; "gzip"; "--jobs"; "1"; "--max-steps"; "200000" ]
        @ extra)
    in
    checki "a blown deadline fails an unsupervised sweep (3)" 3
      (sweep [ "--deadline"; "1000" ]);
    checki "--retries without --supervise is usage (1)" 1
      (sweep [ "--retries"; "2" ]);
    with_temp_dir (fun dir ->
        let bad = Filename.concat dir "bad.s" in
        let oc = open_out bad in
        output_string oc "this is not assembly\n";
        close_out oc;
        checki "malformed input is validation (2)" 2 (exit_of [ "asm"; bad ]);
        let good = Filename.concat dir "good.s" in
        Out_channel.with_open_text good (fun oc ->
            output_string oc ".entry main\nmain:\n    halt\n");
        checki "asm -o under a missing parent is usage (1)" 1
          (exit_of
             [ "asm"; good; "-o";
               Filename.concat
                 (Filename.concat (Filename.concat dir "nowhere") "sub")
                 "g.g32" ]);
        let old_json = Filename.concat dir "old.json" in
        let new_json = Filename.concat dir "new.json" in
        let write path alloc =
          let oc = open_out path in
          output_string oc
            (Printf.sprintf
               "{\"host\":{\"cores\":1},\"benches\":[{\"name\":\"g\",\
                \"guest_ips\":1000.0,\"alloc_per_instr\":%s,\"cycles\":100}]}"
               alloc);
          close_out oc
        in
        write old_json "1.0";
        write new_json "2.0";
        checki "alloc regression is 3" 3
          (exit_of [ "perfdiff"; old_json; new_json ]);
        checki "garbage perfdiff input is validation (2)" 2
          (exit_of [ "perfdiff"; bad; new_json ]);
        (* Profiles of two programs compared block by block: refused
           as validation, in either order, flat or not. *)
        let profile name bench threshold =
          let path = Filename.concat dir name in
          checki ("profile " ^ name) 0
            (exit_of
               [
                 "profile"; bench; "-t"; threshold; "--max-steps"; "200000";
                 "--out-dir"; dir; "-o"; path;
               ]);
          path
        in
        let gzip_t50 = profile "gzip-t50.prof" "gzip" "50" in
        let gzip_avep = profile "gzip-avep.prof" "gzip" "0" in
        let swim_avep = profile "swim-avep.prof" "swim" "0" in
        checki "analyze across programs is validation (2)" 2
          (exit_of [ "analyze"; gzip_t50; swim_avep ]);
        checki "analyze across programs, reversed, is validation (2)" 2
          (exit_of [ "analyze"; swim_avep; gzip_t50 ]);
        checki "flat analyze across programs is validation (2)" 2
          (exit_of [ "analyze"; gzip_avep; swim_avep ]);
        checki "report --avep across programs is validation (2)" 2
          (exit_of [ "report"; gzip_t50; "--avep"; swim_avep ]);
        checki "analyze within one program succeeds" 0
          (exit_of [ "analyze"; gzip_t50; gzip_avep ]);
        checki "report --avep within one program succeeds" 0
          (exit_of [ "report"; gzip_t50; "--avep"; gzip_avep ]);
        (* Only the study asked for runs: mcf, in the adaptive study's
           set, reaches the step cap, which must not fail a run. *)
        let ablate = Filename.concat dir "ablate.out" in
        checki "one ablation study succeeds" 0
          (exit_to ablate [ "ablate"; "-b"; "gzip"; "-s"; "region-formation" ]);
        let lines =
          In_channel.with_open_text ablate In_channel.input_all
          |> String.split_on_char '\n' |> List.map String.trim
        in
        let has prefix = List.exists (String.starts_with ~prefix) lines in
        List.iter
          (fun row -> checkb ("ablation output has " ^ row) true (has row))
          [ "region-formation"; "full former"; "singleton regions" ];
        checkb "no other study ran" false (has "min-branch-prob");
        let csv = Filename.concat dir "csv" in
        checki "ablate --csv succeeds" 0
          (exit_of
             [ "ablate"; "-b"; "gzip"; "-s"; "scheduling"; "--csv"; csv ]);
        checkb "ablate --csv writes the study's table" true
          (String.starts_with ~prefix:"Ablation: per-block vs trace scheduling"
             (In_channel.with_open_text
                (Filename.concat csv "ablation-scheduling.csv")
                In_channel.input_all));
        checki "an unwritable --csv directory is usage (1)" 1
          (exit_of
             [
               "ablate"; "-b"; "gzip"; "-s"; "scheduling"; "--csv";
               Filename.concat (Filename.concat dir "missing") "csv";
             ]);
        (* An output directory under a missing parent is refused before
           any work starts, by every command that takes one. *)
        let missing = Filename.concat (Filename.concat dir "missing") "out" in
        List.iter
          (fun (what, args) ->
            checki (what ^ " under a missing parent is usage (1)") 1
              (exit_of args))
          [
            ("sweep --checkpoint", [ "sweep"; "-b"; "gzip"; "--max-steps"; "1000";
                                     "--checkpoint"; missing ]);
            ("chaos --dir", [ "chaos"; "--max-steps"; "1000"; "--dir"; missing ]);
            ( "chaos --serve --dir",
              [ "chaos"; "--serve"; "--max-steps"; "1000"; "--dir"; missing ] );
            ( "chaos --summary",
              [ "chaos"; "--max-steps"; "1000"; "--dir"; Filename.concat dir "chaos";
                "--summary"; Filename.concat missing "s.json" ] );
            ("profile --out-dir", [ "profile"; "gzip"; "--max-steps"; "1000";
                                    "--out-dir"; missing ]);
            ( "profile -o",
              [ "profile"; "gzip"; "--max-steps"; "1000"; "--out-dir"; dir; "-o";
                Filename.concat missing "g.prof" ] );
            ("trace --out-dir", [ "trace"; "gzip"; "--max-steps"; "1000";
                                  "--out-dir"; missing ]);
            ( "serve --journal",
              [ "serve"; "--socket"; Filename.concat dir "s.sock"; "--journal";
                Filename.concat missing "journal"; "--quiet" ] );
            ( "dbt --snapshot",
              [ "dbt"; good; "--snapshot-every"; "1"; "--snapshot";
                Filename.concat missing "s.snap" ] );
            ( "cache --csv",
              [ "cache"; "gzip"; "--max-steps"; "1000"; "--frac"; "1.0"; "--csv";
                Filename.concat missing "c.csv" ] );
            ( "fuzz --summary",
              [ "fuzz"; "--budget"; "1"; "--corpus"; Filename.concat dir "corpus";
                "--summary"; Filename.concat missing "s.json" ] );
          ];
        checkb "no command made the missing parent" false
          (Sys.file_exists (Filename.dirname missing));
        checki "cache --csv DIR succeeds" 0
          (exit_of
             [ "cache"; "gzip"; "--max-steps"; "1000"; "--frac"; "1.0"; "--csv";
               dir ]);
        checkb "cache --csv DIR writes the name results/ holds" true
          (Sys.file_exists (Filename.concat dir "cache-sweep.csv"));
        (* A capacity fraction must be finite and positive; a huge one
           saturates the capacity, so the cache never binds. *)
        List.iter
          (fun frac ->
            checki ("cache --frac " ^ frac ^ " is usage (1)") 1
              (exit_of
                 [ "cache"; "gzip"; "--max-steps"; "1000"; "-j"; "1";
                   "--frac=" ^ frac ]))
          [ "nan"; "inf"; "-inf"; "0"; "-1" ];
        let huge = Filename.concat dir "huge.out" in
        checki "cache --frac 1e300 succeeds" 0
          (exit_to huge
             [ "cache"; "gzip"; "--max-steps"; "10000"; "-j"; "1"; "--frac";
               "1e300" ]);
        let rows =
          In_channel.with_open_text huge In_channel.input_all
          |> String.split_on_char '\n' |> List.map String.trim
          |> List.filter (String.starts_with ~prefix:"gzip/")
        in
        checki "cache --frac 1e300 prints a row per policy" 3
          (List.length rows);
        List.iter
          (fun row ->
            checkb (row ^ " costs the unbounded cycles") true
              (List.mem "1.000"
                 (String.split_on_char ' ' row
                 |> List.filter (fun w -> w <> ""))))
          rows;
        checki "unknown study is usage (1)" 1 (exit_of [ "ablate"; "-s"; "no-such" ]);
        checki "unknown ablation benchmark is usage (1)" 1
          (exit_of [ "ablate"; "-b"; "no-such"; "-s"; "scheduling" ]);
        (* Every subcommand that takes a suite benchmark refuses an
           unknown name before any work. *)
        List.iter
          (fun (what, args) ->
            checki ("unknown " ^ what ^ " benchmark is usage (1)") 1
              (exit_of args))
          [
            ("sweep -b", [ "sweep"; "-b"; "no-such"; "--max-steps"; "1000" ]);
            ("faults", [ "faults"; "no-such"; "--trials"; "1" ]);
            ("cache", [ "cache"; "no-such"; "--max-steps"; "1000" ]);
            ( "chaos -b",
              [ "chaos"; "-b"; "no-such"; "--max-steps"; "1000"; "--dir";
                Filename.concat dir "chaos-unknown" ] );
          ];
        (* --jobs outside 1-127 (the runtime's domain cap, less the
           calling domain) is refused before any work; one task would
           run inline, so neither case could start a domain. *)
        List.iter
          (fun jobs ->
            checki ("--jobs " ^ jobs ^ " is usage (1)") 1
              (exit_of [ "fuzz"; "--budget"; "1"; "--jobs"; jobs ]))
          [ "0"; "128" ];
        (* A negative count or step flag, and a queue limit or a cache
           capacity below 1, are refused by one converter before any
           work: no sweep, fault campaign or daemon starts.  Zero keeps
           its meaning where it has one. *)
        let sock = Filename.concat dir "refused.sock" in
        List.iter
          (fun (what, args) -> checki (what ^ " is usage (1)") 1 (exit_of args))
          [
            ( "sweep --max-steps=-5",
              [ "sweep"; "-b"; "gzip"; "--max-steps=-5" ] );
            ( "cache --threshold=-1",
              [ "cache"; "gzip"; "--max-steps"; "1000"; "--threshold=-1" ] );
            ( "sweep --supervise --retries=-2",
              [ "sweep"; "-b"; "gzip"; "--max-steps"; "1000"; "--supervise";
                "--retries=-2" ] );
            ( "faults --shadow=-3",
              [ "faults"; "gzip"; "--trials"; "1"; "--shadow=-3" ] );
            ( "dbt --snapshot-every=-1",
              [ "dbt"; good; "--snapshot-every=-1"; "--snapshot";
                Filename.concat dir "s.snap" ] );
            ("fuzz --budget 0", [ "fuzz"; "--budget"; "0" ]);
            ( "dbt --cache-capacity 0",
              [ "dbt"; good; "--cache-capacity"; "0" ] );
            ( "serve --queue-limit=-1",
              [ "serve"; "--socket"; sock; "--queue-limit=-1"; "--quiet" ] );
            ( "serve --queue-limit 0",
              [ "serve"; "--socket"; sock; "--queue-limit"; "0"; "--quiet" ] );
            ( "serve --warm-capacity 0",
              [ "serve"; "--socket"; sock; "--warm-capacity"; "0";
                "--quiet" ] );
          ];
        checkb "no refused daemon made its socket" false (Sys.file_exists sock);
        checki "dbt -t 0 --shadow 0 --snapshot-every 0 succeeds" 0
          (exit_of
             [ "dbt"; good; "-t"; "0"; "--shadow"; "0"; "--snapshot-every";
               "0" ]))
  end

let suite =
  [
    Alcotest.test_case "frame roundtrip" `Quick test_frame_roundtrip;
    Alcotest.test_case "frame byte-at-a-time" `Quick test_frame_byte_at_a_time;
    Alcotest.test_case "frame damage is sticky" `Quick
      test_frame_damage_is_sticky;
    Alcotest.test_case "protocol accepts" `Quick test_protocol_accepts;
    Alcotest.test_case "protocol rejects" `Quick test_protocol_rejects;
    Alcotest.test_case "cache keys canonical" `Quick test_cache_keys;
    Alcotest.test_case "journal roundtrip and torn tail" `Quick
      test_journal_roundtrip_and_torn_tail;
    Alcotest.test_case "journal record encoding" `Quick
      test_journal_record_encoding;
    Alcotest.test_case "warm cache bounded lru" `Quick
      test_warm_cache_bounded_lru;
    Alcotest.test_case "server probes and validation" `Quick
      test_server_probes_and_validation;
    Alcotest.test_case "server backpressure and disconnect" `Quick
      test_server_backpressure_and_disconnect;
    Alcotest.test_case "server drain refuses new work" `Quick
      test_server_drain_refuses_new_work;
    Alcotest.test_case "server sweep journal recovery" `Quick
      test_server_sweep_journal_recovery;
    Alcotest.test_case "server warm cache byte-identical" `Quick
      test_server_warm_cache_byte_identical;
    Alcotest.test_case "cli exit taxonomy" `Quick test_cli_exit_taxonomy;
  ]
