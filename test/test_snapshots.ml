(* Mid-run snapshot/suspend/resume: the engine's capture/restore
   byte-identity, the serialized snapshot's corruption matrix, the v4
   suspended-checkpoint store on disk, the
   single-run CLI's suspend/resume cycle, the journal's snapshot
   breadcrumbs and damaged-header recovery, and the request client's
   deterministic backoff schedule.  Damage to the serialized snapshot
   text is the sealed-frame property (sealed_frames.ml). *)

module Engine = Tpdbt_dbt.Engine
module Snap = Tpdbt_dbt.Exec_snapshot
module Error = Tpdbt_dbt.Error
module Perf_model = Tpdbt_dbt.Perf_model
module Runner = Tpdbt_experiments.Runner
module Checkpoint = Tpdbt_experiments.Checkpoint
module Journal = Tpdbt_serve.Journal
module Spec = Tpdbt_workloads.Spec
module Durable = Tpdbt_durable.Durable

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let with_temp_dir f =
  let dir = Filename.temp_file "tpdbt-snap" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun file -> Sys.remove (Filename.concat dir file))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

(* A guest program busy enough to cross the optimisation phase (two
   loops, a branchy body) yet cheap enough for a unit test. *)
let program_source =
  {|
.entry main
main:
    movi r1, 400
    movi r2, 0
outer:
    movi r3, 12
inner:
    addi r2, r2, 3
    andi r4, r2, 7
    bgt r4, r0, skip
    addi r2, r2, 1
skip:
    subi r3, r3, 1
    bgt r3, r0, inner
    subi r1, r1, 1
    bgt r1, r0, outer
    out r2
    halt
|}

let program = Tpdbt_isa.Assembler.assemble_exn program_source

let config = Engine.config ~pool_trigger:4 ~threshold:2 ()
let seed = 11L

let uninterrupted () =
  let eng = Engine.create ~config ~seed program in
  (Engine.run eng, eng)

(* Re-enter [run] over every [Suspended], giving [f] the engine at each
   suspension; returns the final (non-suspended) result. *)
let run_through f eng =
  let rec go () =
    let r = Engine.run eng in
    match r.Engine.error with
    | Some (Error.Suspended _) ->
        f eng;
        go ()
    | _ -> r
  in
  go ()

let same_result what (a : Engine.result) (b : Engine.result) =
  checki (what ^ ": steps") a.Engine.steps b.Engine.steps;
  checkb (what ^ ": cycles") true
    (Float.equal a.Engine.counters.Perf_model.cycles
       b.Engine.counters.Perf_model.cycles);
  checkb (what ^ ": outputs") true (a.Engine.outputs = b.Engine.outputs);
  checki (what ^ ": regions formed")
    a.Engine.counters.Perf_model.regions_formed
    b.Engine.counters.Perf_model.regions_formed;
  checki (what ^ ": region entries")
    a.Engine.counters.Perf_model.region_entries
    b.Engine.counters.Perf_model.region_entries;
  checkb (what ^ ": error" ) true (a.Engine.error = b.Engine.error)

(* ------------------------------------------------------------------ *)
(* Engine capture/restore                                               *)
(* ------------------------------------------------------------------ *)

let test_snapshot_trigger_invisible () =
  let reference, _ = uninterrupted () in
  let sus_config = { config with Engine.snapshot_every = 1_000 } in
  let eng = Engine.create ~config:sus_config ~seed program in
  let suspensions = ref 0 in
  let final = run_through (fun _ -> incr suspensions) eng in
  checkb "the trigger actually fired" true (!suspensions > 2);
  same_result "snapshot trigger" reference final

let test_serialized_resume_identity () =
  let reference, _ = uninterrupted () in
  let sus_config =
    { config with Engine.deadline = Some 2_000; suspend_on_deadline = true }
  in
  let eng = Engine.create ~config:sus_config ~seed program in
  let first = Engine.run eng in
  checkb "suspended at the deadline" true (Engine.suspended first);
  (* Full round trip: capture -> text -> parse -> restore (without the
     trigger) -> complete. *)
  let text = Snap.to_string ~config:sus_config ~program (Engine.capture eng) in
  let resumed =
    match Durable.to_result ~what:"snapshot" (Snap.of_string text) with
    | Ok parsed -> (
        match Snap.restore ~config ~program parsed with
        | Ok eng2 -> eng2
        | Error msg -> Alcotest.fail ("restore rejected: " ^ msg))
    | Error msg -> Alcotest.fail msg
  in
  same_result "serialized resume" reference (Engine.run resumed)

let test_restore_refuses_mismatch () =
  let sus_config =
    { config with Engine.deadline = Some 2_000; suspend_on_deadline = true }
  in
  let eng = Engine.create ~config:sus_config ~seed program in
  ignore (Engine.run eng);
  let parsed =
    match
      Snap.of_string
        (Snap.to_string ~config:sus_config ~program (Engine.capture eng))
    with
    | Durable.Valid p -> p
    | _ -> Alcotest.fail "round trip failed"
  in
  (* A config that steers execution differently must be refused... *)
  let other = Engine.config ~pool_trigger:4 ~threshold:50 () in
  checkb "different threshold refused" true
    (Result.is_error (Snap.restore ~config:other ~program parsed));
  (* ...while trigger-only differences are accepted by design (the
     resume re-arms its own triggers). *)
  checkb "trigger-only change accepted" true
    (Result.is_ok (Snap.restore ~config ~program parsed));
  let other_program =
    Tpdbt_isa.Assembler.assemble_exn "movi r1, 1\nout r1\nhalt\n"
  in
  checkb "different program refused" true
    (Result.is_error (Snap.restore ~config ~program:other_program parsed))

(* ------------------------------------------------------------------ *)
(* Snapshot text corruption matrix                                      *)
(* ------------------------------------------------------------------ *)

let snapshot_text () =
  let sus_config =
    { config with Engine.deadline = Some 2_000; suspend_on_deadline = true }
  in
  let eng = Engine.create ~config:sus_config ~seed program in
  ignore (Engine.run eng);
  Snap.to_string ~config:sus_config ~program (Engine.capture eng)

let test_snapshot_text_corruption_matrix () =
  let text = snapshot_text () in
  (match Snap.of_string text with
  | Durable.Valid parsed ->
      let i = Snap.info parsed in
      checkb "info reports the suspension point" true (i.Snap.steps > 0);
      checkb "not halted mid-run" false i.Snap.halted
  | _ -> Alcotest.fail "intact snapshot rejected");
  Sealed_frames.check "engine snapshot" text Snap.of_string
    ~restore:(fun parsed -> ignore (Snap.restore ~config ~program parsed))

(* ------------------------------------------------------------------ *)
(* v4 suspended-checkpoint store                                        *)
(* ------------------------------------------------------------------ *)

let mini =
  {
    Spec.name = "snap-mini";
    suite = `Int;
    units =
      [
        Spec.Branch
          { prob = Spec.prob 0.8 ~train:0.6; straight = 2; copies = 2 };
        Spec.Loop { trip = Spec.trip 6; jitter = 1; body = 2; copies = 1 };
      ];
    ref_iters = 3000;
    train_iters = 800;
    ref_seed = 3L;
    train_seed = 4L;
  }

let mini_thresholds = [ ("100", 1); ("1k", 10) ]

let suspended_partial () =
  let captured = ref None in
  match
    Runner.run_benchmark_result ~thresholds:mini_thresholds ~deadline:2_000
      ~suspend_on_deadline:true
      ~on_snapshot:(fun p -> captured := Some p)
      mini
  with
  | Error (Error.Suspended _) -> (
      match !captured with
      | Some p -> p
      | None -> Alcotest.fail "suspension published no partial")
  | Ok _ -> Alcotest.fail "benchmark finished under a 2k deadline"
  | Error e -> Alcotest.fail ("unexpected error: " ^ Error.to_string e)

let test_suspended_store_corruption_matrix () =
  with_temp_dir (fun dir ->
      let partial = suspended_partial () in
      Checkpoint.save_suspended ~dir partial;
      let path = Checkpoint.path ~dir mini in
      let text = Durable.read_file path in
      (match Checkpoint.classify ~thresholds:mini_thresholds ~dir mini with
      | Checkpoint.Valid (Checkpoint.Suspended p) ->
          checks "round-tripped snapshot text" partial.Runner.p_snapshot
            p.Runner.p_snapshot;
          checkb "interrupted stage preserved" true
            (p.Runner.p_next = partial.Runner.p_next)
      | _ -> Alcotest.fail "intact suspended checkpoint rejected");
      checkb "load_suspended sees it" true
        (Option.is_some
           (Checkpoint.load_suspended ~thresholds:mini_thresholds ~dir mini));
      checkb "load (finished) refuses it" true
        (Option.is_none
           (Checkpoint.load ~thresholds:mini_thresholds ~dir mini));
      (* Damage on disk reaches the store's classification and keeps the
         slot from resuming; every damage class is the property test's. *)
      let damage name text expect_stale =
        write_file path text;
        (match Checkpoint.classify ~thresholds:mini_thresholds ~dir mini with
        | Checkpoint.Corrupt _ -> checkb (name ^ " corrupt") false expect_stale
        | Checkpoint.Stale_version _ ->
            checkb (name ^ " stale") true expect_stale
        | Checkpoint.Valid _ | Checkpoint.Missing ->
            Alcotest.fail (name ^ " not classified as damage"));
        checkb (name ^ ": load_suspended refuses") true
          (Option.is_none
             (Checkpoint.load_suspended ~thresholds:mini_thresholds ~dir mini))
      in
      damage "truncation" (String.sub text 0 (String.length text / 2)) false;
      let n = String.length "TPDBT-CKPT 4" in
      damage "stale v3 magic"
        ("TPDBT-CKPT 3" ^ String.sub text n (String.length text - n))
        true)

let test_suspended_resume_byte_identity () =
  with_temp_dir (fun dir ->
      let partial = suspended_partial () in
      Checkpoint.save_suspended ~dir partial;
      let resumed =
        match
          Runner.run_benchmark_result ~thresholds:mini_thresholds
            ?resume:
              (Checkpoint.load_suspended ~thresholds:mini_thresholds ~dir mini)
            mini
        with
        | Ok d -> d
        | Error e -> Alcotest.fail ("resume failed: " ^ Error.to_string e)
      in
      let straight =
        match
          Runner.run_benchmark_result ~thresholds:mini_thresholds mini
        with
        | Ok d -> d
        | Error e -> Alcotest.fail ("straight run failed: " ^ Error.to_string e)
      in
      checks "resumed data serializes byte-identically"
        (Checkpoint.data_to_string straight)
        (Checkpoint.data_to_string resumed))

(* ------------------------------------------------------------------ *)
(* One guest pass: group suspension and per-stage slots                 *)
(* ------------------------------------------------------------------ *)

let straight_data () =
  match Runner.run_benchmark_result ~thresholds:mini_thresholds mini with
  | Ok d -> d
  | Error e -> Alcotest.fail ("straight run failed: " ^ Error.to_string e)

let group_members () =
  let program, ref_input, _ = Spec.build mini in
  ( Spec.apply_input program ref_input,
    ("avep", Engine.profiling_only)
    :: List.map
         (fun (label, t) -> (label, Engine.config ~threshold:t ()))
         mini_thresholds )

let in_region text =
  match Snap.group_of_string text with
  | Durable.Valid g ->
      List.exists
        (fun (at, _) ->
          match at with Engine.In_region _ -> true | _ -> false)
        g.Snap.gp_image.Engine.gi_members
  | _ -> Alcotest.fail "group snapshot does not parse"

(* The first of a seeded run of block boundaries at which the reference
   group suspends with a member inside a region. *)
let group_suspended_in_region () =
  let rng = Tpdbt_vm.Prng.create ~seed:23L in
  let rec attempt k =
    if k = 0 then Alcotest.fail "no suspension found a member in a region"
    else
      let deadline = 500 + Tpdbt_vm.Prng.below rng 20_000 in
      let captured = ref None in
      match
        Runner.run_benchmark_result ~thresholds:mini_thresholds ~deadline
          ~suspend_on_deadline:true
          ~on_snapshot:(fun p -> captured := Some p)
          mini
      with
      | Error (Error.Suspended _) -> (
          match !captured with
          | Some p when Snap.is_group p.Runner.p_snapshot
                        && in_region p.Runner.p_snapshot ->
              p
          | Some _ -> attempt (k - 1)
          | None -> Alcotest.fail "suspension published no partial")
      | _ -> Alcotest.fail "the group did not suspend at its deadline"
  in
  attempt 50

let test_group_resume_in_region () =
  with_temp_dir (fun dir ->
      let partial = group_suspended_in_region () in
      checkb "the group stands at its first stage" true
        (partial.Runner.p_next = Runner.Avep && partial.Runner.p_done = []);
      Checkpoint.save_suspended ~dir partial;
      let resumed =
        match
          Runner.run_benchmark_result ~thresholds:mini_thresholds
            ?resume:
              (Checkpoint.load_suspended ~thresholds:mini_thresholds ~dir mini)
            mini
        with
        | Ok d -> d
        | Error e -> Alcotest.fail ("resume failed: " ^ Error.to_string e)
      in
      checks "resumed group serializes byte-identically"
        (Checkpoint.data_to_string (straight_data ()))
        (Checkpoint.data_to_string resumed))

(* A suspended slot as the performance ledger's stage-by-stage pipeline
   writes it: finished AVEP and training stages, and one threshold
   stage's own engine image.  It must resume to the same bytes. *)
let test_per_stage_slot_resumes () =
  with_temp_dir (fun dir ->
      let program, ref_input, train_input = Spec.build mini in
      let finish config (input : Spec.input) =
        Engine.run
          (Engine.create ~config ~seed:input.Spec.seed
             (Spec.apply_input program input))
      in
      let avep = finish Engine.profiling_only ref_input in
      let train = finish Engine.profiling_only train_input in
      let label, t = List.hd mini_thresholds in
      let config =
        { (Engine.config ~threshold:t ()) with Engine.snapshot_every = 1_000 }
      in
      let aprogram = Spec.apply_input program ref_input in
      let eng = Engine.create ~config ~seed:ref_input.Spec.seed aprogram in
      checkb "the threshold stage suspended" true
        (Engine.suspended (Engine.run eng));
      Checkpoint.save_suspended ~dir
        {
          Runner.p_bench = mini;
          p_thresholds = mini_thresholds;
          p_done = [ (Runner.Avep, avep); (Runner.Train, train) ];
          p_next = Runner.Threshold (label, t);
          p_snapshot =
            Snap.to_string ~config ~program:aprogram (Engine.capture eng);
        };
      match Checkpoint.classify ~thresholds:mini_thresholds ~dir mini with
      | Checkpoint.Valid (Checkpoint.Suspended p) ->
          let resumed =
            match
              Runner.run_benchmark_result ~thresholds:mini_thresholds
                ~resume:p mini
            with
            | Ok d -> d
            | Error e -> Alcotest.fail ("resume failed: " ^ Error.to_string e)
          in
          checks "per-stage slot resumes byte-identically"
            (Checkpoint.data_to_string (straight_data ()))
            (Checkpoint.data_to_string resumed)
      | Checkpoint.Stale_version _ -> ()
      | _ -> Alcotest.fail "per-stage slot misread")

let test_group_record_frames () =
  let partial = group_suspended_in_region () in
  let program, members = group_members () in
  Sealed_frames.check "group snapshot" partial.Runner.p_snapshot
    Snap.group_of_string ~restore:(fun parsed ->
      ignore (Snap.group_restore ~program members parsed))

(* ------------------------------------------------------------------ *)
(* Single-run CLI: tpdbt dbt --suspend-after / --snapshot / --resume-run *)
(* ------------------------------------------------------------------ *)

let tpdbt = Filename.concat (Filename.concat ".." "bin") "tpdbt.exe"

let tpdbt_ok ~stdout args =
  match
    Unix.system
      (Filename.quote_command tpdbt args ~stdout ~stderr:Filename.null)
  with
  | Unix.WEXITED 0 -> ()
  | _ -> Alcotest.failf "tpdbt %s failed" (String.concat " " args)

let test_cli_snapshot_rewrite_atomic () =
  if not (Sys.file_exists tpdbt) then Alcotest.skip ()
  else
    with_temp_dir (fun dir ->
        let src = Filename.concat dir "loop.s" in
        let snap = Filename.concat dir "run.snap" in
        let out name = Filename.concat dir name in
        write_file src program_source;
        tpdbt_ok ~stdout:(out "ref.out") [ "dbt"; src ];
        tpdbt_ok ~stdout:Filename.null
          [ "dbt"; src; "--suspend-after"; "2000"; "--snapshot"; snap ];
        let inode () = (Unix.stat snap).Unix.st_ino in
        let before = inode () in
        (* Resuming from F and snapshotting into F again: an in-place
           rewrite would destroy the only copy of the state if killed
           mid-write. *)
        tpdbt_ok ~stdout:Filename.null
          [
            "dbt"; src; "--resume-run"; snap; "--suspend-after"; "6000";
            "--snapshot"; snap;
          ];
        checkb "snapshot replaced by rename, not rewritten in place" true
          (inode () <> before);
        checkb "no temp file left behind" false
          (Sys.file_exists (snap ^ ".tmp"));
        tpdbt_ok ~stdout:(out "res.out") [ "dbt"; src; "--resume-run"; snap ];
        checks "twice-resumed run prints the uninterrupted output"
          (Durable.read_file (out "ref.out"))
          (Durable.read_file (out "res.out")))

(* ------------------------------------------------------------------ *)
(* Journal: snapshot refs and damaged-header recovery                   *)
(* ------------------------------------------------------------------ *)

let test_journal_snapshot_refs () =
  let r = Journal.Snapshot_ref { id = 7; bench = "gzip" } in
  checkb "snapshot_ref round trip" true
    (Journal.record_of_string (Journal.record_to_string r) = Some r);
  checkb "snapshot_ref without bench rejected" true
    (Journal.record_of_string "snapshot_ref 7" = None);
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "journal" in
      let j, _ = Journal.open_ ~path in
      Journal.append j (Journal.Sweep_begin { id = 1; benches = [ "a"; "b" ] });
      Journal.append j (Journal.Snapshot_ref { id = 1; bench = "a" });
      Journal.append j (Journal.Snapshot_ref { id = 1; bench = "b" });
      (* A second snapshot of the same bench dedups to one ref. *)
      Journal.append j (Journal.Snapshot_ref { id = 1; bench = "a" });
      Journal.append j (Journal.Sweep_begin { id = 2; benches = [ "c" ] });
      Journal.append j (Journal.Snapshot_ref { id = 2; bench = "c" });
      Journal.close j;
      let j, r = Journal.open_ ~path in
      checkb "refs of in-flight sweeps survive, deduped, first-ref order"
        true
        (r.Journal.snapshot_refs = [ (1, "a"); (1, "b"); (2, "c") ]);
      (* Ending sweep 1 drops its refs... *)
      Journal.append j (Journal.Sweep_end { id = 1 });
      Journal.close j;
      let j, r = Journal.open_ ~path in
      checkb "ended sweep's refs dropped" true
        (r.Journal.snapshot_refs = [ (2, "c") ]);
      (* ...and a drain clears everything. *)
      Journal.append j Journal.Drained;
      Journal.close j;
      let j, r = Journal.open_ ~path in
      checkb "drain clears refs" true (r.Journal.snapshot_refs = []);
      checkb "drain clears inflight" true (r.Journal.inflight = []);
      Journal.close j)

let test_journal_zero_length_and_torn_header () =
  with_temp_dir (fun dir ->
      (* Zero-length file: not a valid journal (no header could have
         been written durably) — crash-only recovery starts over. *)
      let path = Filename.concat dir "empty" in
      write_file path "";
      let j, r = Journal.open_ ~path in
      checki "zero-length: nothing recovered" 0 r.Journal.records;
      checki "zero-length: reported as damage" 1 r.Journal.torn;
      Journal.append j (Journal.Sweep_begin { id = 1; benches = [ "x" ] });
      Journal.close j;
      let j, r = Journal.open_ ~path in
      checki "restarted journal is healthy" 1 r.Journal.records;
      checki "no damage after restart" 0 r.Journal.torn;
      Journal.close j;
      (* Torn header: a crash mid-write of the magic line itself. *)
      let torn = Filename.concat dir "torn" in
      write_file torn "TPDBT-JR";
      let j, r = Journal.open_ ~path:torn in
      checki "torn header: nothing recovered" 0 r.Journal.records;
      checki "torn header: reported as damage" 1 r.Journal.torn;
      checkb "torn header: inflight empty" true (r.Journal.inflight = []);
      Journal.close j)

(* ------------------------------------------------------------------ *)
(* Client backoff schedule                                              *)
(* ------------------------------------------------------------------ *)

let test_retry_delays_deterministic () =
  let a = Tpdbt_serve.Daemon.retry_delays ~retries:5 ~seed:42L in
  let b = Tpdbt_serve.Daemon.retry_delays ~retries:5 ~seed:42L in
  checkb "same seed, same schedule" true (a = b);
  checki "one delay per retry" 5 (List.length a);
  List.iteri
    (fun k d ->
      let base = 0.05 *. (2. ** float_of_int k) in
      checkb
        (Printf.sprintf "delay %d within jitter band" k)
        true
        (d >= 0.5 *. base && d < 1.5 *. base))
    a;
  checkb "distinct seeds decorrelate" true
    (a <> Tpdbt_serve.Daemon.retry_delays ~retries:5 ~seed:43L);
  checkb "no retries, no delays" true
    (Tpdbt_serve.Daemon.retry_delays ~retries:0 ~seed:42L = []);
  checkb "negative retries, no delays" true
    (Tpdbt_serve.Daemon.retry_delays ~retries:(-3) ~seed:42L = [])

let suite =
  [
    Alcotest.test_case "snapshot trigger is invisible" `Quick
      test_snapshot_trigger_invisible;
    Alcotest.test_case "serialized resume is byte-identical" `Quick
      test_serialized_resume_identity;
    Alcotest.test_case "restore refuses config/program mismatch" `Quick
      test_restore_refuses_mismatch;
    Alcotest.test_case "snapshot text corruption matrix" `Quick
      test_snapshot_text_corruption_matrix;
    Alcotest.test_case "suspended store corruption matrix" `Quick
      test_suspended_store_corruption_matrix;
    Alcotest.test_case "suspended resume byte identity" `Quick
      test_suspended_resume_byte_identity;
    Alcotest.test_case "group resumes from inside a region" `Quick
      test_group_resume_in_region;
    Alcotest.test_case "per-stage suspended slot resumes" `Quick
      test_per_stage_slot_resumes;
    Alcotest.test_case "group record corruption matrix" `Quick
      test_group_record_frames;
    Alcotest.test_case "dbt --snapshot rewrites atomically" `Quick
      test_cli_snapshot_rewrite_atomic;
    Alcotest.test_case "journal snapshot refs" `Quick
      test_journal_snapshot_refs;
    Alcotest.test_case "journal zero-length and torn header" `Quick
      test_journal_zero_length_and_torn_header;
    Alcotest.test_case "retry delays deterministic" `Quick
      test_retry_delays_deterministic;
  ]
