(* Robustness of sweeps: engine step deadlines, the checkpoint
   corruption matrix (truncation, bit flips, stale versions, empty and
   garbage-trailed files are classified, on disk and as text, re-run
   and repaired byte-identically at every job count and policy), and
   the chaos harness's deterministic survival of combined
   task/worker/storage faults. *)

module Error = Tpdbt_dbt.Error
module Sup = Tpdbt_parallel.Supervisor
module Runner = Tpdbt_experiments.Runner
module Checkpoint = Tpdbt_experiments.Checkpoint
module Campaign = Tpdbt_experiments.Campaign
module Spec = Tpdbt_workloads.Spec

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let job_counts = [ 1; 2; 4 ]

let mini ?(iters = 3000) name =
  {
    Spec.name;
    suite = `Int;
    units =
      [
        Spec.Branch { prob = Spec.prob 0.8 ~train:0.6; straight = 2; copies = 2 };
        Spec.Loop { trip = Spec.trip 6; jitter = 1; body = 2; copies = 1 };
      ];
    ref_iters = iters;
    train_iters = 800;
    ref_seed = 3L;
    train_seed = 4L;
  }

let mini_thresholds = [ ("100", 1); ("1k", 10) ]

let mini_benches () =
  [
    mini "rob-a";
    mini ~iters:4000 "rob-b";
    mini ~iters:2000 "rob-c";
    mini ~iters:3500 "rob-d";
    mini ~iters:2500 "rob-e";
  ]

let serialize_sweep sweep =
  String.concat "\n" (List.map Checkpoint.data_to_string sweep.Runner.data)

let reference benches = Reference_sweep.run ~thresholds:mini_thresholds benches

let sweep ?jobs ?policy ?dir ?progress ?run_task benches =
  Runner.run_sweep ~thresholds:mini_thresholds ?jobs ?policy
    ?store:
      (Option.map
         (fun dir -> Checkpoint.store ~thresholds:mini_thresholds ~dir ())
         dir)
    ?progress ?run_task benches

let contains s sub =
  let n = String.length sub in
  let rec from i =
    i + n <= String.length s && (String.sub s i n = sub || from (i + 1))
  in
  from 0

let with_temp_dir f =
  let dir = Filename.temp_file "tpdbt-rob" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun file -> Sys.remove (Filename.concat dir file))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let read_file = Tpdbt_durable.Durable.read_file

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

(* ------------------------------------------------------------------ *)
(* Engine deadlines                                                     *)
(* ------------------------------------------------------------------ *)

let test_deadline_exceeded () =
  let bench = mini "rob-deadline" in
  (match Runner.run_benchmark_result ~thresholds:mini_thresholds bench with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("clean run failed: " ^ Error.to_string e));
  match
    Runner.run_benchmark_result ~thresholds:mini_thresholds ~deadline:500
      bench
  with
  | Ok _ -> Alcotest.fail "a 500-step deadline should have fired"
  | Error (Error.Deadline_exceeded { steps; deadline }) ->
      checki "recorded deadline" 500 deadline;
      checkb "steps past the deadline" true (steps >= deadline);
      checkb "deadline errors are fatal" true
        (Error.fatal (Error.Deadline_exceeded { steps; deadline }));
      (* ... unlike the cooperative budget, which only truncates. *)
      checkb "budget errors stay non-fatal" false
        (Error.fatal (Error.Limit_exceeded { steps; max_steps = deadline }))
  | Error e -> Alcotest.fail ("wrong error: " ^ Error.to_string e)

(* ------------------------------------------------------------------ *)
(* Checkpoint corruption matrix                                         *)
(* ------------------------------------------------------------------ *)

type damage = Truncate | Bitflip | Stale | Empty | Trailing

let damage_name = function
  | Truncate -> "truncate"
  | Bitflip -> "bitflip"
  | Stale -> "stale"
  | Empty -> "empty"
  | Trailing -> "trailing"

let apply_damage kind file =
  let text = read_file file in
  let len = String.length text in
  match kind with
  | Truncate -> write_file file (String.sub text 0 (len / 2))
  | Bitflip ->
      let b = Bytes.of_string text in
      let i = len / 2 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
      write_file file (Bytes.to_string b)
  | Stale -> (
      match String.index_opt text '\n' with
      | None -> Alcotest.fail "checkpoint has no header line"
      | Some nl ->
          write_file file
            ("TPDBT-CKPT 2" ^ String.sub text nl (len - nl)))
  | Empty -> write_file file ""
  | Trailing -> write_file file (text ^ "junk\n")

let expected_class = function
  | Stale -> "stale"
  | Truncate | Bitflip | Empty | Trailing -> "corrupt"

let class_name = function
  | Checkpoint.Valid _ -> "valid"
  | Checkpoint.Missing -> "missing"
  | Checkpoint.Stale_version _ -> "stale"
  | Checkpoint.Corrupt _ -> "corrupt"

let test_corruption_classified () =
  let bench = mini "rob-classify" in
  with_temp_dir (fun dir ->
      let seed_store () =
        let _ = sweep ~dir [ bench ] in
        Checkpoint.path ~dir bench
      in
      List.iter
        (fun kind ->
          let file = seed_store () in
          checks "pristine checkpoint is valid" "valid"
            (class_name
               (Checkpoint.classify ~thresholds:mini_thresholds ~dir bench));
          apply_damage kind file;
          checks
            (damage_name kind ^ " classified")
            (expected_class kind)
            (class_name
               (Checkpoint.classify ~thresholds:mini_thresholds ~dir bench));
          checkb
            (damage_name kind ^ " not loadable")
            true
            (Checkpoint.load ~thresholds:mini_thresholds ~dir bench = None);
          Sys.remove file)
        [ Truncate; Bitflip; Stale; Empty; Trailing ];
      checks "no file is missing, not corrupt" "missing"
        (class_name
           (Checkpoint.classify ~thresholds:mini_thresholds ~dir bench)))

(* The checkpoint text as [data_of_string] sees it, finished and
   suspended: the sealed-frame property over both, then payload edits
   that once crashed the loader, each re-sealed so that only the
   payload's grammar can refuse it. *)
let test_data_of_string_rejects () =
  let bench = Test_snapshots.mini
  and thresholds = Test_snapshots.mini_thresholds in
  let finished =
    match Runner.run_benchmark_result ~thresholds bench with
    | Ok d -> Checkpoint.data_to_string d
    | Error e -> Alcotest.fail (Error.to_string e)
  in
  let classify = Checkpoint.data_of_string ~thresholds bench in
  Sealed_frames.check "finished checkpoint" finished classify;
  Sealed_frames.check "suspended checkpoint"
    (Checkpoint.partial_to_string (Test_snapshots.suspended_partial ()))
    classify;
  let magic = String.sub finished 0 (String.index finished '\n') in
  let lines =
    match Tpdbt_durable.Durable.unseal ~magic finished with
    | Tpdbt_durable.Durable.Valid payload -> String.split_on_char '\n' payload
    | _ -> Alcotest.fail "cannot unseal the finished checkpoint"
  in
  let resealed edit =
    Tpdbt_durable.Durable.seal ~magic
      (String.concat "\n" (List.mapi edit lines))
  in
  let at k line' i line = if i = k then line' else line in
  let everywhere old line' _ line = if line = old then line' else line in
  let indices p =
    List.concat (List.mapi (fun i l -> if p l then [ i ] else []) lines)
  in
  let first p = List.hd (indices p) in
  let last p = List.fold_left max 0 (indices p) in
  let starting prefix = String.starts_with ~prefix in
  (* A terminator's target is the last word of its block line. *)
  let retarget line v = String.sub line 0 (String.rindex line ' ' + 1) ^ v in
  let block_line term =
    List.nth lines
      (first (fun l ->
           starting "block " l && List.mem term (String.split_on_char ' ' l)))
  in
  let cond = block_line "cond" and fall = block_line "fall" in
  let expect what reason text =
    match classify text with
    | Checkpoint.Corrupt r when contains r reason -> ()
    | c -> Alcotest.failf "%s classified %s" what (class_name c)
  in
  expect "a negative threshold count" "negative count"
    (resealed (at (first (starting "thresholds ")) "thresholds -1"));
  expect "a negative region-stat count" "negative count"
    (resealed (at (first (starting "regstats ")) "regstats -1"));
  expect "a branch to no block, in every profile" "terminator names block -7"
    (resealed (everywhere cond (retarget cond "-7")));
  expect "a fall-through to no block, in the first profile alone"
    "terminator names block -1"
    (resealed (at (first (String.equal fall)) (retarget fall "-1")));
  (* Every stage runs the same code, so a block section that differs
     from the first profile's is damage even when it names real blocks. *)
  let elsewhere = if String.ends_with ~suffix:" 0" fall then "1" else "0" in
  expect "a fall-through elsewhere, in the last profile alone"
    "differs from the first profile's"
    (resealed (at (last (String.equal fall)) (retarget fall elsewhere)))

let test_damaged_store_repaired_across_jobs () =
  (* Five checkpoints, two damaged: the resume scan must classify the
     damage, re-run exactly the damaged benchmarks, and leave the sweep
     byte-identical to an undisturbed one — at every job count, with
     and without retries. *)
  let benches = mini_benches () in
  let reference = reference benches in
  List.iter
    (fun (policy, label) ->
      List.iter
        (fun jobs ->
          let label = Printf.sprintf "%s at -j %d" label jobs in
          with_temp_dir (fun dir ->
              let _ = sweep ~dir benches in
              apply_damage Bitflip (Checkpoint.path ~dir (List.nth benches 1));
              apply_damage Truncate
                (Checkpoint.path ~dir (List.nth benches 3));
              let statuses = ref [] in
              let progress n s =
                statuses := (n, Runner.status_name s) :: !statuses
              in
              let sweep, supervision =
                sweep ~jobs ~policy ~progress ~dir benches
              in
              checks
                ("corrupt entries found " ^ label)
                "rob-b,rob-d"
                (String.concat "," (List.map fst supervision.Runner.corrupt));
              List.iter
                (fun (n, expect) ->
                  checkb
                    (Printf.sprintf "%s %s %s" n expect label)
                    true
                    (List.mem (n, expect) !statuses))
                [
                  ("rob-a", "resumed");
                  ("rob-b", "ok");
                  ("rob-c", "resumed");
                  ("rob-d", "ok");
                ];
              checki ("nothing poisoned " ^ label) 0
                (List.length supervision.Runner.poisoned);
              checks
                ("repaired sweep byte-identical " ^ label)
                (serialize_sweep reference) (serialize_sweep sweep);
              (* The re-run rewrote valid checkpoints in place. *)
              List.iter
                (fun b ->
                  checks
                    (b.Spec.name ^ " checkpoint valid again")
                    "valid"
                    (class_name
                       (Checkpoint.classify ~thresholds:mini_thresholds ~dir b)))
                benches))
        job_counts)
    [ (Sup.one_attempt, "one attempt"); (Sup.default_policy, "supervised") ]

let test_save_durable_rename () =
  (* [save] publishes via temp file + fsync + rename + directory
     fsync.  The matrix above covers damaged {e contents}; this covers
     the publication itself: re-saving over an existing checkpoint
     (rename onto an existing name, both fsync paths taken) leaves a
     valid byte-identical file and no temp residue to be mistaken for
     a checkpoint. *)
  with_temp_dir (fun dir ->
      let bench = mini "rob-durable" in
      let sweep, _ = sweep ~dir [ bench ] in
      let data = List.hd sweep.Runner.data in
      let file = Checkpoint.path ~dir bench in
      let first = read_file file in
      Checkpoint.save ~dir data;
      checks "re-save over existing file is byte-identical" first
        (read_file file);
      checks "still valid after re-save" "valid"
        (class_name
           (Checkpoint.classify ~thresholds:mini_thresholds ~dir bench));
      checkb "no temp residue" true
        (Array.for_all
           (fun f -> not (Filename.check_suffix f ".tmp"))
           (Sys.readdir dir)))

(* ------------------------------------------------------------------ *)
(* Degraded pool composed with checkpoint resume                        *)
(* ------------------------------------------------------------------ *)

let test_degraded_pool_resumes_checkpoints () =
  (* Two failure layers at once: half the store already has
     checkpoints (resume), and every fresh benchmark crashes its
     worker on first attempt — a 2-worker pool drops below 2 live
     workers and degrades to inline execution.  The sweep must still
     converge byte-identically: resumed data untouched, crashed tasks
     retried to completion, nothing poisoned. *)
  let benches = mini_benches () in
  let reference = reference benches in
  with_temp_dir (fun dir ->
      let seeded = List.filteri (fun i _ -> i < 2) benches in
      let _ = sweep ~dir seeded in
      let resumed = ref 0 in
      let progress _ = function
        | Runner.Resumed -> incr resumed
        | _ -> ()
      in
      (* Only fresh benchmarks become tasks, so this crashes exactly
         the un-checkpointed ones. *)
      let fresh = List.length benches - 2 in
      let run_task ~attempt _ run =
        if attempt = 1 then raise Sup.Crash_worker else run ()
      in
      let sweep, supervision =
        sweep ~jobs:2 ~policy:Sup.default_policy ~progress ~run_task ~dir
          benches
      in
      let sup = supervision.Runner.sup in
      checki "two benchmarks resumed" 2 !resumed;
      checki "every fresh task crashed a worker" fresh sup.Sup.crashes;
      checkb "pool degraded below two live workers" true sup.Sup.degraded;
      checki "crashes retried, nothing poisoned" 0
        (List.length supervision.Runner.poisoned);
      checks "degraded+resumed sweep byte-identical"
        (serialize_sweep reference) (serialize_sweep sweep);
      List.iter
        (fun b ->
          checks
            (b.Spec.name ^ " checkpoint valid after degraded run")
            "valid"
            (class_name
               (Checkpoint.classify ~thresholds:mini_thresholds ~dir b)))
        benches)

(* ------------------------------------------------------------------ *)
(* Supervised sweep equivalence and chaos determinism                   *)
(* ------------------------------------------------------------------ *)

let test_supervised_matches_plain_sweep () =
  let benches = mini_benches () in
  let reference = reference benches in
  List.iter
    (fun jobs ->
      let sweep, supervision =
        sweep ~jobs ~policy:Sup.default_policy benches
      in
      checks
        (Printf.sprintf "fault-free supervised sweep identical at -j %d" jobs)
        (serialize_sweep reference) (serialize_sweep sweep);
      checki "one attempt per task" (List.length benches)
        supervision.Runner.sup.Sup.attempts;
      checki "no retries" 0 supervision.Runner.sup.Sup.retries;
      checki "nothing poisoned" 0 supervision.Runner.sup.Sup.poisoned)
    job_counts

let test_chaos_deterministic_across_jobs () =
  (* The acceptance scenario: a worker crash, a checkpoint bit flip, a
     deadline-stalled workload and a kill at an arbitrary seeded guest
     instruction in one sweep.  The summary — poisoned, retried, crash,
     corrupt and resumed-from-snapshot sets included — must be
     byte-identical across -j 1/2/4 and repeated same-seed runs, and
     every non-poisoned benchmark (the resumed kill victim included)
     must match the fault-free sequential reference. *)
  let benches = mini_benches () in
  let run jobs =
    with_temp_dir (fun dir ->
        Campaign.chaos ~jobs ~benches ~thresholds:mini_thresholds ~dir
          ~seed:11L ())
  in
  let reference = run 1 in
  checkb "chaos survived" true (Campaign.chaos_ok reference);
  checki "a workload was poisoned (the stall)" 1
    (List.length reference.Campaign.poisoned_benches);
  checki "a checkpoint was corrupted" 1
    (List.length reference.Campaign.corrupt_checkpoints);
  checkb "a worker crashed" true (reference.Campaign.worker_crashes >= 1);
  checkb "tasks were retried" true (reference.Campaign.retried >= 1);
  checki "the kill victim resumed from its mid-run snapshot" 1
    (List.length reference.Campaign.resumed_from_snapshot);
  (let kill_victim =
     List.find_map
       (fun (n, f) -> if f = Campaign.Kill then Some n else None)
       reference.Campaign.injected_faults
   in
   checkb "the resumed benchmark is the kill victim" true
     (kill_victim = Some (List.hd reference.Campaign.resumed_from_snapshot));
   checkb "the kill victim survived byte-identically" true
     (match kill_victim with
     | Some n -> List.mem n reference.Campaign.survivors
     | None -> false));
  checki "survivors are everyone else"
    (List.length benches - 1)
    (List.length reference.Campaign.survivors);
  List.iter
    (fun jobs ->
      checks
        (Printf.sprintf "chaos summary identical at -j %d" jobs)
        (Campaign.chaos_to_json reference)
        (Campaign.chaos_to_json (run jobs)))
    (List.tl job_counts);
  checks "chaos summary identical on a repeated run"
    (Campaign.chaos_to_json reference)
    (Campaign.chaos_to_json (run 1));
  (* A different seed deals different faults but must still survive. *)
  let other =
    with_temp_dir (fun dir ->
        Campaign.chaos ~jobs:2 ~benches ~thresholds:mini_thresholds ~dir
          ~seed:12L ())
  in
  checkb "other seed survived" true (Campaign.chaos_ok other)

let suite =
  [
    Alcotest.test_case "deadline exceeded" `Quick test_deadline_exceeded;
    Alcotest.test_case "corruption classified" `Quick
      test_corruption_classified;
    Alcotest.test_case "data_of_string rejects damage" `Quick
      test_data_of_string_rejects;
    Alcotest.test_case "damaged store repaired across jobs" `Quick
      test_damaged_store_repaired_across_jobs;
    Alcotest.test_case "save survives durable re-publication" `Quick
      test_save_durable_rename;
    Alcotest.test_case "degraded pool composed with resume" `Quick
      test_degraded_pool_resumes_checkpoints;
    Alcotest.test_case "supervised matches plain sweep" `Quick
      test_supervised_matches_plain_sweep;
    Alcotest.test_case "chaos deterministic across jobs" `Quick
      test_chaos_deterministic_across_jobs;
  ]
