(* Fault injection, typed recovery and resumable sweeps: plan
   determinism, injector mechanics, machine-level typed traps, engine
   recovery equivalence, and checkpoint byte-identity. *)

module Assembler = Tpdbt_isa.Assembler
module Program = Tpdbt_isa.Program
module Instr = Tpdbt_isa.Instr
module Machine = Tpdbt_vm.Machine
module Engine = Tpdbt_dbt.Engine
module Error = Tpdbt_dbt.Error
module Perf_model = Tpdbt_dbt.Perf_model
module Fault = Tpdbt_faults.Fault
module Plan = Tpdbt_faults.Plan
module Injector = Tpdbt_faults.Injector
module Spec = Tpdbt_workloads.Spec
module Runner = Tpdbt_experiments.Runner
module Checkpoint = Tpdbt_experiments.Checkpoint
module Campaign = Tpdbt_experiments.Campaign

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let hot_loop_src =
  {|
.entry main
main:
    movi r1, 0
    movi r2, 20000
    movi r4, 0
loop:
    addi r1, r1, 1
    rnd r3, 100
    movi r5, 85
    blt r3, r5, taken
    addi r4, r4, 2
    jmp join
taken:
    addi r4, r4, 1
join:
    blt r1, r2, loop
    out r4
    out r1
    halt
|}

let run_with ?faults ?(retry_limit = 3) ~threshold src =
  let p = Assembler.assemble_exn src in
  let config = Engine.config ?faults ~retry_limit ~threshold () in
  Engine.run (Engine.create ~config ~seed:42L p)

(* -- plans ------------------------------------------------------------- *)

let test_plan_deterministic () =
  let make () = Plan.make ~count:16 ~horizon:1_000_000 ~seed:99L () in
  checkb "same seed, same plan" true (Plan.arms (make ()) = Plan.arms (make ()));
  checki "count respected" 16 (Plan.count (make ()));
  let other = Plan.make ~count:16 ~horizon:1_000_000 ~seed:100L () in
  checkb "different seed, different plan" false
    (Plan.arms (make ()) = Plan.arms other);
  let sorted = Plan.arms (make ()) in
  checkb "arms sorted by step" true
    (List.sort (fun a b -> compare a.Fault.step b.Fault.step) sorted = sorted);
  List.iter
    (fun a ->
      checkb "step in horizon" true (a.Fault.step >= 0 && a.Fault.step < 1_000_000))
    sorted

let test_plan_validation () =
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  checkb "empty kinds" true (raises (fun () ->
      Plan.make ~kinds:[] ~horizon:10 ~seed:1L ()));
  checkb "bad horizon" true (raises (fun () ->
      Plan.make ~horizon:0 ~seed:1L ()));
  checkb "negative count" true (raises (fun () ->
      Plan.make ~count:(-1) ~horizon:10 ~seed:1L ()))

(* -- injector ---------------------------------------------------------- *)

let test_injector_mechanics () =
  let arm step kind = { Fault.step; kind; salt = 0L } in
  let plan =
    Plan.of_arms ~seed:0L
      [ arm 10 Fault.Block_corrupt; arm 5 Fault.Retranslate_fail;
        arm 20 Fault.Retranslate_fail ]
  in
  let inj = Injector.create plan in
  checkb "nothing due early" false (Injector.due inj ~step:4);
  checkb "due at first step" true (Injector.due inj ~step:5);
  checkb "wrong kind not taken" true
    (Injector.take inj ~step:5 Fault.Block_corrupt = None);
  (match Injector.take inj ~step:7 Fault.Retranslate_fail with
  | Some a ->
      checki "earliest arm" 5 a.Fault.step;
      Injector.record inj a ~fired_step:7 ~target:3
  | None -> Alcotest.fail "expected an arm");
  checkb "later arm still pending" true
    (Injector.take inj ~step:7 Fault.Retranslate_fail = None);
  let report = Injector.report inj in
  checki "one fired" 1 (List.length report.Fault.fired);
  checki "two unfired" 2 (List.length report.Fault.unfired);
  checki "injected counts targets" 1 (Fault.injected report)

(* -- machine typed traps ----------------------------------------------- *)

let test_machine_poison_trap () =
  let p = Assembler.assemble_exn hot_loop_src in
  let m = Machine.create ~seed:1L p in
  Machine.poison m 3;
  checkb "poisoned queried" true (Machine.poisoned m 3);
  (match Machine.run m with
  | Error (Machine.Illegal_instruction 3) -> ()
  | Error other -> Alcotest.failf "wrong trap: %a" Machine.pp_trap other
  | Ok () -> Alcotest.fail "expected illegal-instruction trap");
  checkb "poison out of range rejected" true
    (try Machine.poison m 100_000; false with Invalid_argument _ -> true)

let test_machine_branch_out_of_range () =
  (* Program.make validates static targets, so model a corrupted code
     image by building the record directly: the machine must trap with
     a typed error rather than crash or jump wild. *)
  let p = { Program.code = [| Instr.Jmp 99 |]; entry = 0; data_init = [] } in
  let m = Machine.create ~seed:1L p in
  match Machine.run m with
  | Error (Machine.Branch_out_of_range { pc = 0; target = 99 }) -> ()
  | Error other -> Alcotest.failf "wrong trap: %a" Machine.pp_trap other
  | Ok () -> Alcotest.fail "expected branch-out-of-range trap"

(* -- engine fault recovery --------------------------------------------- *)

let test_engine_guest_trap_typed () =
  let plan =
    Plan.of_arms ~seed:0L [ { Fault.step = 500; kind = Fault.Guest_trap; salt = 0L } ]
  in
  let result = run_with ~faults:plan ~threshold:20 hot_loop_src in
  (match result.Engine.error with
  | Some (Error.Trap (Machine.Illegal_instruction _)) -> ()
  | Some other -> Alcotest.failf "wrong error: %s" (Error.to_string other)
  | None -> Alcotest.fail "expected a typed guest trap");
  match result.Engine.faults with
  | Some report -> checki "the arm fired" 1 (List.length report.Fault.fired)
  | None -> Alcotest.fail "fault report missing"

let test_engine_recovery_equivalence () =
  (* Recoverable faults must not change guest-visible behaviour. *)
  let clean = run_with ~threshold:20 hot_loop_src in
  checkb "clean run clean" true (clean.Engine.error = None);
  let plan =
    Plan.make ~kinds:Fault.recoverable_kinds ~count:6
      ~horizon:clean.Engine.steps ~seed:7L ()
  in
  let faulty = run_with ~faults:plan ~threshold:20 hot_loop_src in
  checkb "no error" true (faulty.Engine.error = None);
  checkb "same outputs" true (faulty.Engine.outputs = clean.Engine.outputs);
  checki "same steps" clean.Engine.steps faulty.Engine.steps

let test_engine_corruption_keeps_avep_counters () =
  (* Corrupting translations in a profiling-only run retranslates the
     block but must not touch its use/taken counters: the AVEP profile
     of a faulty run equals the clean one exactly. *)
  let clean = run_with ~threshold:0 hot_loop_src in
  let plan =
    Plan.make ~kinds:[ Fault.Block_corrupt ] ~count:5
      ~horizon:clean.Engine.steps ~seed:3L ()
  in
  let faulty = run_with ~faults:plan ~threshold:0 hot_loop_src in
  checkb "no error" true (faulty.Engine.error = None);
  checkb "faults landed" true
    (faulty.Engine.counters.Perf_model.faults_injected > 0);
  checkb "blocks retranslated" true
    (faulty.Engine.counters.Perf_model.blocks_retranslated > 0);
  let snap r = r.Engine.snapshot in
  checkb "use counters identical" true
    ((snap faulty).Tpdbt_dbt.Snapshot.use = (snap clean).Tpdbt_dbt.Snapshot.use);
  checkb "taken counters identical" true
    ((snap faulty).Tpdbt_dbt.Snapshot.taken
    = (snap clean).Tpdbt_dbt.Snapshot.taken)

let test_engine_retry_exhaustion () =
  (* retry_limit 0: the first injected retranslation failure is fatal —
     and fatal means a typed error, not an exception. *)
  let plan =
    Plan.of_arms ~seed:0L
      [ { Fault.step = 0; kind = Fault.Retranslate_fail; salt = 0L } ]
  in
  let result = run_with ~faults:plan ~retry_limit:0 ~threshold:20 hot_loop_src in
  match result.Engine.error with
  | Some (Error.Retranslation_failed { attempts; _ }) ->
      checkb "attempts recorded" true (attempts > 0)
  | Some other -> Alcotest.failf "wrong error: %s" (Error.to_string other)
  | None -> Alcotest.fail "expected Retranslation_failed"

let test_engine_fault_runs_deterministic () =
  let plan () = Plan.make ~count:4 ~horizon:100_000 ~seed:11L () in
  let a = run_with ~faults:(plan ()) ~threshold:20 hot_loop_src in
  let b = run_with ~faults:(plan ()) ~threshold:20 hot_loop_src in
  checkb "same error" true (a.Engine.error = b.Engine.error);
  checkb "same outputs" true (a.Engine.outputs = b.Engine.outputs);
  checki "same steps" a.Engine.steps b.Engine.steps;
  let shots r =
    match r.Engine.faults with
    | Some rep -> List.map (fun s -> (s.Fault.fired_step, s.Fault.target)) rep.Fault.fired
    | None -> []
  in
  checkb "same shots" true (shots a = shots b)

(* -- campaign ---------------------------------------------------------- *)

let mini name =
  {
    Spec.name;
    suite = `Int;
    units =
      [
        Spec.Branch { prob = Spec.prob 0.8 ~train:0.6; straight = 2; copies = 2 };
        Spec.Loop { trip = Spec.trip 6; jitter = 1; body = 2; copies = 1 };
      ];
    ref_iters = 3000;
    train_iters = 800;
    ref_seed = 3L;
    train_seed = 4L;
  }

let test_campaign_no_uncaught () =
  (* shadow_sample 1 arms the oracle: Silent_corruption arms are in the
     default kind mix, and undetected corruption classifies Uncaught. *)
  let campaign =
    Campaign.run ~threshold:5 ~trials:6 ~seed:17L ~shadow_sample:1 (mini "mini")
  in
  checki "all trials ran" 6 (List.length campaign.Campaign.trials);
  checkb "no uncaught exceptions" true (Campaign.ok campaign);
  let { Campaign.recovered; degraded; failed; uncaught } =
    Campaign.tally campaign
  in
  checki "tally covers all trials" 6 (recovered + degraded + failed + uncaught);
  checkb "renders" true
    (String.length (Format.asprintf "%a" Campaign.render campaign) > 0)

let test_campaign_deterministic () =
  let go () = Campaign.run ~threshold:5 ~trials:4 ~seed:23L (mini "mini") in
  let a = go () and b = go () in
  let outcomes c =
    List.map (fun t -> Campaign.outcome_name t.Campaign.outcome) c.Campaign.trials
  in
  checkb "same outcomes" true (outcomes a = outcomes b)

let test_campaign_recoverable_kinds_recover () =
  let campaign =
    Campaign.run ~threshold:5 ~trials:4 ~kinds:Fault.recoverable_kinds
      ~seed:5L (mini "mini")
  in
  List.iter
    (fun t ->
      checkb "trial recovered" true (t.Campaign.outcome = Campaign.Recovered))
    campaign.Campaign.trials

(* -- resumable sweeps -------------------------------------------------- *)

let mini_thresholds = [ ("100", 1); ("1k", 10) ]

let with_temp_dir f =
  let dir = Filename.temp_file "tpdbt-ckpt" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun file -> Sys.remove (Filename.concat dir file))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let test_checkpoint_roundtrip () =
  let bench = mini "mini-ckpt" in
  let data = Runner.run_benchmark ~thresholds:mini_thresholds bench in
  let text = Checkpoint.data_to_string data in
  match Checkpoint.data_of_string bench text with
  | Checkpoint.Missing | Checkpoint.Stale_version _ ->
      Alcotest.fail "roundtrip misclassified"
  | Checkpoint.Corrupt reason -> Alcotest.fail ("roundtrip rejected: " ^ reason)
  | Checkpoint.Valid (Checkpoint.Suspended _) ->
      Alcotest.fail "finished checkpoint classified as suspended"
  | Checkpoint.Valid (Checkpoint.Finished reloaded) ->
      Alcotest.check Alcotest.string "byte-identical reserialisation" text
        (Checkpoint.data_to_string reloaded);
      checkb "cycles float exact" true
        (reloaded.Runner.avep.Engine.counters.Perf_model.cycles
        = data.Runner.avep.Engine.counters.Perf_model.cycles)

let test_checkpoint_resume_identity () =
  with_temp_dir (fun dir ->
      let benches = [ mini "mini-a"; mini "mini-b" ] in
      let statuses = ref [] in
      let progress n s = statuses := (n, Runner.status_name s) :: !statuses in
      let sweep () =
        fst
          (Runner.run_sweep ~thresholds:mini_thresholds ~progress
             ~store:(Checkpoint.store ~thresholds:mini_thresholds ~dir ())
             benches)
      in
      let first = sweep () in
      checkb "first pass ran everything" true
        (List.for_all (fun (_, s) -> s <> "resumed") !statuses);
      statuses := [];
      let second = sweep () in
      checkb "second pass resumed everything" true
        (!statuses <> []
        && List.for_all (fun (_, s) -> s = "resumed") !statuses);
      checkb "no failures" true
        (first.Runner.failures = [] && second.Runner.failures = []);
      let serialize sweep =
        String.concat "\n" (List.map Checkpoint.data_to_string sweep.Runner.data)
      in
      Alcotest.check Alcotest.string "resumed sweep byte-identical"
        (serialize first) (serialize second))

let test_checkpoint_rejects_stale () =
  with_temp_dir (fun dir ->
      let bench = mini "mini-stale" in
      let data = Runner.run_benchmark ~thresholds:mini_thresholds bench in
      Checkpoint.save ~dir data;
      checkb "loads under same thresholds" true
        (Checkpoint.load ~thresholds:mini_thresholds ~dir bench <> None);
      checkb "rejected under different thresholds" true
        (Checkpoint.load ~thresholds:[ ("100", 1) ] ~dir bench = None);
      checkb "other bench not found" true
        (Checkpoint.load ~thresholds:mini_thresholds ~dir (mini "other") = None);
      (* Truncate the file: must read as absent, not crash. *)
      let path = Checkpoint.path ~dir bench in
      let text = Tpdbt_durable.Durable.read_file path in
      let oc = open_out path in
      output_string oc (String.sub text 0 (String.length text / 2));
      close_out oc;
      checkb "truncated checkpoint treated as absent" true
        (Checkpoint.load ~thresholds:mini_thresholds ~dir bench = None))

let suite =
  [
    ("plan deterministic", `Quick, test_plan_deterministic);
    ("plan validation", `Quick, test_plan_validation);
    ("injector mechanics", `Quick, test_injector_mechanics);
    ("machine poison trap", `Quick, test_machine_poison_trap);
    ("machine branch out of range", `Quick, test_machine_branch_out_of_range);
    ("engine guest trap typed", `Quick, test_engine_guest_trap_typed);
    ("engine recovery equivalence", `Quick, test_engine_recovery_equivalence);
    ( "corruption keeps AVEP counters",
      `Quick,
      test_engine_corruption_keeps_avep_counters );
    ("engine retry exhaustion", `Quick, test_engine_retry_exhaustion);
    ("fault runs deterministic", `Quick, test_engine_fault_runs_deterministic);
    ("campaign no uncaught", `Quick, test_campaign_no_uncaught);
    ("campaign deterministic", `Quick, test_campaign_deterministic);
    ( "campaign recoverable kinds recover",
      `Quick,
      test_campaign_recoverable_kinds_recover );
    ("checkpoint roundtrip", `Quick, test_checkpoint_roundtrip);
    ("checkpoint resume identity", `Quick, test_checkpoint_resume_identity);
    ("checkpoint rejects stale", `Quick, test_checkpoint_rejects_stale);
  ]
