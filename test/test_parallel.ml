(* Tests for the domain-parallel scheduler: supervisor mechanics and
   the pool map over it, the byte-identical-at-every-job-count
   guarantee for threshold sweeps (against an independent in-order
   reference), cache sweeps and fault campaigns, checkpoint bytes and
   crash-mid-sweep resume, and the collector's single-writer
   invariant. *)

module Pool = Tpdbt_parallel.Pool
module Sup = Tpdbt_parallel.Supervisor
module Runner = Tpdbt_experiments.Runner
module Checkpoint = Tpdbt_experiments.Checkpoint
module Campaign = Tpdbt_experiments.Campaign
module Figures = Tpdbt_experiments.Figures
module Table = Tpdbt_experiments.Table
module Spec = Tpdbt_workloads.Spec

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

(* Every determinism test runs j = 1 (no domain spawned), j = 2 and
   j = 4. *)
let job_counts = [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Pool                                                                 *)
(* ------------------------------------------------------------------ *)

let test_pool_map_identity () =
  let tasks = Array.init 37 (fun i -> i) in
  let expected = Array.map (fun i -> (i * i) + 1) tasks in
  List.iter
    (fun jobs ->
      let results, stats = Pool.map ~jobs (fun i -> (i * i) + 1) tasks in
      checkb
        (Printf.sprintf "results identical at -j %d" jobs)
        true
        (results = expected);
      checki "all tasks accounted" 37 stats.Pool.tasks)
    job_counts

let test_pool_empty_and_singleton () =
  let results, stats = Pool.map ~jobs:4 (fun i -> i) [||] in
  checkb "empty input" true (results = [||]);
  checki "no tasks" 0 stats.Pool.tasks;
  let results, stats = Pool.map ~jobs:4 (fun i -> i + 1) [| 41 |] in
  checkb "singleton" true (results = [| 42 |]);
  (* One task can never use more than one worker. *)
  checki "jobs clamped to task count" 1 stats.Pool.jobs

let test_pool_exception_deterministic () =
  (* Several tasks fail; the pool must re-raise the lowest-indexed
     failure whatever the completion order. *)
  let tasks = Array.init 16 (fun i -> i) in
  List.iter
    (fun jobs ->
      match
        Pool.map ~jobs
          (fun i -> if i mod 5 = 3 then failwith (string_of_int i) else i)
          tasks
      with
      | _ -> Alcotest.fail "expected a raise"
      | exception Failure msg ->
          checks
            (Printf.sprintf "lowest-indexed failure at -j %d" jobs)
            "3" msg)
    job_counts

let test_pool_events_account () =
  let tasks = Array.init 12 (fun i -> i) in
  List.iter
    (fun jobs ->
      let started = Hashtbl.create 16 and finished = Hashtbl.create 16 in
      let results, _ =
        Pool.map ~jobs
          ~on_event:(function
            | Pool.Start { task } ->
                checkb "started once" false (Hashtbl.mem started task);
                Hashtbl.replace started task ()
            | Pool.Finish { task; _ } ->
                checkb "start before finish" true (Hashtbl.mem started task);
                Hashtbl.replace finished task ()
            | Pool.Steal { task } ->
                checkb "stolen before start" false (Hashtbl.mem started task))
          (fun i -> i * 2)
          tasks
      in
      checki "every task started" 12 (Hashtbl.length started);
      checki "every task finished" 12 (Hashtbl.length finished);
      checkb "every result in place" true
        (results = Array.map (fun i -> i * 2) tasks))
    job_counts

(* A raising task, [Supervisor.Crash_worker] included, is still a task
   that ran: one [Start], one [Finish], and the map re-raises the
   lowest-indexed exception itself.  Were an exception to reach the
   supervisor, its task would end in a give-up or a lost worker instead
   of [Finish], and [Crash_worker] would take a worker down. *)
let test_pool_contract_under_raises () =
  let n = 16 in
  let collector = (Domain.self () :> int) in
  List.iter
    (fun jobs ->
      let ran = Array.init n (fun _ -> Atomic.make 0) in
      let starts = Array.make n 0 and finishes = Array.make n 0 in
      let off_collector = ref 0 in
      let lowest = Failure "task 3" in
      let f i =
        Atomic.incr ran.(i);
        if i = 3 then raise lowest
        else if i = 5 then raise Sup.Crash_worker
        else if i mod 4 = 2 && i > 5 then failwith (string_of_int i)
        else i
      in
      let on_event ev =
        if (Domain.self () :> int) <> collector then incr off_collector;
        match ev with
        | Pool.Start { task } -> starts.(task) <- starts.(task) + 1
        | Pool.Finish { task; _ } -> finishes.(task) <- finishes.(task) + 1
        | Pool.Steal _ -> Alcotest.fail "Steal is never emitted"
      in
      let label what = Printf.sprintf "%s at -j %d" what jobs in
      (match Pool.map ~jobs ~on_event f (Array.init n Fun.id) with
      | _ -> Alcotest.fail (label "expected a raise")
      | exception e ->
          checkb (label "the lowest-indexed exception, same value") true
            (e == lowest));
      checkb (label "every task ran once") true
        (Array.for_all (fun c -> Atomic.get c = 1) ran);
      checkb (label "one Start per task") true (Array.for_all (( = ) 1) starts);
      checkb (label "one Finish per task") true
        (Array.for_all (( = ) 1) finishes);
      checki (label "events on the calling domain") 0 !off_collector)
    job_counts

let test_pool_jobs_exceed_tasks () =
  (* More workers than tasks: jobs clamp to the task count, results
     stay canonical, and error propagation stays lowest-index whichever
     worker finishes first. *)
  let tasks = [| 10; 20; 30 |] in
  let results, stats = Pool.map ~jobs:8 (fun i -> i + 1) tasks in
  checkb "results canonical" true (results = [| 11; 21; 31 |]);
  checki "jobs clamped to task count" 3 stats.Pool.jobs;
  (match
     Pool.map ~jobs:8 (fun i -> if i = 10 then failwith "t0" else i) tasks
   with
  | _ -> Alcotest.fail "expected a raise"
  | exception Failure msg -> checks "lowest-index failure wins" "t0" msg);
  (* With 8 workers over 32 tasks, several failing, the raise is still
     the lowest-indexed one, whatever the completion order. *)
  let tasks = Array.init 32 (fun i -> i) in
  match
    Pool.map ~jobs:8
      (fun i -> if i mod 7 = 3 then failwith (string_of_int i) else i)
      tasks
  with
  | _ -> Alcotest.fail "expected a raise"
  | exception Failure msg -> checks "lowest-index over 8 workers" "3" msg

(* ------------------------------------------------------------------ *)
(* Supervisor                                                           *)
(* ------------------------------------------------------------------ *)

let sup_counts (stats : Sup.stats) =
  (stats.attempts, stats.retries, stats.poisoned, stats.crashes)

(* Retry/poison/crash counts must not depend on scheduling: compare
   them against the first job count exercised. *)
let check_counts_stable reference stats =
  match !reference with
  | None -> reference := Some (sup_counts stats)
  | Some c -> checkb "counts identical across jobs" true (c = sup_counts stats)

let test_supervisor_all_ok () =
  let tasks = Array.init 9 (fun i -> i) in
  let collector = (Domain.self () :> int) in
  List.iter
    (fun jobs ->
      let violations = ref 0 in
      let observe () =
        if (Domain.self () :> int) <> collector then incr violations
      in
      let outs, (stats : Sup.stats) =
        Sup.run ~jobs
          ~on_event:(fun _ -> observe ())
          ~on_result:(fun _ _ -> observe ())
          (fun ~attempt:_ i -> i * 3)
          tasks
      in
      checkb "all done" true
        (outs = Array.map (fun i -> Sup.Done (i * 3)) tasks);
      checki "one attempt each" 9 stats.attempts;
      checki "no retries" 0 stats.retries;
      checki "none poisoned" 0 stats.poisoned;
      checkb "never degraded" false stats.degraded;
      checki "callbacks on the collector domain" 0 !violations)
    job_counts

let test_supervisor_retry_then_succeed () =
  (* Tasks 1 and 4 fail on attempts 1-2 and land on attempt 3 — under
     the default breaker (3 consecutive failures) they just squeak
     through. *)
  let tasks = Array.init 6 (fun i -> i) in
  let f ~attempt i =
    if i mod 3 = 1 && attempt <= 2 then failwith "flaky" else i + attempt
  in
  let reference = ref None in
  List.iter
    (fun jobs ->
      let retry_events = ref 0 in
      let outs, (stats : Sup.stats) =
        Sup.run ~jobs
          ~on_event:(function Sup.Retry _ -> incr retry_events | _ -> ())
          f tasks
      in
      checkb "flaky tasks recovered" true
        (outs
        = [| Done 1; Done 4; Done 3; Done 4; Done 7; Done 6 |]);
      checki "attempts" 10 stats.attempts;
      checki "retries" 4 stats.retries;
      checki "retry events" 4 !retry_events;
      checki "none poisoned" 0 stats.poisoned;
      check_counts_stable reference stats)
    job_counts

let test_supervisor_poison_breaker_vs_giveup () =
  let tasks = [| 0; 1; 2 |] in
  let f ~attempt:_ i = if i = 1 then failwith "always broken" else i in
  (* Default policy: the breaker (3 consecutive failures) trips before
     the 4-attempt budget runs out. *)
  List.iter
    (fun jobs ->
      let breaker = ref 0 and gaveup = ref 0 in
      let outs, (stats : Sup.stats) =
        Sup.run ~jobs
          ~on_event:(function
            | Sup.Breaker_opened _ -> incr breaker
            | Sup.Gave_up _ -> incr gaveup
            | _ -> ())
          f tasks
      in
      (match outs.(1) with
      | Sup.Poisoned { attempts; reason } ->
          checki "breaker after 3 attempts" 3 attempts;
          checkb "reason recorded" true
            (String.length reason > 0)
      | _ -> Alcotest.fail "task 1 should be poisoned");
      checki "breaker fired once" 1 !breaker;
      checki "no giveup" 0 !gaveup;
      checki "one poisoned" 1 stats.poisoned;
      checkb "others unaffected" true
        (outs.(0) = Sup.Done 0 && outs.(2) = Sup.Done 2))
    job_counts;
  (* Breaker effectively disabled: the retry budget gives up instead. *)
  let policy = { Sup.default_policy with breaker_after = 99 } in
  let gaveup = ref 0 in
  let outs, (stats : Sup.stats) =
    Sup.run ~jobs:2 ~policy
      ~on_event:(function Sup.Gave_up _ -> incr gaveup | _ -> ())
      f tasks
  in
  (match outs.(1) with
  | Sup.Poisoned { attempts; _ } -> checki "budget exhausted" 4 attempts
  | _ -> Alcotest.fail "task 1 should be poisoned");
  checki "giveup fired once" 1 !gaveup;
  checki "three retries" 3 stats.retries

let test_supervisor_crash_recovers () =
  (* Task 2 kills the first worker that touches it, then succeeds on
     requeue: the sweep completes with no poisoning at every -j. *)
  let tasks = Array.init 5 (fun i -> i) in
  let f ~attempt i =
    if i = 2 && attempt = 1 then raise Sup.Crash_worker else i * 2
  in
  let reference = ref None in
  List.iter
    (fun jobs ->
      let lost = ref 0 in
      let outs, (stats : Sup.stats) =
        Sup.run ~jobs
          ~on_event:(function Sup.Worker_lost _ -> incr lost | _ -> ())
          f tasks
      in
      checkb "all done despite the crash" true
        (outs = Array.map (fun i -> Sup.Done (i * 2)) tasks);
      checki "one crash absorbed" 1 stats.crashes;
      checki "worker_lost observed" 1 !lost;
      checki "no poisoning" 0 stats.poisoned;
      check_counts_stable reference stats)
    job_counts

let test_supervisor_crash_storm_terminates () =
  (* Task 0 kills every worker it touches: crashes consume attempt
     numbers, so it poisons after the 4-attempt budget, the pool
     degrades below 2 live workers, and every other task completes. *)
  let tasks = Array.init 4 (fun i -> i) in
  let f ~attempt:_ i = if i = 0 then raise Sup.Crash_worker else i in
  let reference = ref None in
  List.iter
    (fun jobs ->
      let degraded_events = ref 0 in
      let outs, (stats : Sup.stats) =
        Sup.run ~jobs
          ~on_event:(function Sup.Degraded _ -> incr degraded_events | _ -> ())
          f tasks
      in
      (match outs.(0) with
      | Sup.Poisoned { attempts; reason } ->
          checki "crashes bounded by the attempt budget" 4 attempts;
          checks "crash reason" "worker crashed" reason
      | _ -> Alcotest.fail "task 0 should be poisoned");
      checkb "survivors done" true
        (outs.(1) = Sup.Done 1 && outs.(2) = Sup.Done 2
        && outs.(3) = Sup.Done 3);
      checki "four crashes" 4 stats.crashes;
      check_counts_stable reference stats;
      if jobs >= 2 then begin
        checkb "pool degraded" true stats.degraded;
        checki "degraded exactly once" 1 !degraded_events
      end
      else checkb "sequential never degrades" false stats.degraded)
    job_counts;
  (* Under one attempt the queue closes as soon as every task is
     scheduled: the first crash poisons task 0, and the rest still
     complete, on the surviving workers or inline once degraded. *)
  List.iter
    (fun jobs ->
      let outs, (stats : Sup.stats) =
        Sup.run ~jobs ~policy:Sup.one_attempt f tasks
      in
      checkb "one attempt: task 0 poisoned by its one crash" true
        (outs.(0) = Sup.Poisoned { attempts = 1; reason = "worker crashed" });
      checkb "one attempt: survivors done" true
        (outs.(1) = Sup.Done 1 && outs.(2) = Sup.Done 2
        && outs.(3) = Sup.Done 3);
      checki "one attempt: one crash" 1 stats.crashes)
    job_counts

let test_supervisor_failed_classifier () =
  (* A value can be rejected after the fact; the classifier's verdict
     feeds the same retry machinery as a raise. *)
  let tasks = Array.init 4 (fun i -> i) in
  let f ~attempt i = (i, attempt) in
  let failed _task (_, attempt) =
    if attempt < 2 then Some "first attempt rejected" else None
  in
  List.iter
    (fun jobs ->
      let outs, (stats : Sup.stats) = Sup.run ~jobs ~failed f tasks in
      checkb "all accepted on attempt 2" true
        (outs = Array.init 4 (fun i -> Sup.Done (i, 2)));
      checki "one retry per task" 4 stats.retries;
      checki "two attempts per task" 8 stats.attempts)
    job_counts

let test_supervisor_zero_tasks () =
  let outs, (stats : Sup.stats) =
    Sup.run ~jobs:4 (fun ~attempt:_ i -> i) [||]
  in
  checkb "empty output" true (outs = [||]);
  checki "no tasks" 0 stats.tasks;
  checki "no attempts" 0 stats.attempts

(* ------------------------------------------------------------------ *)
(* Sweep determinism across job counts                                  *)
(* ------------------------------------------------------------------ *)

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
    mini "par-a";
    mini ~iters:4000 "par-b";
    mini ~iters:2000 "par-c";
    mini ~iters:3500 "par-d";
  ]

let serialize_sweep sweep =
  String.concat "\n" (List.map Checkpoint.data_to_string sweep.Runner.data)

let figures_csv sweep =
  String.concat "\n"
    (List.map (fun (_, t) -> Table.to_csv t) (Figures.all sweep.Runner.data))

let reference benches = Reference_sweep.run ~thresholds:mini_thresholds benches

let sweep ?jobs ?policy ?store ?progress ?run_task benches =
  Runner.run_sweep ~thresholds:mini_thresholds ?jobs ?policy ?store ?progress
    ?run_task benches

let test_sweep_identical_across_jobs () =
  let benches = mini_benches () in
  let reference = reference benches in
  checkb "reference has data" true (reference.Runner.data <> []);
  List.iter
    (fun jobs ->
      let sweep, _ = sweep ~jobs benches in
      checks
        (Printf.sprintf "serialized results identical at -j %d" jobs)
        (serialize_sweep reference) (serialize_sweep sweep);
      checks
        (Printf.sprintf "derived tables identical at -j %d" jobs)
        (figures_csv reference) (figures_csv sweep))
    job_counts

let with_temp_dir f =
  let dir = Filename.temp_file "tpdbt-par" "" in
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
let store dir = Checkpoint.store ~thresholds:mini_thresholds ~dir ()

let checkpoint_bytes dir benches =
  String.concat "\x00"
    (List.map (fun b -> read_file (Checkpoint.path ~dir b)) benches)

(* What a checkpoint store holds after the reference sweep. *)
let reference_bytes benches =
  String.concat "\x00"
    (List.map Checkpoint.data_to_string (reference benches).Runner.data)

let test_checkpoint_bytes_identical_across_jobs () =
  let benches = mini_benches () in
  let expected = reference_bytes benches in
  List.iter
    (fun jobs ->
      with_temp_dir (fun dir ->
          let _ = sweep ~jobs ~store:(store dir) benches in
          checks
            (Printf.sprintf "checkpoint files identical at -j %d" jobs)
            expected
            (checkpoint_bytes dir benches)))
    job_counts

let test_resume_mid_sweep_parallel () =
  (* A sweep killed after completing half its benchmarks leaves their
     checkpoints behind; restarting at -j 4 must resume those, run only
     the rest, and end byte-identical to an uninterrupted sweep. *)
  let benches = mini_benches () in
  let half = [ List.nth benches 0; List.nth benches 2 ] in
  with_temp_dir (fun dir ->
      let _ = sweep ~jobs:4 ~store:(store dir) half in
      let statuses = ref [] in
      let progress n s = statuses := (n, Runner.status_name s) :: !statuses in
      let resumed, _ = sweep ~jobs:4 ~store:(store dir) ~progress benches in
      List.iter
        (fun b ->
          checkb
            (b.Spec.name ^ " resumed, not re-run")
            true
            (List.mem (b.Spec.name, "resumed") !statuses))
        half;
      checki "both fresh benchmarks ran" 2
        (List.length (List.filter (fun (_, s) -> s = "ok") !statuses));
      checks "resumed sweep byte-identical to uninterrupted"
        (serialize_sweep (reference benches))
        (serialize_sweep resumed);
      checks "checkpoint set byte-identical" (reference_bytes benches)
        (checkpoint_bytes dir benches))

(* ------------------------------------------------------------------ *)
(* Single-writer invariant                                              *)
(* ------------------------------------------------------------------ *)

let test_callbacks_single_writer () =
  (* Over policy x jobs x store: every collector callback — progress,
     the resume scan, save — must run on the calling domain, with no
     overlap possible (record the executing domain at each callback,
     mutex-free), and every benchmark reports [started] then exactly
     one terminal status.  One benchmark always fails, so the terminal
     status depends on the policy: failed without retries, poisoned
     with them. *)
  let collector = (Domain.self () :> int) in
  let benches = mini_benches () in
  let broken = "par-c" in
  let run_task ~attempt:_ (b : Spec.t) run =
    if b.Spec.name = broken then
      Error (Tpdbt_dbt.Error.Deadline_exceeded { steps = 1; deadline = 1 })
    else run ()
  in
  List.iter
    (fun (policy, failed_status) ->
      List.iter
        (fun jobs ->
          List.iter
            (fun with_store ->
              let label =
                Printf.sprintf "%s, -j %d, %s" failed_status jobs
                  (if with_store then "store" else "no store")
              in
              let violations = ref 0 in
              let observe () =
                if (Domain.self () :> int) <> collector then incr violations
              in
              let progress_log = ref [] in
              let progress n s =
                observe ();
                progress_log := (n, Runner.status_name s) :: !progress_log
              in
              let run dir =
                let observed =
                  Option.map
                    (fun dir ->
                      let s = store dir in
                      {
                        s with
                        Runner.finished =
                          (fun b ->
                            observe ();
                            s.Runner.finished b);
                        save =
                          (fun d ->
                            observe ();
                            s.Runner.save d);
                      })
                    dir
                in
                sweep ~jobs ~policy ?store:observed ~progress ~run_task
                  benches
              in
              let _ =
                if with_store then with_temp_dir (fun d -> run (Some d))
                else run None
              in
              checki
                ("all callbacks ran on the collector domain: " ^ label)
                0 !violations;
              List.iter
                (fun b ->
                  let mine =
                    List.rev
                      (List.filter_map
                         (fun (n, s) -> if n = b.Spec.name then Some s else None)
                         !progress_log)
                  in
                  let terminal =
                    if b.Spec.name = broken then failed_status else "ok"
                  in
                  checkb
                    (Printf.sprintf "%s progress well-formed: %s" b.Spec.name
                       label)
                    true
                    (mine = [ "started"; terminal ]))
                benches)
            [ false; true ])
        job_counts)
    [ (Sup.one_attempt, "failed"); (Sup.default_policy, "poisoned") ]

(* ------------------------------------------------------------------ *)
(* Cache sweep and campaign determinism                                 *)
(* ------------------------------------------------------------------ *)

let test_cache_sweep_identical_across_jobs () =
  let bench = mini "par-cache" in
  let table jobs =
    Table.to_csv
      (Figures.cache_sweep
         [ Runner.run_cache_sweep ~jobs ~threshold:5 ~fracs:[ 0.25; 0.5 ] bench ])
  in
  let reference = table 1 in
  List.iter
    (fun jobs ->
      checks
        (Printf.sprintf "cache sweep identical at -j %d" jobs)
        reference (table jobs))
    (List.tl job_counts)

let campaign_render c =
  Format.asprintf "%a" Campaign.render c

let test_campaign_identical_across_jobs () =
  let bench = mini "par-faults" in
  let run jobs =
    Campaign.run ~jobs ~threshold:5 ~trials:6 ~seed:17L ~shadow_sample:1 bench
  in
  let reference = campaign_render (run 1) in
  List.iter
    (fun jobs ->
      checks
        (Printf.sprintf "campaign identical at -j %d" jobs)
        reference
        (campaign_render (run jobs)))
    (List.tl job_counts)

let suite =
  [
    ("pool map identity", `Quick, test_pool_map_identity);
    ("pool empty and singleton", `Quick, test_pool_empty_and_singleton);
    ("pool exception deterministic", `Quick, test_pool_exception_deterministic);
    ("pool events account", `Quick, test_pool_events_account);
    ("pool contract under raises", `Quick, test_pool_contract_under_raises);
    ("pool jobs exceed tasks", `Quick, test_pool_jobs_exceed_tasks);
    ("supervisor all ok", `Quick, test_supervisor_all_ok);
    ("supervisor retry then succeed", `Quick, test_supervisor_retry_then_succeed);
    ( "supervisor breaker vs giveup",
      `Quick,
      test_supervisor_poison_breaker_vs_giveup );
    ("supervisor crash recovers", `Quick, test_supervisor_crash_recovers);
    ( "supervisor crash storm terminates",
      `Quick,
      test_supervisor_crash_storm_terminates );
    ("supervisor failed classifier", `Quick, test_supervisor_failed_classifier);
    ("supervisor zero tasks", `Quick, test_supervisor_zero_tasks);
    ("sweep identical across jobs", `Quick, test_sweep_identical_across_jobs);
    ( "checkpoint bytes identical across jobs",
      `Quick,
      test_checkpoint_bytes_identical_across_jobs );
    ("resume mid-sweep parallel", `Quick, test_resume_mid_sweep_parallel);
    ("callbacks single writer", `Quick, test_callbacks_single_writer);
    ( "cache sweep identical across jobs",
      `Quick,
      test_cache_sweep_identical_across_jobs );
    ( "campaign identical across jobs",
      `Quick,
      test_campaign_identical_across_jobs );
  ]
