module Engine = Tpdbt_dbt.Engine
module Error = Tpdbt_dbt.Error
module Spec = Tpdbt_workloads.Spec
module Suite = Tpdbt_workloads.Suite
module Metrics = Tpdbt_profiles.Metrics

type threshold_run = {
  label : string;
  scaled : int;
  result : Engine.result;
  comparison : Metrics.comparison;
}

type data = {
  bench : Spec.t;
  avep : Engine.result;
  train : Engine.result;
  train_flat : Metrics.flat;
  train_regions : Metrics.comparison;
  runs : threshold_run list;
}

(* Sweep-level step budgets: [max_steps] caps runaway synthetic
   workloads (non-fatal, partial run kept), [deadline] is the
   supervisor's watchdog (fatal — see {!Tpdbt_dbt.Error}). *)
let override_budget ?max_steps ?deadline (config : Engine.config) =
  let config =
    match max_steps with
    | None -> config
    | Some m -> { config with Engine.max_steps = m }
  in
  match deadline with
  | None -> config
  | Some d -> { config with Engine.deadline = Some d }

let ( let* ) = Result.bind

(* Derived data (comparisons, flat metrics, offline regions) is a pure
   function of the three raw runs — checkpoint resume stores only the
   raw runs and rebuilds the rest through this. *)
let assemble bench avep train raw_runs =
  let train_flat =
    Metrics.compare_flat ~predicted:train.Engine.snapshot
      ~avep:avep.Engine.snapshot
  in
  let train_regions =
    Tpdbt_profiles.Offline_regions.train_cp_lp ~train:train.Engine.snapshot
      ~avep:avep.Engine.snapshot
  in
  let runs =
    List.map
      (fun (label, scaled, result) ->
        let comparison =
          Metrics.compare_snapshots ~inip:result.Engine.snapshot
            ~avep:avep.Engine.snapshot
        in
        { label; scaled; result; comparison })
      raw_runs
  in
  { bench; avep; train; train_flat; train_regions; runs }

(* A benchmark is a fixed sequence of engine runs ("stages"): the AVEP
   and training profiles, then one optimised run per threshold.  The
   suspend/resume machinery is expressed over this sequence — a
   mid-run snapshot records the finished stages plus the in-flight
   engine's serialized image. *)
type stage = Avep | Train | Threshold of string * int

let stage_label = function
  | Avep -> "avep"
  | Train -> "train"
  | Threshold (label, _) -> label

type partial = {
  p_bench : Spec.t;
  p_thresholds : (string * int) list;
  p_done : (stage * Engine.result) list;  (* finished stages, in order *)
  p_next : stage;  (* the stage the snapshot interrupts *)
  p_snapshot : string;  (* Exec_snapshot.to_string of the engine *)
}

module Exec_snapshot = Tpdbt_dbt.Exec_snapshot

let run_benchmark_result ?(thresholds = Suite.thresholds) ?max_steps ?deadline
    ?(snapshot_every = 0) ?(suspend_on_deadline = false) ?on_snapshot ?resume
    bench =
  let budget = override_budget ?max_steps ?deadline in
  let arm config =
    if snapshot_every = 0 && not suspend_on_deadline then config
    else { config with Engine.snapshot_every; suspend_on_deadline }
  in
  let program, ref_input, train_input = Spec.build bench in
  let stages =
    Avep :: Train :: List.map (fun (l, s) -> Threshold (l, s)) thresholds
  in
  let stage_config stage =
    arm
      (budget
         (match stage with
         | Avep | Train -> Engine.profiling_only
         | Threshold (_, scaled) -> Engine.config ~threshold:scaled ()))
  in
  let stage_input = function
    | Train -> train_input
    | Avep | Threshold _ -> ref_input
  in
  let* () =
    match resume with
    | Some p when not (String.equal p.p_bench.Spec.name bench.Spec.name) ->
        Error
          (Error.Io_error
             (Printf.sprintf "suspended state is for benchmark %s, not %s"
                p.p_bench.Spec.name bench.Spec.name))
    | Some p when p.p_thresholds <> thresholds ->
        Error
          (Error.Io_error
             "suspended state recorded under a different threshold list")
    | _ -> Ok ()
  in
  (* Drive one stage to completion.  A snapshot-trigger suspension
     publishes the partial state and keeps running the same engine; a
     deadline suspension publishes it and stops the whole benchmark —
     the caller resumes it later, from exactly this point. *)
  let exec done_ stage =
    let config = stage_config stage in
    let input = stage_input stage in
    let aprogram = Spec.apply_input program input in
    let* engine =
      match resume with
      | Some p when p.p_next = stage -> (
          match
            Tpdbt_durable.Durable.to_result ~what:"snapshot"
              (Exec_snapshot.of_string p.p_snapshot)
          with
          | Ok parsed -> (
              match Exec_snapshot.restore ~config ~program:aprogram parsed with
              | Ok t -> Ok t
              | Error reason ->
                  Error (Error.Io_error ("snapshot rejected: " ^ reason)))
          | Error msg -> Error (Error.Io_error msg))
      | _ -> Ok (Engine.create ~config ~seed:input.Spec.seed aprogram)
    in
    let rec go () =
      let result = Engine.run engine in
      match result.Engine.error with
      | Some (Error.Suspended { deadline = hard; _ } as e) ->
          (match on_snapshot with
          | Some f ->
              f
                {
                  p_bench = bench;
                  p_thresholds = thresholds;
                  p_done = List.rev done_;
                  p_next = stage;
                  p_snapshot =
                    Exec_snapshot.to_string ~config ~program:aprogram
                      (Engine.capture engine);
                }
          | None -> ());
          if hard then Error e else go ()
      | Some e when Error.fatal e -> Error e
      | _ -> Ok result
    in
    go ()
  in
  let rec stages_loop done_ = function
    | [] -> Ok (List.rev done_)
    | stage :: tl -> (
        match
          Option.bind resume (fun p -> List.assoc_opt stage p.p_done)
        with
        | Some result -> stages_loop ((stage, result) :: done_) tl
        | None ->
            let* result = exec done_ stage in
            stages_loop ((stage, result) :: done_) tl)
  in
  let* all = stages_loop [] stages in
  match all with
  | (Avep, avep) :: (Train, train) :: rest ->
      let raw_runs =
        List.map
          (function
            | Threshold (label, scaled), r -> (label, scaled, r)
            | (Avep | Train), _ -> assert false)
          rest
      in
      Ok (assemble bench avep train raw_runs)
  | _ -> assert false

let run_benchmark ?thresholds ?max_steps ?deadline bench =
  match run_benchmark_result ?thresholds ?max_steps ?deadline bench with
  | Ok data -> data
  | Error e -> raise (Error.Error e)

let run_ref ?sink bench ~config =
  let config =
    match sink with None -> config | Some sink -> { config with Engine.sink }
  in
  let program, ref_input, _train_input = Spec.build bench in
  let program = Spec.apply_input program ref_input in
  let engine = Engine.create ~config ~seed:ref_input.Spec.seed program in
  Engine.run engine

let run_avep bench =
  let result = run_ref bench ~config:Engine.profiling_only in
  match result.Engine.error with
  | None -> result
  | Some e -> raise (Error.Error e)

(* The standard observability bundle: buffer the event stream, derive
   metrics from it, and fold the run's perf-model counters into the
   same registry.  Extra sinks (e.g. a streaming JSONL writer) ride
   along via [extra_sinks]. *)
let run_traced ?limit ?(extra_sinks = []) bench ~config =
  let module Tel = Tpdbt_telemetry in
  let metrics = Tel.Metrics.create () in
  let mem_sink, buffer = Tel.Sink.memory ?limit () in
  let collector = Tel.Sink.collect ~into:metrics in
  let sink = Tel.Sink.tee (mem_sink :: collector :: extra_sinks) in
  let result = run_ref ~sink bench ~config in
  sink.Tel.Sink.close ();
  Tpdbt_dbt.Perf_model.record result.Engine.counters metrics;
  (result, buffer, metrics)

let run_custom ?sink bench ~config =
  let avep = run_avep bench in
  let result = run_ref ?sink bench ~config in
  (match result.Engine.error with
  | None -> ()
  | Some e -> raise (Error.Error e));
  let comparison =
    Metrics.compare_snapshots ~inip:result.Engine.snapshot
      ~avep:avep.Engine.snapshot
  in
  (result, avep, comparison)

(* ---- cache-size sweep (Fig. 17-style, cycles vs cache budget) -------- *)

type cache_point = {
  policy : Tpdbt_dbt.Code_cache.policy;
  frac : float;
  capacity : int;
  bounded : Engine.result;
}

type cache_data = {
  cache_bench : Spec.t;
  cache_threshold : int;
  baseline : Engine.result;
  footprint : int;
  points : cache_point list;
}

let run_cache_sweep ?(jobs = 1) ?(threshold = 20)
    ?(policies = Tpdbt_dbt.Code_cache.all_policies)
    ?(fracs = [ 0.125; 0.25; 0.5; 1.0 ]) ?(shadow_sample = 0) ?max_steps bench
    =
  let budget = override_budget ?max_steps in
  (* Unbounded baseline: its peak occupancy is the benchmark's full
     translated footprint, the unit the capacity fractions scale.  It
     must run first — every bounded capacity derives from it — so only
     the (policy, frac) points fan out across domains. *)
  let baseline = run_ref bench ~config:(budget (Engine.config ~threshold ())) in
  let footprint =
    max 1 baseline.Engine.counters.Tpdbt_dbt.Perf_model.cache_peak_instrs
  in
  let combos =
    List.concat_map (fun p -> List.map (fun f -> (p, f)) fracs) policies
  in
  let point (policy, frac) =
    let capacity = max 1 (int_of_float (frac *. float_of_int footprint)) in
    let config =
      budget
        (Engine.config ~threshold ~cache_capacity:capacity
           ~cache_policy:policy ~shadow_sample ())
    in
    { policy; frac; capacity; bounded = run_ref bench ~config }
  in
  let points =
    if jobs <= 1 then List.map point combos
    else
      let results, _ =
        Tpdbt_parallel.Pool.map ~jobs point (Array.of_list combos)
      in
      Array.to_list results
  in
  { cache_bench = bench; cache_threshold = threshold; baseline; footprint; points }

type status =
  | Started
  | Finished
  | Failed of Error.t
  | Resumed
  | Quarantined of string
  | Suspended

type failure = { failed : Spec.t; error : Error.t }
type sweep = { data : data list; failures : failure list }

let status_name = function
  | Started -> "started"
  | Finished -> "ok"
  | Failed _ -> "failed"
  | Resumed -> "resumed"
  | Quarantined _ -> "poisoned"
  | Suspended -> "suspended"

(* A benchmark that stopped on a resumable suspension is parked, not
   broken: it lands in [failures] carrying [Error.Suspended] so the
   sweep stays honest about incomplete data, but progress reporting
   and the supervisor treat it as "come back later", never as a
   failure to retry. *)
let suspended_failure (f : failure) =
  match f.error with Error.Suspended _ -> true | _ -> false

(* Sequential reference path.  [run_many_par] must produce the same
   merged sweep (and, via [save], the same checkpoint bytes) for every
   job count — keep the two in lockstep. *)
let run_many ?thresholds ?max_steps ?deadline ?snapshot_every
    ?suspend_on_deadline ?on_snapshot ?load_suspended
    ?(progress = fun _ _ -> ()) ?save ?load benches =
  let data = ref [] and failures = ref [] in
  List.iter
    (fun bench ->
      let name = bench.Spec.name in
      match Option.bind load (fun f -> f bench) with
      | Some d ->
          progress name Resumed;
          data := d :: !data
      | None -> (
          progress name Started;
          let resume = Option.bind load_suspended (fun f -> f bench) in
          match
            run_benchmark_result ?thresholds ?max_steps ?deadline
              ?snapshot_every ?suspend_on_deadline ?on_snapshot ?resume bench
          with
          | Ok d ->
              Option.iter (fun f -> f d) save;
              progress name Finished;
              data := d :: !data
          | Error e ->
              progress name
                (match e with Error.Suspended _ -> Suspended | _ -> Failed e);
              failures := { failed = bench; error = e } :: !failures))
    benches;
  { data = List.rev !data; failures = List.rev !failures }

module Pool = Tpdbt_parallel.Pool

(* Worker scheduling events, forwarded to a telemetry sink from the
   collector domain.  The scheduler runs outside any engine, so the
   stamp is a scheduler sequence number rather than a guest clock.
   Each task is also bracketed in a per-worker span ([worker<i>]) so
   the profiler and the span metrics see pool busy time; the span's
   wall clock is the task's measured seconds, its allocation deltas
   are unknown (the work happened on another domain) and stay 0. *)
let worker_sink_events sink =
  let module Tel = Tpdbt_telemetry in
  let seq = ref 0 in
  let emit event =
    incr seq;
    sink.Tel.Sink.emit ~step:!seq event
  in
  let span worker = "worker" ^ string_of_int worker in
  fun (e : Pool.event) ->
    match e with
    | Pool.Start { worker; task } ->
        emit (Tel.Event.Worker_start { worker; task });
        emit (Tel.Event.Span_begin { span = span worker })
    | Pool.Steal { worker; victim; task } ->
        emit (Tel.Event.Worker_steal { worker; victim; task })
    | Pool.Finish { worker; task; seconds } ->
        emit
          (Tel.Event.Span_end
             {
               span = span worker;
               wall_ns = int_of_float (seconds *. 1e9);
               minor_words = 0;
               major_words = 0;
             });
        emit (Tel.Event.Worker_finish { worker; task })

let record_parallel_stats metrics (stats : Pool.stats) =
  let module Tel = Tpdbt_telemetry in
  Tel.Metrics.set (Tel.Metrics.gauge metrics "parallel.speedup")
    (Pool.speedup stats);
  Tel.Metrics.set (Tel.Metrics.gauge metrics "parallel.jobs")
    (float_of_int stats.Pool.jobs);
  Tel.Metrics.add (Tel.Metrics.counter metrics "parallel.steals")
    stats.Pool.steals;
  Tel.Metrics.add (Tel.Metrics.counter metrics "parallel.tasks")
    stats.Pool.tasks;
  Tel.Metrics.set
    (Tel.Metrics.gauge metrics "parallel.busy_seconds")
    stats.Pool.busy;
  Tel.Metrics.set
    (Tel.Metrics.gauge metrics "parallel.idle_seconds")
    (Float.max 0.0
       ((float_of_int stats.Pool.jobs *. stats.Pool.elapsed) -. stats.Pool.busy))

let run_many_par ?thresholds ?max_steps ?deadline ?snapshot_every
    ?suspend_on_deadline ?on_snapshot ?load_suspended ?jobs
    ?(progress = fun _ _ -> ()) ?save ?load ?sink ?metrics ?report benches =
  let jobs =
    match jobs with Some j -> max 1 j | None -> Pool.default_jobs ()
  in
  if jobs <= 1 then
    run_many ?thresholds ?max_steps ?deadline ?snapshot_every
      ?suspend_on_deadline ?on_snapshot ?load_suspended ~progress ?save ?load
      benches
  else begin
    (* Resume scan up front, on the collector domain: checkpoint reads
       never race the workers, and a resumed benchmark never becomes a
       task at all.  Suspended mid-run state is scanned here too — a
       worker then continues the engine instead of restarting it. *)
    let entries =
      List.map
        (fun bench ->
          match Option.bind load (fun f -> f bench) with
          | Some d ->
              progress bench.Spec.name Resumed;
              (bench, Some d)
          | None -> (bench, None))
        benches
    in
    let pending =
      Array.of_list
        (List.filter_map
           (fun (b, d) ->
             if d = None then
               Some (b, Option.bind load_suspended (fun f -> f b))
             else None)
           entries)
    in
    let name task = (fst pending.(task)).Spec.name in
    let on_event =
      let forward =
        match sink with None -> fun _ -> () | Some s -> worker_sink_events s
      in
      fun (e : Pool.event) ->
        forward e;
        match e with
        | Pool.Start { task; _ } -> progress (name task) Started
        | Pool.Steal _ | Pool.Finish _ -> ()
    in
    (* Completion arrival order is nondeterministic, but every
       checkpoint [save] happens here, on the collector domain, and
       each file's bytes depend only on its own task's result.
       (Mid-run snapshots are the exception: [on_snapshot] runs on the
       worker, but each benchmark's file has that worker as its only
       writer until the task completes.) *)
    let on_result task = function
      | Ok d ->
          Option.iter (fun f -> f d) save;
          progress (name task) Finished
      | Error (Error.Suspended _) -> progress (name task) Suspended
      | Error e -> progress (name task) (Failed e)
    in
    let results, stats =
      Pool.map ~jobs ~on_event ~on_result
        (fun (bench, resume) ->
          run_benchmark_result ?thresholds ?max_steps ?deadline
            ?snapshot_every ?suspend_on_deadline ?on_snapshot ?resume bench)
        pending
    in
    Option.iter (fun m -> record_parallel_stats m stats) metrics;
    Option.iter (fun f -> f stats) report;
    (* Deterministic merge: walk the benchmarks in input order, pulling
       resumed data or the task result tagged with the next pending
       index — the same [sweep] the sequential path builds. *)
    let next = ref 0 in
    let data = ref [] and failures = ref [] in
    List.iter
      (fun (bench, resumed) ->
        match resumed with
        | Some d -> data := d :: !data
        | None -> (
            let r = results.(!next) in
            incr next;
            match r with
            | Ok d -> data := d :: !data
            | Error e -> failures := { failed = bench; error = e } :: !failures))
      entries;
    { data = List.rev !data; failures = List.rev !failures }
  end

(* ---- supervised sweeps ------------------------------------------------ *)

module Sup = Tpdbt_parallel.Supervisor

type supervision = {
  sup : Sup.stats;
  poisoned : (Spec.t * string) list;
  corrupt : (string * string) list;
}

let task_seconds_buckets =
  [ 0.001; 0.01; 0.05; 0.1; 0.5; 1.0; 5.0; 30.0; 120.0 ]

(* Supervisor scheduling events → telemetry, stamped like the worker
   events with a per-source sequence number. *)
let supervisor_sink_events sink =
  let module Tel = Tpdbt_telemetry in
  let seq = ref 0 in
  fun (event : Tel.Event.t) ->
    incr seq;
    match sink with
    | None -> ()
    | Some s -> s.Tel.Sink.emit ~step:!seq event

let record_supervision_metrics metrics (s : Sup.stats) =
  let module Tel = Tpdbt_telemetry in
  Tel.Metrics.set (Tel.Metrics.gauge metrics "parallel.jobs")
    (float_of_int s.Sup.jobs);
  Tel.Metrics.add (Tel.Metrics.counter metrics "parallel.tasks") s.Sup.tasks;
  Tel.Metrics.add
    (Tel.Metrics.counter metrics "supervisor.attempts")
    s.Sup.attempts;
  Tel.Metrics.add (Tel.Metrics.counter metrics "supervisor.retries")
    s.Sup.retries;
  Tel.Metrics.add
    (Tel.Metrics.counter metrics "supervisor.poisoned")
    s.Sup.poisoned;
  Tel.Metrics.add (Tel.Metrics.counter metrics "supervisor.crashes")
    s.Sup.crashes

let run_many_supervised ?thresholds ?max_steps ?deadline ?snapshot_every
    ?suspend_on_deadline ?on_snapshot ?load_suspended ?jobs ?policy
    ?(progress = fun _ _ -> ()) ?save ?load ?sink ?metrics ?report ?run_task
    benches =
  let module Tel = Tpdbt_telemetry in
  (* Resume scan up front on the collector, exactly as [run_many_par]:
     resumed benchmarks never become supervised tasks. *)
  let entries =
    List.map
      (fun bench ->
        match Option.bind load (fun f -> f bench) with
        | Some d ->
            progress bench.Spec.name Resumed;
            (bench, Some d)
        | None -> (bench, None))
      benches
  in
  let pending =
    Array.of_list
      (List.filter_map (fun (b, d) -> if d = None then Some b else None) entries)
  in
  let run_task =
    match run_task with
    | Some f -> f
    | None ->
        (* The suspended-state lookup runs per attempt, on the worker:
           a retry of a task whose earlier attempt crashed after a
           mid-run snapshot continues from that snapshot instead of
           restarting.  Only this task writes this benchmark's file,
           so the read cannot race another writer. *)
        fun ~task:_ ~attempt:_ bench ->
          let resume = Option.bind load_suspended (fun f -> f bench) in
          run_benchmark_result ?thresholds ?max_steps ?deadline
            ?snapshot_every ?suspend_on_deadline ?on_snapshot ?resume bench
  in
  (* The last fatal typed error each task produced: a poisoned task's
     entry in [failures] keeps the engine's own diagnosis when there is
     one, rather than flattening it to a string. *)
  let last_error = Array.make (max 1 (Array.length pending)) None in
  let emit = supervisor_sink_events sink in
  let observe_latency =
    match metrics with
    | None -> fun _ -> ()
    | Some m ->
        let h =
          Tel.Metrics.histogram m "supervisor.task_seconds"
            ~buckets:task_seconds_buckets
        in
        fun seconds -> Tel.Metrics.observe h seconds
  in
  let name task = pending.(task).Spec.name in
  (* Every [Attempt] opens a per-task span; exactly one of the
     completion events (done, retry, give-up, breaker, worker lost)
     closes it again, so the span stream stays balanced even for
     failing tasks.  Only the success path knows the attempt's wall
     clock — failure closes carry 0. *)
  let span_label task = "task" ^ string_of_int task in
  let span_begin task = emit (Tel.Event.Span_begin { span = span_label task }) in
  let span_end ?(seconds = 0.0) task =
    emit
      (Tel.Event.Span_end
         {
           span = span_label task;
           wall_ns = int_of_float (seconds *. 1e9);
           minor_words = 0;
           major_words = 0;
         })
  in
  let on_event (e : Sup.event) =
    match e with
    | Sup.Attempt { task; attempt } ->
        span_begin task;
        if attempt = 1 then progress (name task) Started
    | Sup.Task_done { task; seconds; _ } ->
        span_end ~seconds task;
        observe_latency seconds
    | Sup.Retry { task; attempt; backoff; reason } ->
        span_end task;
        emit (Tel.Event.Supervisor_retry { task; attempt; backoff; reason })
    | Sup.Gave_up { task; attempts; reason } ->
        span_end task;
        emit (Tel.Event.Supervisor_give_up { task; attempts; reason });
        progress (name task) (Quarantined reason)
    | Sup.Breaker_opened { task; failures } ->
        span_end task;
        emit (Tel.Event.Breaker_open { task; failures });
        progress (name task) (Quarantined "circuit breaker opened")
    | Sup.Worker_lost { worker; task } ->
        span_end task;
        emit (Tel.Event.Worker_lost { worker; task })
    | Sup.Degraded { live } -> emit (Tel.Event.Pool_degraded { live })
  in
  let failed task = function
    | Ok _ -> None
    | Error (Error.Suspended _) ->
        (* Parked, not failed: the snapshot is on disk and a later
           sweep resumes it — retrying now would just re-suspend. *)
        None
    | Error e ->
        last_error.(task) <- Some e;
        Some (Error.to_string e)
  in
  let on_result task = function
    | Ok d ->
        Option.iter (fun f -> f d) save;
        progress (name task) Finished
    | Error (Error.Suspended _) -> progress (name task) Suspended
    | Error _ -> ()
  in
  let outcomes, stats =
    Sup.run ?jobs ?policy ~failed ~on_event ~on_result
      (fun ~attempt (task, bench) -> run_task ~task ~attempt bench)
      (Array.mapi (fun i b -> (i, b)) pending)
  in
  Option.iter (fun m -> record_supervision_metrics m stats) metrics;
  Option.iter (fun f -> f stats) report;
  let next = ref 0 in
  let data = ref [] and failures = ref [] and poisoned = ref [] in
  List.iter
    (fun (bench, resumed) ->
      match resumed with
      | Some d -> data := d :: !data
      | None -> (
          let task = !next in
          incr next;
          match outcomes.(task) with
          | Sup.Done (Ok d) -> data := d :: !data
          | Sup.Done (Error e) ->
              (* a suspended task resolves here (the classifier lets it
                 through without retry); any other typed error is
                 rejected by the classifier and resolves poisoned *)
              failures := { failed = bench; error = e } :: !failures
          | Sup.Poisoned { reason; _ } ->
              let error =
                match last_error.(task) with
                | Some e -> e
                | None ->
                    Error.Io_error ("supervised task poisoned: " ^ reason)
              in
              poisoned := (bench, reason) :: !poisoned;
              failures := { failed = bench; error } :: !failures))
    entries;
  ( { data = List.rev !data; failures = List.rev !failures },
    {
      sup = stats;
      poisoned = List.rev !poisoned;
      corrupt = [];
    } )
