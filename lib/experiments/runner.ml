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
  train_flat : Metrics.comparison;
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
  p_snapshot : string;
      (* a TPDBT-GROUP record of the reference group, or a TPDBT-SNAP
         record of one stage's engine; see runner.mli *)
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
  let threshold_stages = List.map (fun (l, s) -> Threshold (l, s)) thresholds in
  let stages = Avep :: Train :: threshold_stages in
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
  let ref_program = Spec.apply_input program ref_input in
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
  (* Finished stages, and a publisher of the partial state that sits
     between them and the interrupted run. *)
  let finished = ref (match resume with Some p -> p.p_done | None -> []) in
  let publish next text =
    Option.iter
      (fun f ->
        f
          {
            p_bench = bench;
            p_thresholds = thresholds;
            p_done =
              List.filter_map
                (fun s ->
                  Option.map (fun r -> (s, r)) (List.assoc_opt s !finished))
                stages;
            p_next = next;
            p_snapshot = text;
          })
      on_snapshot
  in
  let rejected reason =
    Error (Error.Io_error ("snapshot rejected: " ^ reason))
  in
  (* Drive a suspendable run to its end.  A snapshot-trigger suspension
     publishes the partial state and keeps running; a deadline
     suspension publishes it and stops the whole benchmark — the caller
     resumes it later, from exactly this point. *)
  let rec until_done run snapshot =
    match run () with
    | Some (Error.Suspended { deadline = hard; _ } as e) ->
        let next, text = snapshot () in
        publish next text;
        if hard then Error e else until_done run snapshot
    | _ -> Ok ()
  in
  (* One stage on an engine of its own: the training input, or a stage a
     per-stage snapshot interrupted. *)
  let solo stage engine =
    let config = stage_config stage in
    let aprogram = Spec.apply_input program (stage_input stage) in
    let result = ref None in
    let* () =
      until_done
        (fun () ->
          let r = Engine.run engine in
          result := Some r;
          r.Engine.error)
        (fun () ->
          ( stage,
            Exec_snapshot.to_string ~config ~program:aprogram
              (Engine.capture engine) ))
    in
    finished := (stage, Option.get !result) :: !finished;
    Ok ()
  in
  (* The reference-input stages left to run share one interpretation of
     the guest: one driver feeding a model per stage. *)
  let members group =
    List.map (fun s -> (stage_label s, stage_config s)) group
  in
  let ref_group group g =
    let* () =
      until_done
        (fun () -> Engine.Group.run g)
        (fun () ->
          ( List.hd group,
            Exec_snapshot.group_to_string ~program:ref_program (members group)
              (Engine.Group.capture g) ))
    in
    List.iter2
      (fun s r -> finished := (s, r) :: !finished)
      group (Engine.Group.results g);
    Ok ()
  in
  let pending () =
    List.filter
      (fun s -> not (List.mem_assoc s !finished))
      (Avep :: threshold_stages)
  in
  let* () =
    match resume with
    | Some { p_next; p_snapshot; _ } when not (List.mem_assoc p_next !finished)
      ->
        if Exec_snapshot.is_group p_snapshot then begin
          let group = pending () in
          match
            Tpdbt_durable.Durable.to_result ~what:"group snapshot"
              (Exec_snapshot.group_of_string p_snapshot)
          with
          | Error msg -> Error (Error.Io_error msg)
          | Ok _ when (match group with s :: _ -> s <> p_next | [] -> true) ->
              rejected "the group does not start at the interrupted stage"
          | Ok parsed -> (
              match
                Exec_snapshot.group_restore ~program:ref_program
                  (members group) parsed
              with
              | Ok g -> ref_group group g
              | Error reason -> rejected reason)
        end
        else begin
          let config = stage_config p_next in
          let aprogram = Spec.apply_input program (stage_input p_next) in
          match
            Tpdbt_durable.Durable.to_result ~what:"snapshot"
              (Exec_snapshot.of_string p_snapshot)
          with
          | Error msg -> Error (Error.Io_error msg)
          | Ok parsed -> (
              match Exec_snapshot.restore ~config ~program:aprogram parsed with
              | Ok engine -> solo p_next engine
              | Error reason -> rejected reason)
        end
    | _ -> Ok ()
  in
  let* () =
    match pending () with
    | [] -> Ok ()
    | group ->
        ref_group group
          (Engine.Group.create ~seed:ref_input.Spec.seed ref_program
             (List.map stage_config group))
  in
  (* The first fatal error in stage order wins, as it would if the
     stages ran one after another. *)
  let fatal stage =
    match (List.assoc stage !finished).Engine.error with
    | Some e when Error.fatal e -> Error e
    | _ -> Ok ()
  in
  let* () = fatal Avep in
  let* () =
    if List.mem_assoc Train !finished then Ok ()
    else
      solo Train
        (Engine.create ~config:(stage_config Train)
           ~seed:train_input.Spec.seed
           (Spec.apply_input program train_input))
  in
  let* () = fatal Train in
  let* () =
    List.fold_left (fun acc s -> Result.bind acc (fun () -> fatal s)) (Ok ())
      threshold_stages
  in
  let result s = List.assoc s !finished in
  Ok
    (assemble bench (result Avep) (result Train)
       (List.map (fun (label, scaled) ->
            (label, scaled, result (Threshold (label, scaled))))
          thresholds))

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

(* The AVEP and every config ride one interpretation of the reference
   input, as the sweep's reference stages do. *)
let run_ref_pass bench ~configs =
  let program, ref_input, _train_input = Spec.build bench in
  let g =
    Engine.Group.create ~seed:ref_input.Spec.seed
      (Spec.apply_input program ref_input)
      (Engine.profiling_only :: configs)
  in
  ignore (Engine.Group.run g);
  match Engine.Group.results g with
  | avep :: results -> (
      match avep.Engine.error with
      | Some e when Error.fatal e -> raise (Error.Error e)
      | Some _ | None -> (avep, results))
  | [] -> assert false

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
    let scaled = frac *. float_of_int footprint in
    let capacity =
      if scaled >= float_of_int max_int then max_int
      else max 1 (int_of_float scaled)
    in
    let config =
      budget
        (Engine.config ~threshold ~cache_capacity:capacity
           ~cache_policy:policy ~shadow_sample ())
    in
    { policy; frac; capacity; bounded = run_ref bench ~config }
  in
  let points, _ =
    Tpdbt_parallel.Pool.map ~jobs point (Array.of_list combos)
  in
  let points = Array.to_list points in
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

(* ---- the sweep --------------------------------------------------------- *)

module Sup = Tpdbt_parallel.Supervisor

type store = {
  finished : Spec.t -> (data option, string) result;
  suspended : Spec.t -> partial option;
  save : data -> unit;
  save_suspended : partial -> unit;
}

type supervision = {
  sup : Sup.stats;
  poisoned : (Spec.t * string) list;
  corrupt : (string * string) list;
}

let run_sweep ?thresholds ?max_steps ?deadline ?snapshot_every
    ?suspend_on_deadline ?(jobs = 1) ?(policy = Sup.one_attempt) ?store
    ?(progress = fun _ _ -> ()) ?(run_task = fun ~attempt:_ _ run -> run ())
    benches =
  (* The resume scan, on the collector before any worker starts: a
     finished entry is parsed once and never becomes a task, a damaged
     one is reported and re-run. *)
  let corrupt = ref [] in
  let entries =
    List.map
      (fun bench ->
        match Option.map (fun s -> s.finished bench) store with
        | Some (Ok (Some d)) ->
            progress bench.Spec.name Resumed;
            (bench, Some d)
        | Some (Error reason) ->
            corrupt := (bench.Spec.name, reason) :: !corrupt;
            (bench, None)
        | Some (Ok None) | None -> (bench, None))
      benches
  in
  let pending =
    Array.of_list
      (List.filter_map
         (fun (b, d) -> if Option.is_none d then Some b else None)
         entries)
  in
  (* One attempt, on the worker.  The suspended-state lookup runs per
     attempt, so a retry after a crash that followed a mid-run snapshot
     continues from that snapshot.  Mid-run snapshots are saved here
     too: until the task completes, its worker is the only writer of
     the benchmark's slot. *)
  let run bench () =
    run_benchmark_result ?thresholds ?max_steps ?deadline ?snapshot_every
      ?suspend_on_deadline
      ?on_snapshot:(Option.map (fun s -> s.save_suspended) store)
      ?resume:(Option.bind store (fun s -> s.suspended bench))
      bench
  in
  (* A typed fatal error fails the attempt only when the policy can
     retry it; otherwise the task resolves with the error and reports
     [Failed].  The last such error is kept, so a poisoned benchmark's
     entry in [failures] carries the engine's own diagnosis. *)
  let retry = policy.Sup.max_attempts > 1 in
  let last_error = Array.make (Array.length pending) None in
  let failed task = function
    | Error (Error.Suspended _) -> None
    | Error e when retry ->
        last_error.(task) <- Some e;
        Some (Error.to_string e)
    | Ok _ | Error _ -> None
  in
  let name task = pending.(task).Spec.name in
  let on_event = function
    | Sup.Attempt { task; attempt = 1 } -> progress (name task) Started
    | Sup.Gave_up { task; reason; _ } ->
        progress (name task) (Quarantined reason)
    | Sup.Breaker_opened { task; _ } ->
        progress (name task) (Quarantined "circuit breaker opened")
    | _ -> ()
  in
  (* On the collector: save, then report [Finished]. *)
  let on_result task = function
    | Ok d ->
        Option.iter (fun s -> s.save d) store;
        progress (name task) Finished
    | Error (Error.Suspended _) -> progress (name task) Suspended
    | Error e -> progress (name task) (Failed e)
  in
  let outcomes, stats =
    Sup.run ~jobs ~policy ~failed ~on_event ~on_result
      (fun ~attempt bench -> run_task ~attempt bench (run bench))
      pending
  in
  (* The input-order merge: resumed data, or the outcome of the next
     pending task — the same sweep at every job count. *)
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
          | Sup.Done (Error error) ->
              failures := { failed = bench; error } :: !failures
          | Sup.Poisoned { reason; _ } ->
              let error =
                match last_error.(task) with
                | Some e -> e
                | None -> Error.Io_error ("task poisoned: " ^ reason)
              in
              poisoned := (bench, reason) :: !poisoned;
              failures := { failed = bench; error } :: !failures))
    entries;
  ( { data = List.rev !data; failures = List.rev !failures },
    { sup = stats; poisoned = List.rev !poisoned; corrupt = List.rev !corrupt }
  )

(* Kept for the performance ledger (ledger/), whose sources stay the
   same across the changes it compares; everything else calls
   [run_sweep]. *)
let run_many ?max_steps benches = fst (run_sweep ?max_steps benches)

let run_many_par ?jobs ?max_steps benches =
  let jobs =
    match jobs with
    | Some j -> j
    | None -> Tpdbt_parallel.Supervisor.default_jobs ()
  in
  fst (run_sweep ~jobs ?max_steps benches)
