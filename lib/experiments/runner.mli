(** Sweep runner: executes one benchmark under every experimental
    configuration of the paper's methodology (§2).

    For each benchmark it performs:
    - one profiling-only run with the reference input (AVEP),
    - one profiling-only run with the training input (INIP(train)),
    - one two-phase run per retranslation threshold (INIP(T)),

    then compares each INIP(T) against AVEP ({!Tpdbt_profiles.Metrics})
    and INIP(train) against AVEP.

    The AVEP run and the threshold runs share one interpretation of the
    reference input: one guest driver feeds a translator model per
    stage ({!Tpdbt_dbt.Engine.Group}), each of which ends exactly as
    its own engine would.  The training input runs on its own engine. *)

type threshold_run = {
  label : string;  (** paper-equivalent label, e.g. "2k" *)
  scaled : int;  (** the actual threshold used *)
  result : Tpdbt_dbt.Engine.result;
  comparison : Tpdbt_profiles.Metrics.comparison;
}

type data = {
  bench : Tpdbt_workloads.Spec.t;
  avep : Tpdbt_dbt.Engine.result;
  train : Tpdbt_dbt.Engine.result;
  train_flat : Tpdbt_profiles.Metrics.flat;
  train_regions : Tpdbt_profiles.Metrics.comparison;
      (** regions formed {e offline} in the training profile
          ({!Tpdbt_profiles.Offline_regions}) compared against AVEP —
          supplies the Sd.CP(train) / Sd.LP(train) reference the paper
          lists as future work. *)
  runs : threshold_run list;
}

val run_benchmark :
  ?thresholds:(string * int) list ->
  ?max_steps:int ->
  ?deadline:int ->
  Tpdbt_workloads.Spec.t ->
  data
(** Thresholds default to {!Tpdbt_workloads.Suite.thresholds}.  Runs are
    deterministic (fixed seeds from the spec).  [max_steps] overrides
    each constituent run's (non-fatal) step budget; [deadline] arms the
    supervisor's (fatal) cooperative watchdog — see
    {!Tpdbt_dbt.Engine.config}.
    @raise Tpdbt_dbt.Error.Error if any constituent run ends with a
    {e fatal} typed error (guest trap, exhausted recovery).  A run that
    merely blows its step budget ([Limit_exceeded], the one non-fatal
    error) is kept as a partial run — several ref workloads
    legitimately outlive the default budget. *)

(** {2 Suspend / resume}

    A benchmark is a fixed set of runs ("stages"): the AVEP profile, the
    training profile, then one optimised run per threshold.  A mid-run
    snapshot is the finished stages plus the in-flight run's serialized
    state ({!Tpdbt_dbt.Exec_snapshot}): the reference group's
    [TPDBT-GROUP] record, or one engine's [TPDBT-SNAP] image.  Resuming
    a {!partial} then running to completion produces a {!data} — and
    hence checkpoint bytes — identical to an uninterrupted run's. *)

type stage =
  | Avep
  | Train
  | Threshold of string * int  (** label, scaled threshold *)

val stage_label : stage -> string
(** ["avep"], ["train"], or the threshold label. *)

type partial = {
  p_bench : Tpdbt_workloads.Spec.t;
  p_thresholds : (string * int) list;
  p_done : (stage * Tpdbt_dbt.Engine.result) list;
      (** finished stages, in stage order *)
  p_next : stage;
      (** the stage the snapshot interrupts; for a group, its first
          member *)
  p_snapshot : string;
      (** {!Tpdbt_dbt.Exec_snapshot.group_to_string} text for the
          reference group, {!Tpdbt_dbt.Exec_snapshot.to_string} text
          for one stage's engine (the training stage, or a slot that
          names one interrupted stage) *)
}

val run_benchmark_result :
  ?thresholds:(string * int) list ->
  ?max_steps:int ->
  ?deadline:int ->
  ?snapshot_every:int ->
  ?suspend_on_deadline:bool ->
  ?on_snapshot:(partial -> unit) ->
  ?resume:partial ->
  Tpdbt_workloads.Spec.t ->
  (data, Tpdbt_dbt.Error.t) result
(** Like {!run_benchmark} but failures stay values — the form sweeps
    use to isolate a failing benchmark without losing the others.

    [snapshot_every n] (default 0 = off) publishes a {!partial} to
    [on_snapshot] every [n] guest instructions of the reference pass and
    of the training pass, then {e continues}; the final result is
    byte-identical to a run without the trigger.  [suspend_on_deadline]
    (default false) turns a blown [deadline] into a parked benchmark:
    the last state is published to [on_snapshot] and the call returns
    [Error (Suspended _)] — a {e non-fatal} error marking work to
    resume, not a failure.  A fatal [deadline] stops each stage at its
    own dispatch point, and a failing benchmark reports the first fatal
    error in AVEP, training, thresholds order.  [resume] continues from
    a previously published {!partial}: finished stages are reused as
    recorded, the interrupted group or stage continues from its
    snapshot, and the rest run normally.  A damaged or mismatched [resume] (wrong benchmark,
    different thresholds, corrupt or stale snapshot text, config or
    program digest mismatch) yields [Error (Io_error _)] — never a
    wrong result. *)

val assemble :
  Tpdbt_workloads.Spec.t ->
  Tpdbt_dbt.Engine.result ->
  Tpdbt_dbt.Engine.result ->
  (string * int * Tpdbt_dbt.Engine.result) list ->
  data
(** [assemble bench avep train runs] rebuilds the derived comparisons
    from raw engine results.  Derivation is pure, so a {!data} restored
    from checkpointed raw runs is identical to one computed live —
    the property checkpoint resume ({!Checkpoint}) relies on. *)

type cache_point = {
  policy : Tpdbt_dbt.Code_cache.policy;
  frac : float;  (** capacity as a fraction of [footprint] *)
  capacity : int;  (** the actual budget, in translated instructions *)
  bounded : Tpdbt_dbt.Engine.result;  (** the run under that budget *)
}

type cache_data = {
  cache_bench : Tpdbt_workloads.Spec.t;
  cache_threshold : int;
  baseline : Tpdbt_dbt.Engine.result;  (** unbounded-cache run *)
  footprint : int;
      (** the baseline's peak cache occupancy (translated guest
          instructions) — the benchmark's full translated footprint *)
  points : cache_point list;  (** grouped by policy, then fraction *)
}

val run_cache_sweep :
  ?jobs:int ->
  ?threshold:int ->
  ?policies:Tpdbt_dbt.Code_cache.policy list ->
  ?fracs:float list ->
  ?shadow_sample:int ->
  ?max_steps:int ->
  Tpdbt_workloads.Spec.t ->
  cache_data
(** Fig.-17-style cache-size sweep: one unbounded baseline run, then
    one bounded run per (policy, capacity fraction) with the capacity
    set to [frac x footprint], at least 1 and at most [max_int].
    Defaults: threshold 20, all three policies, fractions 1/8, 1/4, 1/2,
    1, shadow oracle off.
    Guest behaviour (outputs, steps) is invariant across all points;
    only the cycle cost moves.  Never raises: inspect each
    [result.error].

    [jobs] > 1 runs the (policy, fraction) points on a
    {!Tpdbt_parallel.Pool} of that many worker domains after the
    baseline completes; [points] keeps the canonical policy-major
    order and every point's result is identical to the sequential
    sweep's (each point is an isolated engine run with fixed seeds).
    Default 1 (sequential, no domain spawned). *)

type status =
  | Started  (** about to run *)
  | Finished  (** completed cleanly (after [save], if any) *)
  | Failed of Tpdbt_dbt.Error.t  (** isolated per-benchmark failure *)
  | Resumed  (** restored from a checkpoint; not re-run *)
  | Quarantined of string
      (** the task was poisoned: its attempts ran out or its circuit
          breaker opened.  Under a one-attempt policy only a raised
          exception ends this way; a typed error is [Failed]. *)
  | Suspended
      (** parked on a resumable mid-run snapshot (deadline suspension);
          appears in [failures] with {!Tpdbt_dbt.Error.Suspended} *)

type failure = { failed : Tpdbt_workloads.Spec.t; error : Tpdbt_dbt.Error.t }

type sweep = { data : data list; failures : failure list }
(** Both in input order; a benchmark appears in exactly one list. *)

val suspended_failure : failure -> bool
(** [true] iff the failure is a parked, resumable suspension rather
    than a broken benchmark. *)

val status_name : status -> string
(** ["started"], ["ok"], ["failed"], ["resumed"], ["poisoned"],
    ["suspended"]. *)

type store = {
  finished : Tpdbt_workloads.Spec.t -> (data option, string) result;
      (** the resume scan's lookup: [Ok (Some d)] skips the benchmark,
          [Ok None] runs it, [Error reason] runs it and reports the
          damaged entry in [supervision.corrupt] *)
  suspended : Tpdbt_workloads.Spec.t -> partial option;
      (** mid-run state to continue from, looked up on every attempt *)
  save : data -> unit;  (** a freshly computed benchmark *)
  save_suspended : partial -> unit;  (** a mid-run snapshot *)
}
(** Where a sweep's results persist.  {!Checkpoint.store} builds one
    over a directory. *)

type supervision = {
  sup : Tpdbt_parallel.Supervisor.stats;
  poisoned : (Tpdbt_workloads.Spec.t * string) list;
      (** quarantined benchmarks with the last failure reason, in
          input order; each also appears in the sweep's [failures] *)
  corrupt : (string * string) list;
      (** damaged store entries found by the resume scan, as
          [(bench name, reason)] in input order; each was re-run *)
}

val run_sweep :
  ?thresholds:(string * int) list ->
  ?max_steps:int ->
  ?deadline:int ->
  ?snapshot_every:int ->
  ?suspend_on_deadline:bool ->
  ?jobs:int ->
  ?policy:Tpdbt_parallel.Supervisor.policy ->
  ?store:store ->
  ?progress:(string -> status -> unit) ->
  ?run_task:
    (attempt:int ->
    Tpdbt_workloads.Spec.t ->
    (unit -> (data, Tpdbt_dbt.Error.t) result) ->
    (data, Tpdbt_dbt.Error.t) result) ->
  Tpdbt_workloads.Spec.t list ->
  sweep * supervision
(** The one sweep: every benchmark under {!run_benchmark_result}, on
    {!Tpdbt_parallel.Supervisor} with [jobs] worker domains (default 1:
    sequential, no domain spawned) under [policy] (default
    {!Tpdbt_parallel.Supervisor.one_attempt}: no retries).  The limits
    and snapshot controls pass through to {!run_benchmark_result}.

    The merged {!sweep} is {e identical} for every job count and
    policy: each benchmark is an isolated engine computation with
    per-spec fixed seeds, and results merge in input order.  Only the
    arrival order of [progress] calls varies.

    With a [store], the resume scan runs first: a finished entry is
    restored ([Resumed]) and never becomes a task, a damaged one is
    re-run and listed in [supervision.corrupt].  Each attempt looks up
    the benchmark's suspended state ([store.suspended]) and continues
    from it, and mid-run snapshots go to [store.save_suspended]; both
    run on the worker running the benchmark, the slot's only reader
    and writer until the task completes.  Every other callback —
    [progress], [store.finished], [store.save] — runs on the calling
    domain, and [save] precedes the [Finished] report, so a sweep
    killed mid-flight resumes from what it reported.

    A benchmark that ends in a typed error is isolated: the sweep
    continues.  Under a policy that allows retries the error fails the
    attempt, and a benchmark that keeps failing is quarantined
    ([Quarantined] progress, listed in [supervision.poisoned] and in
    [failures] with its last typed error).  Under
    {!Tpdbt_parallel.Supervisor.one_attempt} it is reported [Failed]
    and lands in [failures].  A task that returns
    [Error (Suspended _)] is never retried: it is parked ([Suspended])
    for a later sweep to resume.

    [run_task ~attempt bench run] replaces one attempt; [run ()] is
    what the sweep would have done.  It is the fault-injection point of
    the chaos harnesses, whose plans key on the benchmark and the
    1-based attempt number. *)

val run_many : ?max_steps:int -> Tpdbt_workloads.Spec.t list -> sweep
(** {!run_sweep} at [jobs = 1].  Kept because the performance ledger
    ([ledger/]) calls it, and the ledger's sources stay the same across
    the changes it compares. *)

val run_many_par :
  ?jobs:int -> ?max_steps:int -> Tpdbt_workloads.Spec.t list -> sweep
(** {!run_sweep} at [jobs] (default
    {!Tpdbt_parallel.Supervisor.default_jobs}).  Kept because the performance
    ledger ([ledger/]) calls it, and the ledger's sources stay the same
    across the changes it compares. *)

val run_ref :
  ?sink:Tpdbt_telemetry.Sink.t ->
  Tpdbt_workloads.Spec.t ->
  config:Tpdbt_dbt.Engine.config ->
  Tpdbt_dbt.Engine.result
(** One reference-input run under an arbitrary engine configuration.
    [sink] overrides the configuration's telemetry sink.  Never raises:
    inspect [result.error] — fault campaigns need the partial result of
    a failed run. *)

val run_ref_pass :
  Tpdbt_workloads.Spec.t ->
  configs:Tpdbt_dbt.Engine.config list ->
  Tpdbt_dbt.Engine.result * Tpdbt_dbt.Engine.result list
(** [(avep, results)] from one interpretation of the reference input:
    an {!Tpdbt_dbt.Engine.Group} of the profiling-only model (the AVEP
    profile) and one model per config, in order.  Each result is the
    one {!run_ref} gives that config on its own.  An AVEP cut short by
    a non-fatal error (the step cap: mcf reaches it) is kept as a
    partial run, as {!run_benchmark} keeps it; the config results are
    returned as they end, errors included.
    @raise Tpdbt_dbt.Error.Error if the AVEP ends with a fatal error
    ({!Tpdbt_dbt.Error.fatal}).
    @raise Invalid_argument for a config that
    {!Tpdbt_dbt.Engine.Group.create} refuses beside the profiling-only
    model: a fault plan, the shadow oracle or a suspension trigger. *)

val run_traced :
  ?limit:int ->
  ?extra_sinks:Tpdbt_telemetry.Sink.t list ->
  Tpdbt_workloads.Spec.t ->
  config:Tpdbt_dbt.Engine.config ->
  Tpdbt_dbt.Engine.result
  * Tpdbt_telemetry.Sink.buffer
  * Tpdbt_telemetry.Metrics.t
(** One fully-instrumented reference-input run: buffers the event
    stream (at most [limit] events, {!Tpdbt_telemetry.Sink.memory}'s
    default otherwise), aggregates the standard event metrics
    ({!Tpdbt_telemetry.Sink.collect}) and the run's [perf.*] counters
    ({!Tpdbt_dbt.Perf_model.record}) into a fresh registry, and closes
    every sink.  [extra_sinks] (e.g. a streaming JSONL writer) receive
    the same events; they are closed too.  Powers [tpdbt trace]. *)

