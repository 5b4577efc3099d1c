(** Resumable sweeps: one checkpoint file per benchmark, holding either
    its finished results or its mid-run suspended state.

    A {e finished} checkpoint stores only the {e raw} engine results
    (snapshots via {!Tpdbt_profiles.Profile_io}, counters with the
    cycles float in lossless [%h] form, steps, outputs, region stats);
    every derived comparison is recomputed on load through
    {!Runner.assemble}, which is pure — so a sweep resumed from
    checkpoints produces output byte-identical to an uninterrupted one.

    A {e suspended} checkpoint (format v4) additionally exists mid-run:
    the completed stages plus the in-flight engine's serialized image
    ({!Tpdbt_dbt.Exec_snapshot}).  A benchmark's file monotonically
    progresses suspended -> ... -> suspended -> finished in the same
    slot, so a sweep killed at {e any} guest instruction resumes from
    its last snapshot — and, by the engine's capture/restore guarantee,
    still produces byte-identical final results.

    Files are {!Tpdbt_durable.Durable} records (magic [TPDBT-CKPT 4],
    since v3): sealed with a CRC32 and byte length, published by an
    atomic write, and {e classified} on load — a truncated,
    bit-flipped, trailing-garbage or empty file is {!Corrupt}, an older
    format is {!Stale_version}, and either way resume re-runs exactly
    the damaged entries instead of trusting them, so the repaired sweep
    is byte-identical to one that never lost the file. *)

type stored =
  | Finished of Runner.data  (** a completed benchmark's results *)
  | Suspended of Runner.partial  (** mid-run state, resumable *)

type 'a classified = 'a Tpdbt_durable.Durable.classified =
  | Valid of 'a  (** header, CRC, length and payload all check out *)
  | Missing  (** no checkpoint file *)
  | Stale_version of string
      (** an earlier format's magic line — sound when written, but not
          readable by this version; re-run *)
  | Corrupt of string
      (** damaged (truncated, bit-flipped, trailing garbage, empty,
          wrong benchmark, different threshold list, damaged embedded
          engine snapshot, …); the string says how *)

val path : dir:string -> Tpdbt_workloads.Spec.t -> string
(** [<dir>/<bench-name>.ckpt]. *)

val save : dir:string -> Runner.data -> unit
(** Write the benchmark's finished checkpoint with
    {!Tpdbt_durable.Durable.atomic_write}, creating [dir] if needed.
    @raise Sys_error on I/O failure. *)

val save_suspended : dir:string -> Runner.partial -> unit
(** Write mid-run state into the benchmark's slot, with the same
    crash-consistency; a later {!save} overwrites it with the finished
    result.
    @raise Sys_error on I/O failure. *)

val classify :
  ?thresholds:(string * int) list ->
  dir:string ->
  Tpdbt_workloads.Spec.t ->
  stored classified
(** Inspect the benchmark's checkpoint without committing to a
    boolean: callers that only care whether to re-run use {!load};
    the supervisor uses the classification to count and report
    corruption. *)

val load :
  ?thresholds:(string * int) list ->
  dir:string ->
  Tpdbt_workloads.Spec.t ->
  Runner.data option
(** The {e finished} result — [None] if the file is absent, malformed,
    suspended, for another benchmark, or recorded under a different
    threshold list (default {!Tpdbt_workloads.Suite.thresholds}). *)

val load_suspended :
  ?thresholds:(string * int) list ->
  dir:string ->
  Tpdbt_workloads.Spec.t ->
  Runner.partial option
(** The {e suspended} mid-run state, under the same validation. *)

val hooks :
  ?thresholds:(string * int) list ->
  ?on_bad:(Tpdbt_workloads.Spec.t -> string -> unit) ->
  dir:string ->
  unit ->
  (Runner.data -> unit) * (Tpdbt_workloads.Spec.t -> Runner.data option)
(** [(save, load)] closures for {!Runner.run_many}'s [?save]/[?load].
    [on_bad spec reason] fires when a checkpoint exists but is
    {!Corrupt} or {!Stale_version} (never for {!Missing} or a healthy
    {!Suspended} entry) — the hook behind [checkpoint.corrupt]
    telemetry. *)

val run_many :
  ?thresholds:(string * int) list ->
  ?max_steps:int ->
  ?deadline:int ->
  ?snapshot_every:int ->
  ?suspend_on_deadline:bool ->
  ?resume_suspended:bool ->
  ?on_snapshot_saved:(string -> unit) ->
  ?progress:(string -> Runner.status -> unit) ->
  dir:string ->
  Tpdbt_workloads.Spec.t list ->
  Runner.sweep
(** {!Runner.run_many} with checkpointing wired in: completed
    benchmarks are saved to [dir] and already-checkpointed ones are
    restored instead of re-run.  [snapshot_every]/[suspend_on_deadline]
    arm mid-run snapshots, each saved into the benchmark's slot (then
    reported to [on_snapshot_saved] with the benchmark name);
    [resume_suspended] (default [true]) continues suspended entries
    from their snapshot instead of restarting them. *)

val run_many_par :
  ?thresholds:(string * int) list ->
  ?max_steps:int ->
  ?deadline:int ->
  ?snapshot_every:int ->
  ?suspend_on_deadline:bool ->
  ?resume_suspended:bool ->
  ?on_snapshot_saved:(string -> unit) ->
  ?jobs:int ->
  ?progress:(string -> Runner.status -> unit) ->
  ?sink:Tpdbt_telemetry.Sink.t ->
  ?metrics:Tpdbt_telemetry.Metrics.t ->
  ?report:(Tpdbt_parallel.Pool.stats -> unit) ->
  dir:string ->
  Tpdbt_workloads.Spec.t list ->
  Runner.sweep
(** {!Runner.run_many_par} with the same checkpoint hooks.  Finished
    results are saved on the calling (collector) domain as they
    arrive, and the resume scan runs before any worker spawns —
    checkpoint files are byte-identical to a sequential run's at every
    job count.  Mid-run snapshots are the one exception: each is saved
    by the worker driving that benchmark, which is that file's only
    writer until the task completes, so the single-writer-per-file
    invariant still holds. *)

val run_many_supervised :
  ?thresholds:(string * int) list ->
  ?max_steps:int ->
  ?deadline:int ->
  ?snapshot_every:int ->
  ?suspend_on_deadline:bool ->
  ?resume_suspended:bool ->
  ?on_snapshot_saved:(string -> unit) ->
  ?jobs:int ->
  ?policy:Tpdbt_parallel.Supervisor.policy ->
  ?progress:(string -> Runner.status -> unit) ->
  ?sink:Tpdbt_telemetry.Sink.t ->
  ?metrics:Tpdbt_telemetry.Metrics.t ->
  ?report:(Tpdbt_parallel.Supervisor.stats -> unit) ->
  ?run_task:
    (task:int ->
    attempt:int ->
    Tpdbt_workloads.Spec.t ->
    (Runner.data, Tpdbt_dbt.Error.t) result) ->
  dir:string ->
  Tpdbt_workloads.Spec.t list ->
  Runner.sweep * Runner.supervision
(** {!Runner.run_many_supervised} with the crash-consistent checkpoint
    hooks.  Damaged checkpoints found during the resume scan are
    re-run, returned in [supervision.corrupt] (scan order), emitted as
    [checkpoint.corrupt] telemetry events, and counted in the
    [checkpoint.corrupt] metric.  Suspended entries resume from their
    mid-run snapshot (at every attempt — a retry of a task whose
    earlier attempt crashed after a snapshot continues rather than
    restarts).  Together with the supervisor this closes the loop: a
    sweep survives task failures, worker crashes, a kill at an
    arbitrary guest instruction {e and} a corrupted checkpoint store,
    and still produces results byte-identical to an undisturbed run
    for every non-poisoned benchmark. *)

val data_to_string : Runner.data -> string
val partial_to_string : Runner.partial -> string

val data_of_string :
  ?thresholds:(string * int) list ->
  Tpdbt_workloads.Spec.t ->
  string ->
  stored classified
(** The serialisation itself, for tests.  [data_of_string] needs the
    spec because checkpoints reference the benchmark by name rather
    than re-encoding the descriptor.  It never returns {!Missing} (the
    text exists; an empty string is {!Corrupt}); [thresholds], when
    given, must match the recorded list exactly. *)

val bench_name : string -> string classified
(** The benchmark a checkpoint text names, read only once the frame has
    verified — the first step of inspecting a file whose benchmark is
    not known in advance ([tpdbt snapshot info]). *)
