(** Resumable sweeps: one checkpoint file per benchmark, holding either
    its finished results or its mid-run suspended state.

    A {e finished} checkpoint stores only the {e raw} engine results
    (snapshots via {!Tpdbt_profiles.Profile_io}, counters with the
    cycles float in lossless [%h] form, steps, outputs, region stats);
    every derived comparison is recomputed on load through
    {!Runner.assemble}, which is pure — so a sweep resumed from
    checkpoints produces output byte-identical to an uninterrupted one.

    A {e suspended} checkpoint (format v4) additionally exists mid-run:
    the completed stages plus the in-flight run's serialized state
    ({!Tpdbt_dbt.Exec_snapshot}: a [TPDBT-GROUP] record for the
    reference group, a [TPDBT-SNAP] image for one engine), validated
    on load like the rest of the file.  A benchmark's file monotonically
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
    {!store} uses the classification to report corruption. *)

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

val store :
  ?thresholds:(string * int) list ->
  ?resume_suspended:bool ->
  ?on_snapshot_saved:(string -> unit) ->
  dir:string ->
  unit ->
  Runner.store
(** The checkpoint store over [dir], for {!Runner.run_sweep}: the resume
    scan restores {!Valid} finished entries and reports {!Corrupt} and
    {!Stale_version} ones as damaged (to be re-run); finished results
    and mid-run snapshots are saved into each benchmark's slot, and
    every mid-run snapshot is then reported to [on_snapshot_saved] with
    the benchmark name.  [resume_suspended] (default [true]) continues
    suspended entries from their snapshot instead of restarting them.
    [thresholds] must be the sweep's own. *)

val run_many :
  ?max_steps:int ->
  ?snapshot_every:int ->
  ?progress:(string -> Runner.status -> unit) ->
  dir:string ->
  Tpdbt_workloads.Spec.t list ->
  Runner.sweep
(** {!Runner.run_sweep} at [jobs = 1] over {!store}[ ~dir ()].  Kept
    because the performance ledger ([ledger/]) calls it, and the
    ledger's sources stay the same across the changes it compares. *)

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
