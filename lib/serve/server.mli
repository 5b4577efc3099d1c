(** The serving state machine behind [tpdbt serve].

    This module is the daemon with the sockets peeled off: it owns
    admission control, request execution, the warm cache, the session
    journal, drain, and the [serve.*] telemetry — everything that must
    be correct under fault injection — while {!Daemon} contributes only
    I/O (connections, timeouts, signals).  The split is what makes the
    serving-failure surface testable: the chaos harness
    ({!Chaos_serve}) drives this state machine directly with seeded
    faults and byte-diffs the results, no sockets involved.

    {2 Admission and backpressure}

    Expensive requests ([translate]/[run]/[sweep]) pass through a
    bounded queue of [queue_limit] jobs.  A request arriving at a full
    queue is answered [overloaded] {e immediately} — the daemon never
    buffers unboundedly, so queue depth (the RSS proxy) is capped by
    configuration, not by client behaviour.  Probes ([ping]/[status]/
    [metrics]) and [drain] are answered inline and are never queued,
    so the daemon stays observable under overload.

    {2 Execution}

    One queued job executes per {!step}, on the calling domain; sweeps
    fan out over {!Tpdbt_parallel.Supervisor} via the supervised,
    checkpointed runner, so a serving sweep inherits every
    batch-robustness property: per-task deadlines, bounded retry,
    breakers, worker-crash recovery, crash-consistent checkpoints, and
    byte-identical results at every job count.

    {2 Recovery}

    Admitted sweeps are journalled ({!Journal}) before they run and
    marked complete after their results are checkpointed.  A server
    created over the journal of a killed predecessor re-enqueues every
    in-flight sweep as an {e orphan} job (no client to answer); its
    finished benchmarks restore from checkpoints, benchmarks with a
    journalled mid-run snapshot ({!Journal.Snapshot_ref}) resume from
    that exact guest instruction, and the rest re-run — results
    byte-identical to a never-killed run. *)

type config = {
  queue_limit : int;  (** admission bound (default 8) *)
  max_frame : int;  (** per-connection frame bound, advertised in status *)
  jobs : int;  (** worker domains for sweep execution (default 1) *)
  deadline : int option;
      (** per-run guest-step deadline (supervisor budget) applied to
          every engine run the server performs *)
  max_steps : int option;
      (** server-wide step-budget cap; a request's own [max_steps]
          takes precedence when smaller *)
  warm_capacity : int;
      (** warm-cache budget in translated guest instructions *)
  checkpoint_dir : string option;
      (** sweep checkpoint store; also the recovery substrate *)
  journal_path : string option;  (** session journal; [None] = volatile *)
  snapshot_every : int;
      (** with a checkpoint dir: every N guest instructions, each
          sweep benchmark publishes its mid-run state into the store
          (and a {!Journal.Snapshot_ref} into the journal), so a
          killed daemon's orphaned sweeps {e resume} mid-run instead
          of re-running from scratch; [0] (default) disables *)
}

val default_config : config
(** queue limit 8, 4 MiB frames, 1 job, no deadline, no step cap,
    1M-instruction warm cache, no checkpoint dir, no journal, no
    mid-run snapshots. *)

type t

val create :
  ?run_task:
    (attempt:int ->
    Tpdbt_workloads.Spec.t ->
    (unit -> (Tpdbt_experiments.Runner.data, Tpdbt_dbt.Error.t) result) ->
    (Tpdbt_experiments.Runner.data, Tpdbt_dbt.Error.t) result) ->
  ?on_progress:(string -> Tpdbt_experiments.Runner.status -> unit) ->
  config ->
  t
(** [run_task] and [on_progress] are forwarded to
    {!Tpdbt_experiments.Runner.run_sweep} — the chaos harness's
    fault-injection points, and the daemon's I/O pump.  Opening a journal with in-flight sweeps
    re-enqueues them as orphan jobs (run them with {!step}). *)

type offer =
  | Reply of string  (** answered inline (probe, rejection, drain ack) *)
  | Enqueued of int  (** admitted; the reply comes from a later {!step} *)

val offer : t -> client:int -> string -> offer
(** Present one received frame payload.  Never raises: malformed JSON,
    schema violations and unknown ops all come back as [invalid]
    replies; a full queue as [overloaded]; a draining server rejects
    new expensive work as [draining]. *)

type stepped = {
  job : int;
  client : int option;  (** [None] for journal-recovered orphans *)
  reply : string;
  delivered : bool;
      (** [false] when the client disconnected while queued/running —
          the reply was dropped, not sent *)
}

val step : t -> stepped option
(** Execute the oldest queued job, if any.  Requests that fail inside
    the engine still produce a reply ([ok:true] with the typed error
    as data, or an [invalid] reply for semantic rejections like an
    unknown benchmark) — execution failures never kill the server. *)

val disconnect : t -> client:int -> unit
(** The client vanished: its queued/running jobs still execute (sweep
    results are checkpointed — the work is not wasted), but their
    replies are dropped. *)

val drain : t -> unit
(** Stop admitting expensive work.  Idempotent.  Queued jobs still
    execute; call {!step} until {!idle}, then {!close}. *)

val draining : t -> bool

val idle : t -> bool
(** Nothing queued. *)

val pending : t -> int
(** Queue depth. *)

val queue_peak : t -> int

val recovered : t -> (int * string list) list
(** Journal-recovered in-flight sweeps re-enqueued at creation. *)

val recovered_snapshots : t -> (int * string) list
(** Journal-recovered mid-run snapshot refs of those sweeps: which
    benchmarks the checkpoint store can resume at guest-instruction
    granularity rather than re-run. *)

val metrics : t -> Tpdbt_telemetry.Metrics.t
(** The [serve.*] registry (gauges refreshed on read via {!offer}'s
    [status]/[metrics] ops; counters always live). *)

val status_reply : t -> string
(** The [status] reply body — exposed for the daemon's logs/tests. *)

val close : t -> unit
(** Flush and close the journal; a drained idle server journals
    [Drained] first so a restart recovers nothing. *)
