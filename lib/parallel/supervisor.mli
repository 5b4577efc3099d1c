(** Fault-tolerant job supervision over worker domains: the one
    scheduler behind every parallel run.

    [Supervisor.run] is a job system on worker domains: every task is
    attempted, failures are retried on a deterministic backoff
    schedule, persistently failing tasks are quarantined as
    {!Poisoned} instead of aborting the sweep, and the pool itself
    degrades gracefully when worker domains are lost, so a single stuck
    or crashing task does not cost hours of finished work.  Every
    threshold sweep runs on it ([Tpdbt_experiments.Runner.run_sweep]);
    a plain sweep is simply the {!one_attempt} policy.  {!Pool.map} is
    an array map over {!one_attempt} whose tasks hand their exceptions
    back as values, so they never fail here.

    {2 Supervision model}

    - {e Retry with backoff.}  A failed attempt (the task raised, or
      the [failed] classifier rejected its value) is retried up to
      [max_attempts] times.  The delay between attempts is exponential
      with deterministic jitter, measured on a {e logical} clock — one
      tick per completed attempt, fast-forwarded when the pool is idle
      — so the schedule is seeded, reproducible, and costs no
      wall-clock time.
    - {e Circuit breaker.}  After [breaker_after] consecutive failures
      the task's breaker opens and it is quarantined immediately,
      before its retry budget runs out.
    - {e Worker loss.}  A task that raises {!Crash_worker} takes its
      worker domain down with it (the deterministic stand-in for a
      segfaulting or wedged domain).  The crash is caught, the attempt
      is requeued — the dead worker, which no longer draws from the
      queue, is automatically excluded — and a crash consumes an
      attempt number (so a task that kills every worker it touches
      still terminates as {!Poisoned}) but {e not} a breaker count:
      losing a worker is the harness's fault, not the task's.
    - {e Graceful degradation.}  When fewer than two live workers
      remain, the pool stops pretending to be parallel: queued jobs
      and all later retries run inline on the collector domain, and
      the run completes sequentially rather than aborting.

    {2 Determinism}

    Callbacks run on the calling domain only and results are keyed by
    task index.  Because retry/poison decisions depend only on what
    [f ~attempt] does for each [(task, attempt)] pair — never on
    scheduling — the outcome array and the
    [attempts]/[retries]/[poisoned]/[crashes] counts are identical at
    every job count and across repeated runs with the same seed.  Only
    [degraded], [busy] and [elapsed] (and callback arrival order) are
    scheduling-dependent. *)

exception Crash_worker
(** Raised {e by a task} to kill the worker domain executing it — the
    test/chaos stand-in for a worker lost to the OS.  The supervisor
    catches it at the worker boundary; it never escapes {!run}. *)

type policy = {
  max_attempts : int;  (** total attempts per task, including the first *)
  breaker_after : int;
      (** consecutive failures that open the task's circuit breaker *)
  backoff_base : int;  (** first retry delay, in logical ticks *)
  backoff_cap : int;  (** ceiling on the exponential delay *)
  seed : int64;  (** seeds the deterministic backoff jitter *)
}

val default_policy : policy
(** 4 attempts, breaker at 3 consecutive failures, backoff 1 tick
    doubling to a cap of 8. *)

val one_attempt : policy
(** {!default_policy} with [max_attempts = 1]: a failed attempt is
    never retried, and the breaker (3 failures) cannot open.  Since
    nothing is requeued, each worker exits once the queue drains.  An
    unsupervised sweep runs under this policy. *)

val max_jobs : int
(** 127: the most worker domains a run can spawn, since OCaml 5.1 runs
    at most 128 domains in a 64-bit process and the calling domain is
    one of them. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()], at most {!max_jobs}: the
    default [jobs] of {!run} and of every [--jobs] option. *)

type 'b outcome =
  | Done of 'b
  | Poisoned of { attempts : int; reason : string }
      (** quarantined: retry budget exhausted or breaker opened;
          [reason] is the last failure's description *)

type event =
  | Attempt of { task : int; attempt : int }  (** execution began *)
  | Task_done of { task : int; attempt : int; seconds : float }
  | Retry of { task : int; attempt : int; backoff : int; reason : string }
      (** the failed task will be re-attempted (as attempt [attempt])
          after [backoff] logical ticks *)
  | Gave_up of { task : int; attempts : int; reason : string }
      (** retry budget exhausted — the task is poisoned *)
  | Breaker_opened of { task : int; failures : int }
      (** circuit breaker tripped — the task is poisoned *)
  | Worker_lost of { worker : int; task : int }
      (** [task]'s attempt crashed worker [worker]; the attempt is
          requeued on the surviving workers *)
  | Degraded of { live : int }
      (** fewer than two live workers remain — execution continues
          inline on the collector *)

type stats = {
  jobs : int;  (** worker domains initially spawned (1 if sequential) *)
  tasks : int;
  attempts : int;  (** executions started, over all tasks *)
  retries : int;  (** re-attempts scheduled after failures *)
  poisoned : int;  (** tasks quarantined *)
  crashes : int;  (** worker losses absorbed *)
  degraded : bool;  (** did the pool fall back to inline execution? *)
  busy : float;  (** summed seconds inside attempts *)
  elapsed : float;  (** wall-clock seconds for the whole run *)
}

val run :
  ?jobs:int ->
  ?policy:policy ->
  ?failed:(int -> 'b -> string option) ->
  ?on_event:(event -> unit) ->
  ?on_result:(int -> 'b -> unit) ->
  (attempt:int -> 'a -> 'b) ->
  'a array ->
  'b outcome array * stats
(** [run f tasks] executes every task under supervision and returns
    one {!outcome} per task, in task order — the call never raises on
    task failure.  [f ~attempt x] receives the 1-based attempt number
    so tasks can vary deterministically across retries (fault plans
    key on it).

    [failed task v] classifies a value that {e returned} as a failure
    anyway (e.g. a sweep run that ended in a fatal typed error);
    [Some reason] triggers the same retry/breaker path as a raise.

    [on_event] and [on_result] run on the calling domain only;
    [on_result task v] fires once per [Done] task as it resolves.
    [jobs] defaults to {!default_jobs}[ ()], clamped to the task
    count; [jobs <= 1] runs inline with no domains spawned, through
    the identical supervision state machine. *)
