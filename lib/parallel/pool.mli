(** Fixed-size domain pool with work-stealing over an indexed task set.

    The pool maps a pure function over an array of tasks using [jobs]
    worker domains plus the calling domain, which acts as the {e
    collector}: workers never touch shared experiment state, they only
    send messages (scheduling events and results) to the collector,
    which is the single domain that runs [on_event].

    It serves plain array maps whose tasks are trusted to return: the
    cache-size sweep, fault campaigns and differential fuzzing.  Threshold
    sweeps, which need per-benchmark failure isolation, checkpointing
    and retries, run on {!Supervisor} instead.

    {2 Determinism}

    Scheduling is nondeterministic (which worker runs which task, and
    in what order, depends on timing), but the {e result} is not:

    - each task is an isolated computation of its input only (the
      experiment harness fixes all seeds per spec), so a task's value
      does not depend on which domain ran it or when;
    - results are tagged with their task index and merged into the
      output array at that index, so the merged output is the array the
      sequential [Array.map] would have produced, for every [jobs].

    Only the {e arrival order} of [on_event] callbacks varies across
    runs; callers that need canonical order key on the task index the
    events carry.

    {2 Work stealing}

    Tasks are block-partitioned across per-worker deques.  A worker
    pops its own deque from the front (preserving index locality) and,
    when empty, steals from the back of the first non-empty victim.
    Deques are mutex-protected — contention is one lock operation per
    task, negligible against tasks that each run a full engine. *)

type event =
  | Start of { worker : int; task : int }  (** worker began the task *)
  | Steal of { worker : int; victim : int; task : int }
      (** the task about to start was taken from [victim]'s deque *)
  | Finish of { worker : int; task : int; seconds : float }
      (** task completed after [seconds] of wall-clock work *)

type stats = {
  jobs : int;  (** worker domains actually used *)
  tasks : int;
  steals : int;
  busy : float;  (** summed wall-clock seconds spent inside tasks *)
  elapsed : float;  (** wall-clock seconds for the whole map *)
}

val speedup : stats -> float
(** [busy /. elapsed] — the effective parallelism achieved (1.0 when
    sequential, up to [jobs] under perfect scaling); 1.0 when [elapsed]
    is too small to measure. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val map :
  ?jobs:int ->
  ?on_event:(event -> unit) ->
  ('a -> 'b) ->
  'a array ->
  'b array * stats
(** [map f tasks] computes [Array.map f tasks] on a pool of [jobs]
    worker domains (default {!default_jobs}; never more than the task
    count).  [on_event] runs on the calling domain only, in
    completion-arrival order.

    [jobs <= 1] short-circuits to a plain sequential loop on the
    calling domain — no domain is spawned, events still fire (worker 0,
    no steals).

    If any task raises, the remaining tasks still run to completion,
    then the exception of the {e lowest-indexed} failing task is
    re-raised (deterministic, unlike first-in-time). *)
