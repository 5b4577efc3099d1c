(** An array map over worker domains, for tasks trusted to return: the
    cache-size sweep, fault campaigns, differential fuzzing and the
    ledger's traced [sweep-par].

    [map] is a thin adapter over {!Supervisor.run} under
    {!Supervisor.one_attempt}: the same worker domains, queue and
    collector run every sweep.  Each task's exception is caught inside
    the task and handed back as a value, so the supervisor never
    retries, quarantines or loses a worker on a pool task.

    {2 Determinism}

    Which domain runs which task, and when, depends on timing; the
    result does not.  Each task is an isolated computation of its input
    only (the experiment harness fixes all seeds per spec), and results
    are merged by task index, so the output is the array [Array.map]
    would have produced, at every [jobs].  Only the arrival order of
    [on_event] callbacks varies across runs; callers that need a
    canonical order key on the task index the events carry. *)

type event =
  | Start of { task : int }  (** the task began *)
  | Steal of { task : int }
      (** Never emitted.  Kept because the performance ledger
          ([ledger/]) matches on it, and the ledger's sources stay the
          same across the changes it compares. *)
  | Finish of { task : int; seconds : float }
      (** the task returned or raised after [seconds] of wall-clock
          work *)

type stats = {
  jobs : int;  (** worker domains used (1 if sequential) *)
  tasks : int;
  busy : float;  (** summed wall-clock seconds spent inside tasks *)
  elapsed : float;  (** wall-clock seconds for the whole map *)
}

val speedup : stats -> float
(** [busy /. elapsed] — the effective parallelism achieved (about 1.0
    when sequential, up to [jobs] under perfect scaling); 1.0 when
    [elapsed] is too small to measure. *)

val default_jobs : unit -> int
(** {!Supervisor.default_jobs}.  Kept, like {!speedup}, because the
    performance ledger ([ledger/]) calls it. *)

val map :
  ?jobs:int ->
  ?on_event:(event -> unit) ->
  ('a -> 'b) ->
  'a array ->
  'b array * stats
(** [map f tasks] computes [Array.map f tasks] on [jobs] worker domains
    (default {!default_jobs}; never more than the task count).
    [on_event] runs on the calling domain only, once with [Start] and
    once with [Finish] per task, a raising task included.  [jobs <= 1]
    runs every task inline on the calling domain; no domain is spawned.

    If any task raises, the remaining tasks still run to completion,
    then the exception of the {e lowest-indexed} failing task is
    re-raised (deterministic, unlike first-in-time). *)
