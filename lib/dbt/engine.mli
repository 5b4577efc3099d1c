(** The two-phase dynamic binary translator.

    Phase 1 (profiling): every block executes under instrumentation
    that maintains its [use] and [taken] counters.  When a block's [use]
    reaches the retranslation threshold it is registered in the
    candidate pool; once the pool holds [pool_trigger] blocks — or a
    registered block reaches the threshold a second time — the
    optimisation phase runs.

    Phase 2 (optimisation): regions are formed over the candidates from
    their current branch probabilities ({!Region_former}), each member
    block's counters are frozen (they are the INIP(T) data), members are
    retranslated through the optimiser, and subsequent executions that
    enter a region at its entry run as optimised code under the
    performance model.

    A run with [threshold = 0] never optimises: the final counters are
    the AVEP (reference input) or INIP(train) (training input) profile.

    The engine is a {e guest driver} (the machine and the block map,
    one block at a time) feeding a {e translator model}
    (everything above, plus the code cache, the monitors and the cycle
    charges).  A translator never changes what the guest does, so one
    driver can feed many models at once: a {!Group} runs N
    configurations over one interpretation of the guest, each model
    ending exactly as its own engine would. *)

type config = {
  threshold : int;  (** retranslation threshold T; [<= 0] = never optimise *)
  pool_trigger : int;  (** pool size that triggers the optimisation phase *)
  min_branch_prob : float;
  max_region_slots : int;
  enable_duplication : bool;
  enable_diamonds : bool;
  trace_scheduling : bool;
      (** Schedule regions as traces: result latencies overlap across
          region-internal edges ({!Optimizer.region_slot_cycles_pipelined}).
          Off by default — the ablation studies quantify it. *)
  regions_across_calls : bool;
      (** Let region formation follow call edges into hot callees
          (partial inlining); a [ret] ends the region.  Off by default —
          quantified by the "inlining" ablation. *)
  adaptive : bool;
      (** Paper §5 future work: monitor each region's side-exit rate and
          dissolve regions that keep exiting unexpectedly; their blocks
          return to the profiling phase (counters reset — a fresh,
          phase-aware profile) and can be re-optimised later. *)
  reopt_side_exit_rate : float;
      (** dissolve when side_exits / entries exceeds this (default 0.3) *)
  reopt_min_entries : int;
      (** observe at least this many entries before judging (default 64) *)
  reopt_limit : int;
      (** a block may be dissolved at most this many times (default 3);
          regions containing a block at the limit stop being monitored,
          which prevents dissolve/reform thrashing on inherently
          unstable branches *)
  perf : Perf_model.params;
  max_steps : int;  (** guest-instruction budget for the run *)
  deadline : int option;
      (** Supervision deadline in guest instructions, polled
          cooperatively by the step loop at block granularity.  [None]
          (the default) imposes none.  Unlike [max_steps] — which cuts a
          run short but keeps its sound partial results
          ({!Error.Limit_exceeded}, non-fatal) — blowing the deadline is
          the supervisor declaring the task stuck, and surfaces as the
          {e fatal} {!Error.Deadline_exceeded} so the supervision layer
          retries or quarantines the task instead of trusting it. *)
  snapshot_every : int;
      (** Cooperative snapshot trigger, polled by the step loop at block
          granularity like [deadline]: a positive value stops the run
          with the {e non-fatal} {!Error.Suspended} once that many
          further guest instructions have executed, so the caller can
          {!capture} the engine and later {!run} it (or a {!restore}d
          copy) again.  [0] (the default) disables the trigger at zero
          cost — the poll compares against [max_int]. *)
  suspend_on_deadline : bool;
      (** Turn a blown [deadline] into the resumable {!Error.Suspended}
          (with [deadline = true]) instead of the fatal
          {!Error.Deadline_exceeded}: the supervision layer snapshots
          and re-queues the task rather than re-running it from
          scratch.  Off by default. *)
  sink : Tpdbt_telemetry.Sink.t;
      (** Telemetry sink receiving structured {!Tpdbt_telemetry.Event}s
          stamped with the guest-instruction counter.  Defaults to
          {!Tpdbt_telemetry.Sink.null}, which the engine detects and
          short-circuits — a run with the null sink performs no
          telemetry work at all.  The engine never closes the sink;
          the caller owns it. *)
  faults : Tpdbt_faults.Plan.t option;
      (** Deterministic fault plan ({!Tpdbt_faults.Plan}).  Each arm
          fires at the first matching injection site whose
          guest-instruction step is at or past the arm's step; arms
          that never find a site are reported unfired. *)
  retry_limit : int;
      (** Recovery budget: how many injected retranslation failures /
          formation aborts a single entry block may absorb before the
          run stops with a typed {!Error.t} (default 3). *)
  cache_capacity : int option;
      (** Code-cache budget in translated guest instructions; [None]
          (the default) is unbounded and leaves every cycle count
          byte-identical to an engine without the cache manager.  When
          set, each cold-translated block and each committed region is
          charged its instruction count, and going over budget evicts
          victims per [cache_policy] — a victim block pays cold
          translation again on its next execution, a victim region's
          members fall back to profiled execution with their counters
          preserved and re-enter the candidate pool, so re-forming it
          pays the retranslation cost again ({!Code_cache}). *)
  cache_policy : Code_cache.policy;
      (** Eviction policy under pressure (default {!Code_cache.Lru}). *)
  cache_backoff : int;
      (** Bounded cache only: minimum guest-step gap between
          optimisation rounds (default 1000).  Eviction re-pools whole
          regions at once, which would otherwise re-trigger the
          optimiser after nearly every block execution — the backoff
          keeps the thrash in the cycle model instead of wall-clock
          time.  Ignored (no gap) when the cache is unbounded, so the
          default configuration is unaffected. *)
  shadow_sample : int;
      (** Shadow-execution oracle sampling period: every [N]th entry to
          each region (deterministically, the 1st, [N+1]th, ... by the
          region's own entry count) is replayed block-by-block on the
          cold path and the architectural register state compared.  A
          divergence — only a silently corrupted cache entry produces
          one — quarantines the region: dissolved with its members'
          use/taken counters {e preserved} and barred from
          re-optimisation.  [0] (the default) disables the oracle. *)
  max_quarantines : int;
      (** Bounded-quarantine watchdog: after more than this many
          quarantines (default 4) the engine stops trusting its own
          optimiser — every region is dropped and the run degrades to
          profiling-only (counters kept, no further optimisation). *)
}

val config :
  ?pool_trigger:int ->
  ?adaptive:bool ->
  ?sink:Tpdbt_telemetry.Sink.t ->
  ?faults:Tpdbt_faults.Plan.t ->
  ?retry_limit:int ->
  ?cache_capacity:int ->
  ?cache_policy:Code_cache.policy ->
  ?cache_backoff:int ->
  ?shadow_sample:int ->
  ?max_quarantines:int ->
  ?deadline:int ->
  ?snapshot_every:int ->
  ?suspend_on_deadline:bool ->
  threshold:int ->
  unit ->
  config
(** Defaults: pool trigger 16, min branch prob 0.7, 16 slots,
    duplication and diamonds on, adaptive off (side-exit rate 0.3, min
    entries 64), {!Perf_model.default}, 200M steps, no deadline, no
    snapshot trigger, deadline fatal, null sink, no faults, retry
    limit 3, unbounded cache (LRU when bounded), shadow oracle off,
    watchdog at 4 quarantines. *)

val profiling_only : config
(** [threshold = 0]: collect AVEP / INIP(train) profiles. *)

type region_stats = {
  entries : int;  (** times the dispatcher entered the region *)
  side_exits : int;  (** unanticipated exits *)
  loop_back_taken : int;  (** continuous loop profiling: back edges taken *)
  loop_back_seen : int;  (** ... out of this many latch executions *)
}

type result = {
  snapshot : Snapshot.t;
  counters : Perf_model.counters;
  steps : int;  (** guest instructions executed *)
  profiling_ops : int;
  outputs : int list;
  region_stats : (int * region_stats) list;
      (** per surviving region, by region id.  [loop_back_taken /
          loop_back_seen] is the {e continuously} measured loop-back
          probability (the lightweight instrumentation of paper §5 /
          [21]), available even though the region's profile counters are
          frozen. *)
  error : Error.t option;
      (** [None] for a clean halt.  Guest traps, exhausted recovery
          budgets, a blown step budget ({!Error.Limit_exceeded}) and
          dispatcher confusion after corruption all land here as typed
          errors instead of exceptions. *)
  faults : Tpdbt_faults.Fault.report option;
      (** Present iff the run was configured with a fault plan: which
          arms fired (and on what victim) and which never found a
          site. *)
}

val trap : result -> Tpdbt_vm.Machine.trap option
(** Convenience: the guest trap, when [error] is [Some (Trap _)]. *)

type t

val create :
  ?config:config -> ?mem_words:int -> seed:int64 -> Tpdbt_isa.Program.t -> t
(** [config] defaults to [config ~threshold:1000 ()]. *)

val run : t -> result
(** Run to halt, trap, step budget or suspension, then snapshot.

    With [snapshot_every] set, the run suspends at the first dispatch
    point at least that many guest instructions after it started
    ({!suspended}), and running again continues from there.  Each
    suspended result carries the step count and the cumulative profile
    at that point: a series of them, one per period, is the raw
    material for phase analysis ([Tpdbt_profiles.Phases]). *)

val block_map : t -> Block_map.t

val machine : t -> Tpdbt_vm.Machine.t
(** The guest machine the engine drives.  After {!run} this is the
    end-of-run architectural state — registers, memory, outputs — which
    is what the differential-fuzzing fingerprint and the superoptimizer
    miner compare against a pure-interpreter reference. *)

val suspended : result -> bool
(** [true] iff [result.error] is {!Error.Suspended} — the run stopped
    cooperatively and the engine can be {!capture}d and resumed. *)

(** {2 Mid-run images}

    A suspended engine ({!Error.Suspended}, via [snapshot_every] or
    [suspend_on_deadline]) can be re-{!run} in place, or {!capture}d
    into a plain-data {!image} and later {!restore}d — in this process
    or another — such that resuming and running to completion yields
    results byte-identical (cycle totals, outputs, counters, fault
    shots, eviction statistics) to the uninterrupted run.

    The image holds every piece of {e evolving} state: the machine
    image, profile counters, per-block translation states, regions in
    formation order with their monitor counters, the candidate pool in
    its exact order, the fault injector's cursor, the code cache's
    resident set with stamps, and the performance counters.  State that
    is a {e pure function} of the program and the config — the block
    map, region slot cycles, the dispatcher's entry map — is not
    stored; {!restore} recomputes it, so it cannot drift from the
    captured data.  [restore] must therefore be given the same program
    and an equivalent config, which the serialized form
    ({!Exec_snapshot}) enforces with a config digest. *)

type image = {
  ex_machine : Tpdbt_vm.Machine.image;
  ex_use : int array;
  ex_taken : int array;
  ex_state : int array;  (** 0 = cold, 1 = registered, 2 = optimised *)
  ex_touched : bool array;
  ex_dissolve : int array;
  ex_regions : Region.t list;  (** formation order, oldest first *)
  ex_monitors : (int * (int * int * int * int * bool)) list;
      (** region id -> (entries, side exits, loop-backs taken,
          loop-backs seen, disabled), ascending id *)
  ex_next_region_id : int;
  ex_pool : int list;  (** exact pool order *)
  ex_pool_trigger_now : int;
  ex_fault_fails : int array;
  ex_quarantined : bool array;
  ex_quarantine_count : int;
  ex_degraded : bool;
  ex_last_round_step : int;
  ex_cache : (int * int * int * int * int64 option) list;
      (** (kind rank, id, size, stamp, corruption salt) in the cache's
          deterministic victim order; kind rank 0 = block, 1 = region *)
  ex_cache_stats : int * int * int * int;
      (** evictions, flushes, evicted instrs, peak *)
  ex_counters : Perf_model.counters;
  ex_pending : Tpdbt_faults.Fault.arm list;
  ex_fired : Tpdbt_faults.Fault.shot list;
}

val capture : t -> image
(** Deep-copy the engine's evolving state.  Meaningful only between
    {!run} calls (the counters are mirrored at the end of each run) —
    in practice, after a run stopped with {!Error.Suspended}. *)

val restore : ?config:config -> Tpdbt_isa.Program.t -> image -> t
(** Rebuild an engine from a {!capture}d image.  [program] and [config]
    must match the ones the captured engine ran under — the resumed
    run's determinism guarantee holds only then.
    @raise Invalid_argument if the image is inconsistent with the
    program (array lengths vs block count, out-of-range block ids,
    malformed cache entries or block states) or with itself (a region
    id at or above the id counter, or used twice). *)

(** {2 Groups: one driver, many models}

    A group runs several configurations over {e one} interpretation of
    the guest.  Each member stops where its own engine would — at its
    own dispatch point, under its own [max_steps] and fatal [deadline],
    with its own step count and outputs — and its {!result} is
    identical to that engine's.  The driver runs until the last member
    stops.

    The members' suspension triggers act on the group as a whole:
    [snapshot_every] suspends it every that many guest instructions and
    a [deadline] with [suspend_on_deadline] suspends it at the
    deadline, in both cases at the first block boundary at or past the
    step.  A suspended group is {!Group.capture}d with each member's
    position in the block stream — at a dispatch point, inside a region
    at a given slot, or stopped — and resumes byte-identically. *)

type position =
  | At_dispatch  (** outside every region, before the next block *)
  | In_region of { region : int; slot : int }
      (** executing region [region]; the next block is slot [slot]'s *)
  | Stopped of { steps : int; outputs : int; error : Error.t option }
      (** finished at guest step [steps] with [outputs] values emitted *)

type group_image = {
  gi_machine : Tpdbt_vm.Machine.image;  (** the driver's machine *)
  gi_members : (position * image) list;
      (** in member order; every [ex_machine] is [gi_machine] *)
}

module Group : sig
  type t

  val create :
    ?mem_words:int -> seed:int64 -> Tpdbt_isa.Program.t -> config list -> t
  (** One driver over [program] feeding one model per config, in order.
      @raise Invalid_argument on an empty list, a config with a fault
      plan or [shadow_sample > 0] (both need the machine itself), or
      members that disagree on their suspension triggers. *)

  val run : t -> Error.t option
  (** Drive until every member has stopped ([None]: read {!results}),
      or until the group suspends ([Some (Error.Suspended _)], with
      [deadline = true] for a deadline suspension): {!capture} it, or
      [run] it again to continue. *)

  val results : t -> result list
  (** One result per member, in order; meaningful once {!run} returned
      [None]. *)

  val capture : t -> group_image

  val restore :
    Tpdbt_isa.Program.t -> config list -> group_image -> t
  (** [configs] must be the captured group's, in order.
      @raise Invalid_argument as {!val-restore} does for each member, or
      when a position names no slot of an installed region entered at
      its entry block, or a stop lies past the machine. *)
end
