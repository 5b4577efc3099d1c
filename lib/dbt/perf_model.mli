(** Cycle-cost parameters for the simulated translator (paper §4.4).

    IA32EL has no interpreter: cold code is translated quickly with
    instrumentation, so the profiling phase pays per-instruction
    execution cost plus a counter-update cost, while optimised regions
    execute at the scheduler-determined cost with a penalty for
    unanticipated side exits.  One-off costs are charged for the quick
    translation of each block and for retranslating region members. *)

type params = {
  cold_translate_per_instr : float;
      (** one-off, first time a block is reached *)
  profiled_exec_per_instr : float;
      (** per instruction while a block still carries instrumentation *)
  profiling_op_cost : float;  (** per use/taken counter update *)
  translated_exec_per_instr : float;
      (** per instruction for an optimised block executed outside its
          region (side entry) — instrumentation removed *)
  optimize_per_instr : float;
      (** one-off retranslation cost per region-member instruction *)
  optimized_dispatch : float;  (** entering a region from the dispatcher *)
  side_exit_penalty : float;
      (** leaving a region through an unanticipated exit *)
  evict_per_instr : float;
      (** per translated instruction discarded when the bounded code
          cache ({!Code_cache}) evicts an entry — unlinking, patching
          the dispatch tables *)
  shadow_replay_per_instr : float;
      (** per guest instruction replayed on the cold path by the
          shadow-execution oracle at a sampled region entry *)
}

val default : params
(** cold 30, profiled 6, op 2, translated 3, optimise 300, dispatch 2,
    side exit 6 — calibrated so the Fig 17 threshold sweep reproduces
    the paper's shape (optimum at mid thresholds).  Cache churn: evict
    1, shadow replay 6 (the cold path re-executes at profiled speed). *)

type counters = {
  mutable cycles : float;
  mutable blocks_translated : int;
  mutable regions_formed : int;
  mutable region_entries : int;
  mutable region_completions : int;
  mutable loop_backs : int;
  mutable side_exits : int;
  mutable optimization_rounds : int;
  mutable regions_dissolved : int;
      (** adaptive mode: regions dissolved for excessive side exits *)
  mutable faults_injected : int;
      (** injected faults that found a victim (fault campaigns) *)
  mutable retrans_retries : int;
      (** recovery: retranslation retries after injected failures *)
  mutable fault_dissolves : int;
      (** recovery: regions dissolved because of corruption or an
          aborted formation *)
  mutable blocks_retranslated : int;
      (** recovery: corrupted blocks whose translation was discarded *)
  mutable cache_evictions : int;
      (** bounded code cache: entries (blocks or regions) evicted *)
  mutable cache_flushes : int;
      (** whole-cache flushes ([Flush_all] policy or [Cache_thrash]) *)
  mutable cache_evicted_instrs : int;
      (** translated guest instructions discarded by eviction *)
  mutable cache_peak_instrs : int;
      (** high-water cache occupancy — the run's translated footprint;
          tracked even with an unbounded cache, so a sweep can size a
          bounded cache relative to it *)
  mutable shadow_replays : int;
      (** shadow oracle: sampled region entries replayed and compared *)
  mutable shadow_divergences : int;
      (** shadow oracle: replays whose architectural state diverged *)
  mutable corrupted_entries : int;
      (** entries into a silently-corrupted region — executions that
          would have produced wrong results on a real translator *)
  mutable regions_quarantined : int;
      (** regions quarantined after a shadow divergence (members keep
          their AVEP counters and are never re-optimised) *)
  mutable watchdog_degraded : int;
      (** 1 if the bounded-quarantine watchdog degraded the run to
          profiling-only, else 0 *)
}

val fresh_counters : unit -> counters

val record : counters -> Tpdbt_telemetry.Metrics.t -> unit
(** Accumulate a run's counters into a metrics registry under [perf.*]
    names ([perf.cycles] as a gauge, the rest as counters).  Recording
    several runs into the same registry sums them, so a sweep can
    aggregate its whole fleet of runs into one registry. *)

val write_counters : Tpdbt_durable.Durable.Writer.t -> counters -> unit
(** The one-line text form that checkpoints and engine snapshots
    persist: [counters], then [cycles] in lossless [%h] and the other
    fields as ints, in declaration order. *)

val read_counters : Tpdbt_durable.Durable.Reader.t -> counters
(** Inverse of {!write_counters}. *)
