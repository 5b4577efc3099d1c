(** Retranslation-time optimisation passes and the block scheduler.

    Pipeline per block: lower to IR, local constant propagation and
    folding, dead-definition elimination, then list scheduling onto a
    2-issue machine with result latencies (see {!Ir.latency}).  The
    scheduled length is the cycle cost the performance model charges for
    one optimised execution of the block. *)

type block_result = {
  ops_before : int;  (** IR ops after lowering *)
  ops_after : int;  (** IR ops surviving the scalar passes *)
  cycles : int;  (** scheduled length (2-issue, with latencies) *)
}

val const_fold : Ir.op list -> Ir.op list
(** Forward pass: propagate register constants within the block and fold
    arithmetic on constants (division by a zero constant is left
    untouched so the runtime still traps). *)

val dead_def_elim : Ir.op list -> Ir.op list
(** Remove a definition that is overwritten later in the same block
    without an intervening use.  Side-effecting ops are never removed;
    registers are conservatively assumed live out of the block. *)

val schedule_cycles : Ir.op list -> int
(** List-schedule the ops (respecting register, memory and side-effect
    dependences) on a 2-issue machine; returns the number of cycles. *)

val optimize_block : Tpdbt_isa.Instr.t array -> block_result

val region_slot_cycles : Block_map.t -> code:Tpdbt_isa.Instr.t array -> Region.t -> float array
(** Per-slot optimised cycle cost for a region (each slot's block run
    through {!optimize_block}). *)

val region_slot_cycles_pipelined :
  Block_map.t ->
  code:Tpdbt_isa.Instr.t array ->
  Region.t ->
  Region.layout ->
  float array
(** Trace scheduling (region-based compilation, Hank/Hwu/Rau):
    instructions still issue within their own block (no speculation
    across branches), but result latencies overlap across region edges —
    a block's tail-latency "drain" cycles are hidden by its successor's
    independent instructions.  Each slot's cost is its share of the
    pipelined schedule of the region's hot path through that slot; costs
    are never higher than {!region_slot_cycles}'s.  A slot with a
    region-internal successor ([has_succ] in the region's
    {!Region.layout}) pays only its issue span. *)
