(** Retranslation-time optimisation passes and the block scheduler.

    Pipeline per block: lower to IR, local constant propagation and
    folding, dead-definition elimination, then list scheduling onto a
    2-issue machine with result latencies (see {!Ir.latency}).  The
    scheduled length is the cycle cost the performance model charges for
    one optimised execution of the block. *)

type block_result = {
  ops_before : int;  (** IR ops after lowering *)
  ops_after : int;  (** IR ops surviving the scalar passes *)
  cycles : int;
      (** scheduled length (2-issue, with latencies): the cycle after
          the last result is ready *)
  issue_span : int;
      (** the cycle after the last issue; at most [cycles], which adds
          the latency drain of the last results *)
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
(** The whole pipeline over one block's instructions.  It depends on
    the instructions alone, so a translator computes it once per block
    and program and reads each region slot's cost from it
    ({!slot_cycles}). *)

val slot_cycles : block_result -> pipelined:bool -> has_succ:bool -> int
(** The cycles one optimised execution of a block costs in a region
    slot.  Scheduled block by block, a slot pays [cycles].  Under trace
    scheduling (region-based compilation, Hank/Hwu/Rau), instructions
    still issue within their own block (no speculation across
    branches), but result latencies overlap across region edges: a slot
    with a region-internal successor ([has_succ] in the region's
    {!Region.layout}) pays only its [issue_span], its drain hidden by
    the successor's independent instructions, and every other slot pays
    [cycles].  So a trace-scheduled slot never costs more. *)
