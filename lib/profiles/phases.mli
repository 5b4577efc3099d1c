(** Phase detection over checkpointed profiles.

    The paper (§1, §5) attributes most initial-prediction failures to
    programs with {e phases}: intervals whose branch behaviour differs
    from the whole-run average.  This module detects such phases
    offline from a series of cumulative profile checkpoints ({!series}
    of an engine that suspends every so many instructions):

    - consecutive checkpoints are differenced into {e window} profiles
      (per-block use/taken deltas);
    - the distance between adjacent windows is the weighted mean
      absolute difference of their branch probabilities (weights:
      window execution counts);
    - a window boundary whose distance exceeds a threshold is a
      {e change point}. *)

val series :
  Tpdbt_dbt.Engine.t ->
  Tpdbt_dbt.Engine.result * (int * Tpdbt_dbt.Snapshot.t) list
(** Run an engine whose config sets [snapshot_every] to its end,
    resuming it at each periodic suspension, and return the final
    result with the [(steps, cumulative snapshot)] of every suspension,
    chronologically.  The period is measured from each resume point, so
    the checkpoints fall at the first dispatch point at least
    [snapshot_every] instructions after the previous one; none falls on
    the block that ends the run.  A deadline suspension ends the
    series. *)

type window = {
  start_steps : int;
  end_steps : int;
  use : int array;  (** per-block executions within the window *)
  taken : int array;
}

val windows : (int * Tpdbt_dbt.Snapshot.t) list -> window list
(** Difference a chronological [(steps, cumulative snapshot)] series
    (an initial implicit all-zero checkpoint at step 0 is assumed).
    @raise Invalid_argument if the series is not strictly increasing in
    steps or the snapshots disagree on block count. *)

val window_branch_prob : window -> int -> float option
(** Branch probability of a block within one window ([None] if the
    block did not execute there). *)

val distance : Tpdbt_dbt.Block_map.t -> window -> window -> float
(** Weighted mean absolute branch-probability difference between two
    windows, over conditional blocks executed in both; weight is the
    combined window execution count.  0 when nothing is comparable. *)

val max_shift :
  ?min_executions:int -> Tpdbt_dbt.Block_map.t -> window -> window -> float
(** Largest per-block branch-probability change between two windows,
    over conditional blocks executed at least [min_executions] (default
    16) times in each — robust against dilution by stable
    high-frequency blocks. *)

type change_point = { steps : int; distance : float; shift : float }

val change_points :
  ?threshold:float ->
  ?shift_threshold:float ->
  Tpdbt_dbt.Block_map.t ->
  (int * Tpdbt_dbt.Snapshot.t) list ->
  change_point list
(** Boundaries between adjacent windows whose weighted {!distance}
    exceeds [threshold] (default 0.1) {e or} whose {!max_shift} exceeds
    [shift_threshold] (default 0.3); chronological.  The latter
    criterion catches a phase change in a moderately-hot branch that
    the frequency-weighted mean would drown out. *)
