(** The paper's accuracy metrics (§2): weighted standard deviations of
    branch / completion / loop-back probabilities between an initial
    profile INIP(T) and the average profile AVEP, plus the range-based
    mismatch rates of §4.

    A comparison is derived once, as per-sample {!row}s, and every
    metric is a fold over them.  All weights come from AVEP (via NAVEP
    for duplicated blocks), so a comparison says "how far is the
    prediction from average behaviour, counting each prediction as
    often as it actually matters". *)

type comparison = {
  sd_bp : float;  (** Sd.BP(T) — branch probabilities *)
  sd_cp : float;  (** Sd.CP(T) — completion probabilities, non-loop regions *)
  sd_lp : float;  (** Sd.LP(T) — loop-back probabilities, loop regions *)
  bp_mismatch : float;  (** range mismatch rate of branch probabilities *)
  lp_mismatch : float;  (** trip-count-range mismatch rate of loops *)
  bp_samples : int;
  cp_samples : int;
  lp_samples : int;
  navep_fallback : bool;  (** NAVEP used its equal-split fallback *)
}

type kind = Bp | Cp | Lp

(** One sample: a BP row per NAVEP copy of a conditional block, a CP
    row per trace and an LP row per loop region of INIP. *)
type row = {
  kind : kind;
  region : Tpdbt_dbt.Region.t option;
      (** a BP copy's region or a CP/LP row's; [None] outside regions *)
  slot : int;  (** the copy's slot; 0 for CP/LP; -1 outside regions *)
  block : int;  (** the copy's block; the entry block for CP/LP *)
  inip : float option;
      (** the prediction: a copy's frozen branch probability (INIP's,
          outside regions), or the CP/LP of the region's frozen profile *)
  avep : float option;
      (** the same from AVEP; [None] where AVEP has no probability for
          the block, and on every {!region_rows} row *)
  weight : float;
      (** a copy's NAVEP frequency, or a CP/LP row's entry-block AVEP
          frequency; 0 on {!region_rows} *)
}

val range : kind -> float -> int
(** The row's range of a probability.  BP: the paper's [0,.3) -> 0,
    [.3,.7] -> 1, (.7,1] -> 2.  LP, the trip-count classes of Fig 15:
    [0,.9) -> 0 (under 10 iterations), [.9,.98] -> 1 (10 to 50),
    (.98,1] -> 2 (over 50).  CP rows use the BP ranges; no metric reads
    them. *)

val trip_count_of_loopback : float -> float
(** LP = (T-1)/T, so T = 1/(1-LP); capped at 1e9 for LP ~ 1. *)

val rows :
  inip:Tpdbt_dbt.Snapshot.t -> avep:Tpdbt_dbt.Snapshot.t -> row list
(** The INIP(T)-vs-AVEP comparison's rows: BP rows in NAVEP node order,
    then a CP or LP row for every INIP region in formation order,
    singleton traces and regions AVEP never entered included. *)

val region_rows : Tpdbt_dbt.Snapshot.t -> row list
(** The CP and LP rows of a snapshot's regions without an AVEP. *)

val compare_snapshots :
  inip:Tpdbt_dbt.Snapshot.t -> avep:Tpdbt_dbt.Snapshot.t -> comparison
(** Folds {!rows} one at a time as they are built, keeping none: each
    kind is summed in row order ({!Tpdbt_numerics.Stats.add}).  A fold
    skips a row missing a probability, a row of weight zero or less,
    and a one-slot trace's CP row (no side exit to miss); a samples
    count is the rows folded. *)

val compare_flat :
  predicted:Tpdbt_dbt.Snapshot.t -> avep:Tpdbt_dbt.Snapshot.t -> comparison
(** Block-by-block branch-probability comparison without any region
    normalisation, for Sd.BP(train): a BP row per block AVEP executed,
    in block order, weighted by the block's AVEP frequency and folded
    as {!compare_snapshots} folds.  No CP or LP rows, so those metrics
    are 0 and [navep_fallback] is false. *)

val pp_comparison : Format.formatter -> comparison -> unit
