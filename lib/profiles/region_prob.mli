(** Completion and loop-back probabilities of regions (paper §3.2–3.3).

    Both are computed by assigning the region entry a frequency of 1 and
    propagating it along internal edges weighted by branch
    probabilities.  The completion probability of a non-loop region is
    the propagated frequency of its tail block; the loop-back
    probability of a loop region is the propagated frequency of a dummy
    node that the back edges are redirected to.

    Both read only the region's {!Tpdbt_dbt.Region.layout}: its forward
    predecessors with their edge roles, the sources of its back edges,
    its tail and a topological order.  A caller that needs several
    probabilities of one region derives its layout once. *)

val edge_probability : Tpdbt_dbt.Region.role -> branch_prob:float option -> float
(** Probability of following an edge with the given role out of a block
    whose (taken) branch probability is [branch_prob]:
    [Taken] -> p, [Not_taken] -> 1-p, [Always] -> 1.  A missing branch
    probability defaults to 0.5. *)

val completion_probability :
  Tpdbt_dbt.Region.layout -> prob:(int -> float option) -> float
(** [prob slot] is the (taken) branch probability of the block at
    [slot].  For a loop region this is the probability of reaching the
    tail, which callers normally don't need. *)

val loopback_probability :
  Tpdbt_dbt.Region.layout -> prob:(int -> float option) -> float
(** 0 for a region without back edges. *)

val trip_count_of_loopback : float -> float
(** LP = (T-1)/T, so T = 1/(1-LP); capped at 1e9 for LP ~ 1. *)

type trip_class = Low | Medium | High
(** <10, 10..50, >50 iterations — the paper's Fig 15 classification. *)

val classify_loopback : float -> trip_class
val classify_trip_count : float -> trip_class
