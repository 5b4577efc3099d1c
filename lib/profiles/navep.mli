(** NAVEP: the average profile normalised onto INIP(T)'s duplicated CFG
    (paper §3.1).

    Region formation may copy one block into several regions.  AVEP only
    has one frequency per block, so to weight the per-copy comparisons
    we rebuild INIP's view of the CFG — one node per (region, slot) copy
    plus one node per block outside every region — give every copy its
    original block's AVEP branch probability, and recover per-copy
    frequencies with Markov modelling of control flow: non-duplicated
    nodes keep their AVEP frequency as constants, duplicated copies are
    solved from the flow equations ({!Tpdbt_numerics.Markov.solve}).

    Approximations (documented in DESIGN.md): a CFG edge into a block
    that only exists as non-entry region copies is split equally between
    those copies, and if the linear system is singular the block's AVEP
    frequency is split equally between its copies ([used_fallback]).

    The graph is built on node-indexed arrays (one node per copy, a
    region's copies consecutive) and solved with
    {!Tpdbt_numerics.Linear_solver.sparse_gauss}.  A copy's flow follows
    its region's own edge of the branch's role where the region has
    one: the slot's successor in {!Tpdbt_dbt.Region.layout}. *)

type location = In_region of { region : int; slot : int } | Standalone

type copy = { node : int; block : int; location : location }

type t

val build : inip:Tpdbt_dbt.Snapshot.t -> avep:Tpdbt_dbt.Snapshot.t -> t
(** [inip] supplies the region structure, [avep] the probabilities and
    frequencies.
    @raise Invalid_argument if a region of [inip] is not valid
    ({!Tpdbt_dbt.Region.validate}); engines and profile readers only
    produce valid ones. *)

val copies : t -> copy list
(** Every NAVEP node, in node order. *)

val copies_of_block : t -> int -> copy list

val freq : t -> int -> float
(** NAVEP frequency of a node. *)

val region_of_node : t -> int -> Tpdbt_dbt.Region.t option
(** The INIP region a node's copy sits in; [None] for a standalone
    copy or an unknown node. *)

val region_layouts : t -> (Tpdbt_dbt.Region.t * Tpdbt_dbt.Region.layout) list
(** INIP's regions in formation order, each with the layout [build]
    derived for it, so that a caller analysing the same regions derives
    none again. *)

val node_of_slot : t -> region:int -> slot:int -> int option
val node_of_standalone : t -> int -> int option
val used_fallback : t -> bool
(** True if the equal-split fallback replaced the linear solve. *)

val system : t -> Tpdbt_numerics.Markov.system
(** The linear system the solve was handed (rows and right-hand side),
    so tests and the fuzz oracle can solve it again both ways. *)

val total_block_freq : t -> int -> float
(** Sum of the frequencies of a block's copies — should equal the
    block's AVEP frequency (a tested invariant). *)
