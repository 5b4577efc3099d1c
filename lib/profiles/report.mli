(** Human-readable summaries of profiles and comparisons.

    Formats the contents of a {!Tpdbt_dbt.Snapshot.t} the way the
    paper's prose discusses them: hottest blocks with their branch
    probabilities, regions with completion / loop-back probabilities
    from their frozen profiles, and — when an average profile is
    supplied — the side-by-side INIP-vs-AVEP view per region.

    It derives no probability of a region itself: it renders the CP and
    LP rows of {!Metrics}, the rows the metrics fold. *)

val hottest_blocks :
  ?limit:int -> Tpdbt_dbt.Snapshot.t -> (int * int * float option) list
(** [(block id, use, branch probability)] for the [limit] (default 10)
    most-executed blocks, hottest first. *)

val region_summary : Metrics.row -> string
(** One line for a region's CP or LP row: kind, members, the frozen CP
    or LP (an LP with its trip count and trip-count class), and — when
    the row has an AVEP side — the AVEP's CP or LP beside it.
    @raise Invalid_argument on a BP row. *)

val render : ?avep:Tpdbt_dbt.Snapshot.t -> Tpdbt_dbt.Snapshot.t -> string
(** Full report: totals, hottest blocks, and every region — the rows of
    {!Metrics.rows} against [avep], or {!Metrics.region_rows} without
    it. *)
