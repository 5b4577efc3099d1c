(** One table generator per figure of the paper's evaluation (§4).

    Every function takes the sweep results of {!Runner.run_sweep} over
    the full suite (subsets work too: averages are over the benchmarks
    present) and returns the table whose rows/series correspond to the
    figure.  [tpdbt sweep] prints {!all} and writes it with [--csv];
    [tpdbt cache] does the same for {!cache_sweep}.  Their full-length
    outputs are the committed [results/*.csv], which [make
    figures-check] and [make cache-check] compare byte for byte. *)

val fig8 : Runner.data list -> Table.t
(** Average Sd.BP(T) for INT and FP, with Sd.BP(train) reference. *)

val fig9 : Runner.data list -> Table.t
(** Sd.BP(T) per INT benchmark. *)

val fig10 : Runner.data list -> Table.t
(** Average branch-probability mismatch rates (ranges [0,.3) [.3,.7]
    (.7,1]) for INT and FP, with the train reference. *)

val fig11 : Runner.data list -> Table.t
(** BP mismatch per INT benchmark. *)

val fig12 : Runner.data list -> Table.t
(** BP mismatch per FP benchmark. *)

val fig13 : Runner.data list -> Table.t
(** Average Sd.CP(T) for INT and FP. *)

val fig14 : Runner.data list -> Table.t
(** Average Sd.LP(T) for INT and FP. *)

val fig15 : Runner.data list -> Table.t
(** Average loop trip-count-range mismatch for INT and FP. *)

val fig16 : Runner.data list -> Table.t
(** LP mismatch per INT benchmark. *)

val fig17 : Runner.data list -> Table.t
(** Relative performance vs threshold (int, int-no-perl, fp); base is
    the smallest threshold run (paper: threshold 1). *)

val fig18 : Runner.data list -> Table.t
(** Profiling operations normalised to the training run. *)

val cache_sweep : Runner.cache_data list -> Table.t
(** Cycles relative to the unbounded-cache baseline, one row per
    (benchmark, eviction policy), one column per capacity fraction —
    the Fig-17-style bounded-cache companion.  Not included in {!all}:
    it runs configurations the paper's figures never use. *)

val all : Runner.data list -> (string * Table.t) list
(** [(figure id, table)] for figures 8–18 in order. *)
