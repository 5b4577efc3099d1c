(** Ablation studies for the design choices DESIGN.md calls out.

    Each study fixes the retranslation threshold at the paper's sweet
    spot (label 2k, scaled 20) and varies one mechanism of the
    translator, reporting — averaged over a set of benchmarks —
    the accuracy metrics, the side-exit rate, and the performance-model
    cycles relative to the study's first variant. *)

val default_benchmarks : string list
(** gzip, mcf, perlbmk, crafty (INT) and swim, wupwise (FP): a mix of
    stable, phase-changing and boundary-straddling behaviour. *)

val region_formation : ?benchmarks:string list -> unit -> Table.t
(** Variants: full former / no tail duplication / no hammock diamonds /
    regions inlined across calls / singleton regions only (max 1 slot). *)

val min_branch_prob : ?benchmarks:string list -> unit -> Table.t
(** The trace-grower's "minimum branch probability": 0.5 / 0.6 / 0.7
    (the paper's [5]) / 0.85 / 0.95. *)

val pool_trigger : ?benchmarks:string list -> unit -> Table.t
(** Candidate-pool size that triggers the optimisation phase:
    1 / 4 / 16 / 64 / 256. *)

val scheduling : ?benchmarks:string list -> unit -> Table.t
(** Per-block scheduling of region members vs trace scheduling with
    cross-edge latency overlap. *)

val adaptive : ?benchmarks:string list -> unit -> Table.t
(** Fixed two-phase translation vs adaptive region dissolution
    (side-exit monitoring, the paper's §5 proposal), on the
    phase-changing benchmarks where it should matter. *)

val all : ?benchmarks:string list -> unit -> (string * (unit -> Table.t)) list
(** Every study by name, in the order above; a study runs when its
    function is called.  [benchmarks] applies to every study but
    [adaptive], which keeps its phase-changing set. *)
