(** Span aggregation: fold a stamped event stream into a per-label
    call tree.

    {!Event.Span_begin}/{!Event.Span_end} pairs become tree nodes —
    same label under the same parent merges — accumulating call count,
    guest-step width (difference of the two stamps), wall nanoseconds
    and allocated words (from the end event's payload).
    {!Event.Stage_cost} events become leaf children of whichever span
    is open when they fire, carrying the deterministic cycle-model
    attribution.  Everything else in the stream is ignored.

    Ends are matched by label, not position: interleaved streams
    (spans closed out of order) still account every frame; an end with
    no matching open frame is dropped.

    Exports: collapsed-stack text ([root;child;leaf N] per line,
    weighted by {e self} guest steps — deterministic, so flamegraphs
    diff cleanly across runs) and a JSON profile for tooling. *)

type t
type node

val of_events : Event.stamped list -> t

val roots : t -> node list
(** Top-level spans, sorted by label — as are [children] everywhere. *)

val find : t -> string list -> node option
(** [find t ["engine.run"; "interpret"]] walks labels from the root. *)

val label : node -> string
val calls : node -> int

val steps : node -> int
(** Inclusive guest-step width of all merged instances. *)

val self_steps : node -> int
(** [steps] minus the children's — never negative. *)

val wall_ns : node -> int
val minor_words : node -> int
val major_words : node -> int

val cycles : node -> float
(** Modeled cycles; nonzero only on {!Event.Stage_cost} leaves. *)

val children : node -> node list

val to_folded : t -> string
(** Brendan-Gregg collapsed-stack text, one [path;to;node N] line per
    node with positive self weight, ready for [flamegraph.pl] or
    speedscope. *)

val to_json : t -> string
(** [{"version":1,"weight":"guest_steps","roots":[...]}]; every node
    carries label, calls, steps, self_steps, wall_ns, minor_words,
    major_words, cycles and children.  Wall time is nondeterministic;
    major_words counts promotions, so it also depends on when minor
    collections fall. *)
