(** Directed graphs over integer node identifiers.

    A thin mutable adjacency structure: the graph that
    [Tpdbt_numerics.Markov.propagate_acyclic], a test reference for the
    array analyses, propagates over.  Nodes are arbitrary non-negative
    integers; parallel edges are collapsed. *)

type t

val create : unit -> t
val add_node : t -> int -> unit
val add_edge : t -> int -> int -> unit
(** Adds both endpoints as nodes. *)

val of_edges : (int * int) list -> t
val succs : t -> int -> int list
(** Successors in insertion order; [] for unknown nodes. *)

val preds : t -> int -> int list
val nodes : t -> int list
(** All nodes in insertion order. *)
