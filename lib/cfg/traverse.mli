(** Topological sorting of acyclic graphs. *)

val topological_sort : Graph.t -> (int list, string) result
(** Kahn's algorithm over the whole graph; [Error] if the graph has a
    cycle. *)
