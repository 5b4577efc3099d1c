(** Markov modelling of control flow (Wagner et al., PLDI'94).

    Given a CFG whose edges carry branch probabilities and whose
    frequencies are known at some nodes, recover the frequencies of the
    remaining nodes from the flow equations

    {v freq(n) = sum over predecessors p of freq(p) * prob(p -> n) v}

    where each [freq(p)] is either a known constant or another unknown.
    This is exactly the computation NAVEP needs for blocks duplicated by
    region formation (paper §3.1).  NAVEP's graph spans every block
    copy of a program, so one system can have hundreds of unknowns;
    each row holds the diagonal and one entry per predecessor, and
    {!Linear_solver.sparse_gauss} solves it on those entries alone. *)

type flow = {
  first : int array;
      (** length [nodes + 1]: node [n]'s in-edges are the indices
          [first.(n)] to [first.(n + 1) - 1] of [src] and [prob] *)
  src : int array;  (** the source node of each in-edge *)
  prob : float array;  (** the probability of each in-edge *)
}
(** A flow graph over the nodes [0 .. nodes - 1], stored as each node's
    in-edges: a node has at most one in-edge from a given source, and
    the order of its in-edges is the order its equation is summed in. *)

type system = {
  unknowns : int array;  (** the node of each unknown, in node order *)
  rows : Linear_solver.row array;
      (** row [i]: the diagonal [1.0] first, then [+. (-. w)] for each
          in-edge of weight [w] from another unknown, in in-edge order;
          a self-loop adds [-. w] to the diagonal instead *)
  rhs : float array;
      (** [rhs.(i)]: [freq(p) *. w] summed over the in-edges from known
          nodes, in in-edge order, from [0.0] *)
}
(** The linear system {!solve} hands the solver, exposed so tests and
    the fuzz oracle can solve it both ways. *)

val system : flow -> known:float option array -> system
(** [known.(n)] is [Some f] for a node whose frequency is given. *)

val solve : flow -> known:float option array -> (float array, string) result
(** Frequencies for every node: a known node keeps its given frequency,
    the others are solved for by {!Linear_solver.sparse_gauss} over
    {!system}.  [Error] if the system is singular. *)
