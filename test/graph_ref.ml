(* Reference graph code the tests check the array analyses against: a
   small mutable graph over integer nodes, Kahn's topological sort, and
   forward frequency propagation over an acyclic graph.  The shipped
   libraries derive a region's slot tables in [Region.validate] and
   propagate a region's probabilities in [Region_prob]; these are the
   general-graph forms those are compared with. *)

(* A directed graph over integer node identifiers.  Parallel edges
   collapse; successors, predecessors and nodes come in insertion
   order, and an unknown node has none. *)
module Graph = struct
  type t = {
    succs : (int, int list ref) Hashtbl.t;
    preds : (int, int list ref) Hashtbl.t;
    mutable nodes_rev : int list;
  }

  let create () =
    { succs = Hashtbl.create 16; preds = Hashtbl.create 16; nodes_rev = [] }

  let mem_node t n = Hashtbl.mem t.succs n

  let add_node t n =
    if not (mem_node t n) then begin
      Hashtbl.replace t.succs n (ref []);
      Hashtbl.replace t.preds n (ref []);
      t.nodes_rev <- n :: t.nodes_rev
    end

  let adjacency table n =
    match Hashtbl.find_opt table n with Some l -> !l | None -> []

  let mem_edge t a b = List.mem b (adjacency t.succs a)

  (* Adds both endpoints as nodes. *)
  let add_edge t a b =
    add_node t a;
    add_node t b;
    if not (mem_edge t a b) then begin
      let sa = Hashtbl.find t.succs a and pb = Hashtbl.find t.preds b in
      sa := b :: !sa;
      pb := a :: !pb
    end

  let of_edges edges =
    let t = create () in
    List.iter (fun (a, b) -> add_edge t a b) edges;
    t

  let succs t n = List.rev (adjacency t.succs n)
  let preds t n = List.rev (adjacency t.preds n)
  let nodes t = List.rev t.nodes_rev
end

(* Kahn's algorithm over the whole graph; [Error] if it has a cycle. *)
let topological_sort g =
  let nodes = Graph.nodes g in
  let indegree = Hashtbl.create 16 in
  List.iter
    (fun n -> Hashtbl.replace indegree n (List.length (Graph.preds g n)))
    nodes;
  let ready = Queue.create () in
  List.iter (fun n -> if Hashtbl.find indegree n = 0 then Queue.add n ready) nodes;
  let order = ref [] in
  let count = ref 0 in
  while not (Queue.is_empty ready) do
    let n = Queue.pop ready in
    order := n :: !order;
    incr count;
    List.iter
      (fun s ->
        let d = Hashtbl.find indegree s - 1 in
        Hashtbl.replace indegree s d;
        if d = 0 then Queue.add s ready)
      (Graph.succs g n)
  done;
  if !count = List.length nodes then Ok (List.rev !order)
  else Error "topological_sort: graph has a cycle"

(* Forward propagation over an acyclic graph: the entry gets
   [entry_freq], every other node the probability-weighted sum of its
   predecessors, in [Graph.preds] order, and a node not reachable from
   the entry gets 0.  [Error] if the graph has a cycle.  This is the
   completion- and loop-back-probability computation of paper §3.2–3.3
   over a general graph. *)
let propagate_acyclic ~graph ~prob ~entry ~entry_freq =
  match topological_sort graph with
  | Error _ -> Error "propagate_acyclic: graph has a cycle"
  | Ok order ->
      let freq = Hashtbl.create 16 in
      List.iter (fun node -> Hashtbl.replace freq node 0.0) (Graph.nodes graph);
      Hashtbl.replace freq entry entry_freq;
      List.iter
        (fun node ->
          if node <> entry then begin
            let inflow =
              List.fold_left
                (fun acc p -> acc +. (Hashtbl.find freq p *. prob p node))
                0.0 (Graph.preds graph node)
            in
            Hashtbl.replace freq node inflow
          end)
        order;
      Ok freq
