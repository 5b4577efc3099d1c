module Region = Tpdbt_dbt.Region

let edge_probability role ~branch_prob =
  let p = match branch_prob with Some p -> p | None -> 0.5 in
  match role with
  | Region.Taken -> p
  | Region.Not_taken -> 1.0 -. p
  | Region.Always -> 1.0

(* Propagate frequency 1 from slot 0 through the region's forward edges
   (plus, with [with_dummy], the back edges redirected to a dummy node
   [slot_count]) and return the frequency of node [target].  A node's
   inflow sums its distinct predecessors in the order their first edge
   appears, each weighted by its edges' probabilities summed in edge
   order (two roles may join the same slots): the order
   [Markov.propagate_acyclic] sums in over the graph of these edges.
   Nodes are visited in a topological order (Kahn's), so every
   predecessor is final when it is read. *)
let propagate region ~prob ~with_dummy ~target =
  let nslots = Region.slot_count region in
  let size = if with_dummy then nslots + 1 else nslots in
  let edges =
    if with_dummy then
      region.Region.edges
      @ List.map
          (fun e -> { e with Region.dst = nslots })
          region.Region.back_edges
    else region.Region.edges
  in
  (* [preds.(n)]: (source, summed probability), latest first. *)
  let preds = Array.make size [] and succs = Array.make size [] in
  let indegree = Array.make size 0 in
  List.iter
    (fun { Region.src; dst; role } ->
      if src < 0 || src >= nslots || dst < 0 || dst >= size then
        invalid_arg "Region_prob.propagate: edge slot out of range";
      let p = edge_probability role ~branch_prob:(prob src) in
      match List.assoc_opt src preds.(dst) with
      | Some w -> w := !w +. p
      | None ->
          preds.(dst) <- (src, ref (0.0 +. p)) :: preds.(dst);
          succs.(src) <- dst :: succs.(src);
          indegree.(dst) <- indegree.(dst) + 1)
    edges;
  let freq = Array.make size 0.0 in
  let ready = Queue.create () in
  for n = 0 to size - 1 do
    if indegree.(n) = 0 then Queue.add n ready
  done;
  let visited = ref 0 in
  while not (Queue.is_empty ready) do
    let n = Queue.pop ready in
    incr visited;
    freq.(n) <-
      (if n = 0 then 1.0
       else
         List.fold_left
           (fun acc (p, w) -> acc +. (freq.(p) *. !w))
           0.0 (List.rev preds.(n)));
    List.iter
      (fun s ->
        indegree.(s) <- indegree.(s) - 1;
        if indegree.(s) = 0 then Queue.add s ready)
      succs.(n)
  done;
  (* Region forward edges are acyclic by construction. *)
  if !visited < size then
    invalid_arg "Region_prob.propagate: forward edges contain a cycle";
  freq.(target)

let completion_probability region ~prob =
  propagate region ~prob ~with_dummy:false ~target:(Region.tail_slot region)

let loopback_probability region ~prob =
  if region.Region.back_edges = [] then 0.0
  else
    propagate region ~prob ~with_dummy:true
      ~target:(Region.slot_count region)

let trip_count_of_loopback lp =
  if lp >= 1.0 -. 1e-9 then 1e9 else 1.0 /. (1.0 -. lp)

type trip_class = Low | Medium | High

let classify_loopback lp =
  if lp < 0.9 then Low else if lp <= 0.98 then Medium else High

let classify_trip_count t =
  if t < 10.0 then Low else if t <= 50.0 then Medium else High
