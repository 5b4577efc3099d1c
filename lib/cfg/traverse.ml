let topological_sort g =
  let nodes = Graph.nodes g in
  let indegree = Hashtbl.create 16 in
  List.iter (fun n -> Hashtbl.replace indegree n (List.length (Graph.preds g n))) nodes;
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
