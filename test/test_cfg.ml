(* Tests for the CFG library: graph and topological sort. *)

module Graph = Tpdbt_cfg.Graph
module Traverse = Tpdbt_cfg.Traverse

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let check_ints = Alcotest.check Alcotest.(list int)

(* A natural loop with a diamond body:
     0 -> 1 (header) -> {2, 3} -> 4
     4 -> 1  (back edge)
     4 -> 5  (exit)           *)
let diamond_loop () =
  Graph.of_edges [ (0, 1); (1, 2); (1, 3); (2, 4); (3, 4); (4, 1); (4, 5) ]

let test_graph_basics () =
  let g = diamond_loop () in
  check_ints "nodes" [ 0; 1; 2; 3; 4; 5 ] (Graph.nodes g);
  check_ints "succs 0" [ 1 ] (Graph.succs g 0);
  check_ints "no reverse edge" [] (Graph.preds g 0);
  check_ints "succs 1" [ 2; 3 ] (Graph.succs g 1);
  check_ints "preds 4" [ 2; 3 ] (Graph.preds g 4);
  check_ints "preds 1" [ 0; 4 ] (Graph.preds g 1);
  check_ints "succs unknown" [] (Graph.succs g 42)

let test_graph_dedup_edges () =
  let g = Graph.create () in
  Graph.add_edge g 1 2;
  Graph.add_edge g 1 2;
  check_ints "parallel edges collapse" [ 2 ] (Graph.succs g 1);
  check_ints "one predecessor" [ 1 ] (Graph.preds g 2)

let test_topological_sort () =
  let edges = [ (0, 1); (0, 2); (1, 3); (2, 3) ] in
  (match Traverse.topological_sort (Graph.of_edges edges) with
  | Error msg -> Alcotest.fail msg
  | Ok order ->
      let pos = Hashtbl.create 8 in
      List.iteri (fun i n -> Hashtbl.replace pos n i) order;
      checki "every node" 4 (List.length order);
      List.iter
        (fun (a, b) ->
          checkb "edge respects order" true
            (Hashtbl.find pos a < Hashtbl.find pos b))
        edges);
  checkb "cycle detected" true
    (Result.is_error (Traverse.topological_sort (diamond_loop ())))

(* Property: random DAG -> topological_sort succeeds and respects edges. *)
let prop_topo_on_dags =
  let open QCheck in
  let gen =
    Gen.(
      list_size (int_range 0 40)
        (pair (int_bound 20) (int_bound 20))
      |> map (fun pairs ->
             (* Orient edges from lower to higher id: guarantees a DAG. *)
             List.filter_map
               (fun (a, b) ->
                 if a < b then Some (a, b) else if b < a then Some (b, a) else None)
               pairs))
  in
  Test.make ~name:"topological sort on random DAGs" ~count:200 (make gen)
    (fun edges ->
      let g = Graph.of_edges edges in
      match Traverse.topological_sort g with
      | Error _ -> false
      | Ok order ->
          let pos = Hashtbl.create 16 in
          List.iteri (fun i n -> Hashtbl.replace pos n i) order;
          List.for_all (fun (a, b) -> Hashtbl.find pos a < Hashtbl.find pos b) edges)

let suite =
  [
    ("graph basics", `Quick, test_graph_basics);
    ("graph dedup edges", `Quick, test_graph_dedup_edges);
    ("topological sort", `Quick, test_topological_sort);
    QCheck_alcotest.to_alcotest prop_topo_on_dags;
  ]
