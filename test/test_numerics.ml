(* Tests for the numerics library: matrices, linear solvers, Markov
   propagation, weighted statistics. *)

module Matrix = Tpdbt_numerics.Matrix
module Solver = Tpdbt_numerics.Linear_solver
module Markov = Tpdbt_numerics.Markov
module Stats = Tpdbt_numerics.Stats
module Graph = Tpdbt_cfg.Graph
module Region = Tpdbt_dbt.Region
module Snapshot = Tpdbt_dbt.Snapshot
module Engine = Tpdbt_dbt.Engine
module Navep = Tpdbt_profiles.Navep
module Region_prob = Tpdbt_profiles.Region_prob
module Runner = Tpdbt_experiments.Runner

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg
let checkf6 msg = Alcotest.check (Alcotest.float 1e-6) msg

(* ------------------------------------------------------------------ *)
(* Matrix                                                               *)
(* ------------------------------------------------------------------ *)

let test_matrix_basics () =
  let m = Matrix.create ~rows:2 ~cols:3 in
  checki "rows" 2 (Matrix.rows m);
  checki "cols" 3 (Matrix.cols m);
  checkf "zero init" 0.0 (Matrix.get m 1 2);
  Matrix.set m 1 2 5.0;
  checkf "set/get" 5.0 (Matrix.get m 1 2);
  Matrix.add_to m 1 2 2.5;
  checkf "add_to" 7.5 (Matrix.get m 1 2);
  Alcotest.check_raises "bounds"
    (Invalid_argument "Matrix: index (2,0) out of 2x3") (fun () ->
      ignore (Matrix.get m 2 0))

let test_matrix_of_arrays () =
  let m = Matrix.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  checkf "1 1" 4.0 (Matrix.get m 1 1);
  match Matrix.of_arrays [| [| 1.0 |]; [| 1.0; 2.0 |] |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "ragged accepted"

let test_matrix_mul_vec () =
  let m = Matrix.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let v = Matrix.mul_vec m [| 1.0; 1.0 |] in
  checkf "row 0" 3.0 v.(0);
  checkf "row 1" 7.0 v.(1)

let test_matrix_identity_swap () =
  let m = Matrix.identity 3 in
  checkf "diag" 1.0 (Matrix.get m 2 2);
  Matrix.swap_rows m 0 2;
  checkf "swapped" 1.0 (Matrix.get m 0 2);
  checkf "swapped2" 1.0 (Matrix.get m 2 0)

(* ------------------------------------------------------------------ *)
(* Linear solvers                                                       *)
(* ------------------------------------------------------------------ *)

let test_gauss_simple () =
  (* 2x + y = 5; x - y = 1  ->  x = 2, y = 1 *)
  let a = Matrix.of_arrays [| [| 2.0; 1.0 |]; [| 1.0; -1.0 |] |] in
  match Solver.gauss a [| 5.0; 1.0 |] with
  | Error msg -> Alcotest.fail msg
  | Ok x ->
      checkf6 "x" 2.0 x.(0);
      checkf6 "y" 1.0 x.(1)

let test_gauss_needs_pivoting () =
  (* Zero on the initial pivot position. *)
  let a = Matrix.of_arrays [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  match Solver.gauss a [| 3.0; 4.0 |] with
  | Error msg -> Alcotest.fail msg
  | Ok x ->
      checkf6 "x" 4.0 x.(0);
      checkf6 "y" 3.0 x.(1)

let test_gauss_singular () =
  let a = Matrix.of_arrays [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  checkb "singular" true (Result.is_error (Solver.gauss a [| 1.0; 2.0 |]));
  let bad = Matrix.create ~rows:2 ~cols:3 in
  checkb "not square" true (Result.is_error (Solver.gauss bad [| 1.0; 2.0 |]));
  let sq = Matrix.identity 2 in
  checkb "dim mismatch" true (Result.is_error (Solver.gauss sq [| 1.0 |]))

let test_jacobi_agrees () =
  (* Diagonally dominant system. *)
  let a =
    Matrix.of_arrays
      [| [| 4.0; 1.0; 0.0 |]; [| 1.0; 5.0; 2.0 |]; [| 0.0; 2.0; 6.0 |] |]
  in
  let b = [| 9.0; 20.0; 22.0 |] in
  match (Solver.gauss a b, Solver.jacobi a b) with
  | Ok g, Ok j ->
      Array.iteri (fun i gv -> checkf6 (Printf.sprintf "x%d" i) gv j.(i)) g
  | Error msg, _ | _, Error msg -> Alcotest.fail msg

let test_jacobi_zero_diag () =
  let a = Matrix.of_arrays [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  checkb "zero diag" true (Result.is_error (Solver.jacobi a [| 1.0; 1.0 |]))

let test_residual () =
  let a = Matrix.identity 2 in
  checkf "exact" 0.0 (Solver.residual_norm a [| 1.0; 2.0 |] [| 1.0; 2.0 |]);
  checkf "off" 1.0 (Solver.residual_norm a [| 1.0; 2.0 |] [| 1.0; 3.0 |])

let test_gauss_1x1 () =
  let a = Matrix.of_arrays [| [| 4.0 |] |] in
  match Solver.gauss a [| 8.0 |] with
  | Ok x -> checkf6 "trivial" 2.0 x.(0)
  | Error msg -> Alcotest.fail msg

(* [Markov.solve] over the nodes [0 .. nodes - 1] of a graph, each
   node's in-edges in [Graph.preds] order. *)
let flow_of_graph ~nodes g prob =
  let first = Array.make (nodes + 1) 0 in
  let edges =
    List.concat_map
      (fun n ->
        let preds = Graph.preds g n in
        first.(n + 1) <- first.(n) + List.length preds;
        List.map (fun p -> (p, prob p n)) preds)
      (List.init nodes Fun.id)
  in
  {
    Markov.first;
    src = Array.of_list (List.map fst edges);
    prob = Array.of_list (List.map snd edges);
  }

let markov_solve ~nodes g ~prob ~known =
  let known_at = Array.make nodes None in
  List.iter (fun (n, f) -> known_at.(n) <- Some f) known;
  Markov.solve (flow_of_graph ~nodes g prob) ~known:known_at

let test_markov_no_inflow_zero () =
  (* An unknown node with no predecessors solves to zero. *)
  let g = Graph.create () in
  Graph.add_node g 3;
  match markov_solve ~nodes:4 g ~prob:(fun _ _ -> 0.0) ~known:[] with
  | Ok freq -> checkf "isolated unknown" 0.0 freq.(3)
  | Error msg -> Alcotest.fail msg

let test_markov_flow_conservation () =
  (* A known source splitting 0.3/0.7 into two unknowns: they sum to the
     source. *)
  let g = Graph.of_edges [ (0, 1); (0, 2) ] in
  let prob src dst =
    match (src, dst) with 0, 1 -> 0.3 | 0, 2 -> 0.7 | _ -> 0.0
  in
  match markov_solve ~nodes:3 g ~prob ~known:[ (0, 1000.0) ] with
  | Ok freq -> checkf6 "split conserves flow" 1000.0 (freq.(1) +. freq.(2))
  | Error msg -> Alcotest.fail msg

(* Property: gauss solution satisfies A x = b (residual small) for
   random diagonally dominant systems; jacobi agrees. *)
let prop_solvers_agree =
  let open QCheck in
  let gen =
    Gen.(
      int_range 1 8 >>= fun n ->
      list_size (return (n * n)) (float_range (-2.0) 2.0) >>= fun entries ->
      list_size (return n) (float_range (-10.0) 10.0) >>= fun rhs ->
      return (n, entries, rhs))
  in
  Test.make ~name:"gauss and jacobi agree on dominant systems" ~count:100
    (make gen) (fun (n, entries, rhs) ->
      let a = Matrix.create ~rows:n ~cols:n in
      List.iteri
        (fun k v ->
          let i = k / n and j = k mod n in
          Matrix.set a i j v)
        entries;
      (* Force strict diagonal dominance. *)
      for i = 0 to n - 1 do
        let sum = ref 0.0 in
        for j = 0 to n - 1 do
          if j <> i then sum := !sum +. abs_float (Matrix.get a i j)
        done;
        Matrix.set a i i (!sum +. 1.0)
      done;
      let b = Array.of_list rhs in
      match (Solver.gauss a b, Solver.jacobi a b) with
      | Ok g, Ok j ->
          Solver.residual_norm a g b < 1e-6
          && Array.for_all2 (fun x y -> abs_float (x -. y) < 1e-6) g j
      | Error _, _ | _, Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Markov propagation                                                   *)
(* ------------------------------------------------------------------ *)

let test_markov_solve_paper_shape () =
  (* The Fig 4 situation: block b2 duplicated into three copies fed by
     known-frequency blocks.  Nodes: 1=b1(1000), 3=b3(6000), 4=b4(44000)
     known; 20,21,22 = copies of b2, unknown.
       b1 -> copy20 with prob 1.0
       b4 -> copy21 with prob 1.0
       b3 -> copy22 with prob 5/6 (say)
     Expect copy frequencies 1000, 44000, 5000. *)
  let g = Graph.of_edges [ (1, 20); (4, 21); (3, 22) ] in
  let prob src dst =
    match (src, dst) with
    | 1, 20 -> 1.0
    | 4, 21 -> 1.0
    | 3, 22 -> 5.0 /. 6.0
    | _ -> 0.0
  in
  match
    markov_solve ~nodes:23 g ~prob
      ~known:[ (1, 1000.0); (3, 6000.0); (4, 44000.0) ]
  with
  | Error msg -> Alcotest.fail msg
  | Ok freq ->
      checkf6 "copy 20" 1000.0 freq.(20);
      checkf6 "copy 21" 44000.0 freq.(21);
      checkf6 "copy 22" 5000.0 freq.(22);
      checkf6 "copies sum to b2 AVEP freq" 50000.0
        (freq.(20) +. freq.(21) +. freq.(22))

let test_markov_solve_cycle () =
  (* Unknown with a self loop: x = 1000 + 0.5 x  ->  x = 2000. *)
  let g = Graph.of_edges [ (0, 1); (1, 1) ] in
  let prob src dst =
    match (src, dst) with 0, 1 -> 1.0 | 1, 1 -> 0.5 | _ -> 0.0
  in
  match markov_solve ~nodes:2 g ~prob ~known:[ (0, 1000.0) ] with
  | Error msg -> Alcotest.fail msg
  | Ok freq -> checkf6 "geometric" 2000.0 freq.(1)

let test_markov_mutual_unknowns () =
  (* Two unknowns feeding each other:
       x = 100 + 0.5 y ; y = 0.5 x  ->  x = 400/3, y = 200/3. *)
  let g = Graph.of_edges [ (9, 1); (1, 2); (2, 1) ] in
  let prob src dst =
    match (src, dst) with
    | 9, 1 -> 1.0
    | 1, 2 -> 0.5
    | 2, 1 -> 0.5
    | _ -> 0.0
  in
  match markov_solve ~nodes:10 g ~prob ~known:[ (9, 100.0) ] with
  | Error msg -> Alcotest.fail msg
  | Ok freq ->
      checkf6 "x" (400.0 /. 3.0) freq.(1);
      checkf6 "y" (200.0 /. 3.0) freq.(2)

let test_markov_all_known () =
  let g = Graph.of_edges [ (0, 1) ] in
  match
    markov_solve ~nodes:2 g ~prob:(fun _ _ -> 1.0) ~known:[ (0, 5.0); (1, 7.0) ]
  with
  | Error msg -> Alcotest.fail msg
  | Ok freq ->
      checkf "knowns preserved" 5.0 freq.(0);
      checkf "knowns preserved 2" 7.0 freq.(1)

let test_propagate_acyclic_fig6 () =
  (* Paper Fig 6: b5 -(0.4)-> b6 -(0.8)-> b8, b5 -(0.6)-> b7 -(0.9)-> b8.
     Completion probability = 0.86. *)
  let g = Graph.of_edges [ (5, 6); (5, 7); (6, 8); (7, 8) ] in
  let prob src dst =
    match (src, dst) with
    | 5, 6 -> 0.4
    | 5, 7 -> 0.6
    | 6, 8 -> 0.8
    | 7, 8 -> 0.9
    | _ -> 0.0
  in
  match Markov.propagate_acyclic ~graph:g ~prob ~entry:5 ~entry_freq:1.0 with
  | Error msg -> Alcotest.fail msg
  | Ok freq ->
      checkf6 "b6" 0.4 (Hashtbl.find freq 6);
      checkf6 "b7" 0.6 (Hashtbl.find freq 7);
      checkf6 "completion = 0.86" 0.86 (Hashtbl.find freq 8)

let test_propagate_acyclic_rejects_cycle () =
  let g = Graph.of_edges [ (0, 1); (1, 0) ] in
  checkb "cycle rejected" true
    (Result.is_error
       (Markov.propagate_acyclic ~graph:g ~prob:(fun _ _ -> 1.0) ~entry:0
          ~entry_freq:1.0))

let test_propagate_unreachable_zero () =
  let g = Graph.of_edges [ (0, 1) ] in
  Graph.add_node g 7;
  match Markov.propagate_acyclic ~graph:g ~prob:(fun _ _ -> 1.0) ~entry:0 ~entry_freq:2.0 with
  | Error msg -> Alcotest.fail msg
  | Ok freq ->
      checkf "unreachable" 0.0 (Hashtbl.find freq 7);
      checkf "reachable" 2.0 (Hashtbl.find freq 1)

(* ------------------------------------------------------------------ *)
(* Stats                                                                *)
(* ------------------------------------------------------------------ *)

let test_weighted_sd_formula () =
  (* Hand check of the paper's formula:
     sqrt(((0.2)^2*10 + (0.1)^2*30) / 40). *)
  let samples =
    [
      { Stats.predicted = 0.5; actual = 0.3; weight = 10.0 };
      { Stats.predicted = 0.6; actual = 0.7; weight = 30.0 };
    ]
  in
  let expected = sqrt (((0.04 *. 10.0) +. (0.01 *. 30.0)) /. 40.0) in
  checkf6 "weighted sd" expected (Stats.weighted_sd samples)

let test_weighted_sd_degenerate () =
  checkf "empty" 0.0 (Stats.weighted_sd []);
  checkf "zero weight" 0.0
    (Stats.weighted_sd [ { Stats.predicted = 1.0; actual = 0.0; weight = 0.0 } ]);
  checkf "perfect prediction" 0.0
    (Stats.weighted_sd [ { Stats.predicted = 0.7; actual = 0.7; weight = 5.0 } ])

let test_weighted_mean () =
  checkf6 "mean" 0.25 (Stats.weighted_mean [ (0.1, 3.0); (0.7, 1.0) ]);
  checkf "empty" 0.0 (Stats.weighted_mean [])

let test_mismatch_rate () =
  let ranges p = if p < 0.3 then 0 else if p <= 0.7 then 1 else 2 in
  let samples =
    [
      { Stats.predicted = 0.99; actual = 0.76; weight = 1.0 };  (* match *)
      { Stats.predicted = 0.68; actual = 0.78; weight = 3.0 };  (* mismatch *)
    ]
  in
  checkf6 "paper example rates" 0.75 (Stats.mismatch_rate ~ranges samples);
  checkf "empty" 0.0 (Stats.mismatch_rate ~ranges [])

let test_mean () =
  checkf6 "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  checkf "empty" 0.0 (Stats.mean [])

(* Property: Sd is scale-invariant in weights and bounded by max |diff|. *)
let prop_sd_bounds =
  let open QCheck in
  let sample =
    Gen.(
      triple (float_bound_inclusive 1.0) (float_bound_inclusive 1.0)
        (float_range 0.1 10.0))
  in
  Test.make ~name:"weighted sd bounded by max deviation" ~count:300
    (make Gen.(list_size (int_range 1 20) sample))
    (fun samples ->
      let samples =
        List.map
          (fun (p, a, w) -> { Stats.predicted = p; actual = a; weight = w })
          samples
      in
      let sd = Stats.weighted_sd samples in
      let max_dev =
        List.fold_left
          (fun acc s -> max acc (abs_float (s.Stats.predicted -. s.Stats.actual)))
          0.0 samples
      in
      sd >= -1e-12 && sd <= max_dev +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Sparse against dense elimination, bit for bit                       *)
(* ------------------------------------------------------------------ *)

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

(* Both solvers return the same bits, or both refuse the system. *)
let sparse_matches_dense (rows : Solver.row array) rhs =
  match
    (Solver.sparse_gauss rows rhs, Solver.gauss (Solver.to_matrix rows) rhs)
  with
  | Ok x, Ok y -> same_bits x y
  | Error _, Error _ -> true
  | Ok _, Error _ | Error _, Ok _ -> false

(* A random sparse system drawn from [seed].  Row [i] has an entry in
   column [sigma i] for a random permutation [sigma], so the system is
   structurally nonsingular, and up to five more; the diagonal is often
   missing or explicitly zero, so columns need row swaps.  Half the
   values are of equal magnitude, so pivot candidates tie, and the rest
   are not dyadic, so a different pivot rounds differently.  Now and
   then a repeated row or an emptied column makes the system exactly
   singular. *)
let random_system n seed =
  let st = Random.State.make [| n; seed |] in
  let ties = [| 1.0; -1.0; 0.5; -0.5; 2.0; -2.0 |] in
  let nonzero () =
    if Random.State.bool st then ties.(Random.State.int st (Array.length ties))
    else if Random.State.bool st then Random.State.float st 1.0 +. 0.01
    else -.(Random.State.float st 1.0 +. 0.01)
  in
  let value () = if Random.State.int st 12 = 0 then 0.0 else nonzero () in
  let sigma = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = sigma.(i) in
    sigma.(i) <- sigma.(j);
    sigma.(j) <- t
  done;
  let rows =
    Array.init n (fun i ->
        let cols = Hashtbl.create 8 in
        (match Random.State.int st 3 with
        | 0 -> ()
        | 1 -> Hashtbl.replace cols i 0.0
        | _ -> Hashtbl.replace cols i (nonzero ()));
        for _ = 1 to Random.State.int st 6 do
          Hashtbl.replace cols (Random.State.int st n) (value ())
        done;
        Hashtbl.replace cols sigma.(i) (nonzero ());
        Hashtbl.fold (fun j v acc -> (j, v) :: acc) cols [] |> List.sort compare)
  in
  (match Random.State.int st 12 with
  | 0 when n > 1 -> rows.(Random.State.int st n) <- rows.(Random.State.int st n)
  | 1 ->
      let c = Random.State.int st n in
      Array.iteri
        (fun i r -> rows.(i) <- List.filter (fun (j, _) -> j <> c) r)
        rows
  | _ -> ());
  let to_row r =
    {
      Solver.cols = Array.of_list (List.map fst r);
      vals = Array.of_list (List.map snd r);
    }
  in
  ( Array.map to_row rows,
    Array.init n (fun _ -> Random.State.float st 20.0 -. 10.0) )

let prop_sparse_gauss_bitwise =
  let open QCheck in
  let gen =
    Gen.(
      pair
        (frequency
           [ (6, int_range 1 30); (3, int_range 31 150); (1, int_range 151 500) ])
        (int_bound 1_000_000))
  in
  Test.make ~name:"sparse_gauss equals gauss bit for bit" ~count:150
    (make ~print:Print.(pair int int) gen)
    (fun (n, seed) ->
      let rows, rhs = random_system n seed in
      sparse_matches_dense rows rhs)

let test_sparse_gauss_ties_and_singularity () =
  (* Rows 1 and 2 tie for the first pivot at magnitude 2; the earlier
     one wins, as in [gauss]. *)
  let row cols vals = { Solver.cols; vals } in
  let rows =
    [|
      row [| 1 |] [| 0.3 |];
      row [| 0; 1; 2 |] [| 2.0; 0.7; 0.1 |];
      row [| 0; 2 |] [| -2.0; 0.9 |];
    |]
  in
  checkb "tie resolved as gauss" true (sparse_matches_dense rows [| 1.0; 2.0; 3.0 |]);
  let singular = [| row [| 0; 1 |] [| 1.0; 2.0 |]; row [| 0; 1 |] [| 2.0; 4.0 |] |] in
  checkb "singular refused" true
    (Result.is_error (Solver.sparse_gauss singular [| 1.0; 2.0 |]));
  checkb "repeated column refused" true
    (Result.is_error
       (Solver.sparse_gauss [| row [| 0; 0 |] [| 1.0; 1.0 |] |] [| 1.0 |]));
  checkb "column out of range refused" true
    (Result.is_error (Solver.sparse_gauss [| row [| 1 |] [| 1.0 |] |] [| 1.0 |]));
  checkb "dimension mismatch refused" true
    (Result.is_error (Solver.sparse_gauss [| row [| 0 |] [| 1.0 |] |] [||]))

(* ------------------------------------------------------------------ *)
(* NAVEP and region propagation over a 26-member sweep                  *)
(* ------------------------------------------------------------------ *)

(* Every suite member at 200k instructions per stage: the sweep
   test/golden/figures.txt pins. *)
let sweep =
  lazy
    (List.map
       (Runner.run_benchmark ~max_steps:200_000)
       Tpdbt_workloads.Suite.all)

(* Each (INIP, AVEP) pair [Runner.assemble] compares: every threshold
   run, and the training profile with its offline-formed regions. *)
let compared_pairs () =
  List.concat_map
    (fun (d : Runner.data) ->
      let avep = d.Runner.avep.Engine.snapshot in
      ( Tpdbt_profiles.Offline_regions.form d.Runner.train.Engine.snapshot,
        avep )
      :: List.map
           (fun (r : Runner.threshold_run) -> (r.Runner.result.Engine.snapshot, avep))
           d.Runner.runs)
    (Lazy.force sweep)

let test_navep_systems_both_ways () =
  let solved = ref 0 in
  List.iter
    (fun (inip, avep) ->
      let sys = Navep.system (Navep.build ~inip ~avep) in
      if Array.length sys.Markov.unknowns > 0 then begin
        incr solved;
        checkb
          (Printf.sprintf "system %d (%d unknowns) solves bit for bit" !solved
             (Array.length sys.Markov.unknowns))
          true
          (sparse_matches_dense sys.Markov.rows sys.Markov.rhs)
      end)
    (compared_pairs ());
  checkb "the sweep duplicates blocks" true (!solved > 100)

(* The propagation Region_prob used to run: the region's edges as a
   graph, their probabilities in a table, [Markov.propagate_acyclic]
   over both. *)
let reference_propagation region ~prob ~with_dummy =
  let nslots = Region.slot_count region in
  let g = Graph.create () in
  for slot = 0 to nslots - 1 do
    Graph.add_node g slot
  done;
  let edge_prob = Hashtbl.create 16 in
  let record src dst p =
    let existing = Option.value ~default:0.0 (Hashtbl.find_opt edge_prob (src, dst)) in
    Hashtbl.replace edge_prob (src, dst) (existing +. p);
    Graph.add_edge g src dst
  in
  let role_prob e =
    Region_prob.edge_probability e.Region.role ~branch_prob:(prob e.Region.src)
  in
  List.iter
    (fun e -> record e.Region.src e.Region.dst (role_prob e))
    region.Region.edges;
  if with_dummy then begin
    Graph.add_node g nslots;
    List.iter
      (fun e -> record e.Region.src nslots (role_prob e))
      region.Region.back_edges
  end;
  let prob_of src dst =
    Option.value ~default:0.0 (Hashtbl.find_opt edge_prob (src, dst))
  in
  match Markov.propagate_acyclic ~graph:g ~prob:prob_of ~entry:0 ~entry_freq:1.0 with
  | Ok freq -> freq
  | Error msg -> Alcotest.fail msg

let test_region_propagation_matches_reference () =
  let checked = ref 0 in
  let bits_equal what expected actual =
    incr checked;
    if not (Int64.equal (Int64.bits_of_float expected) (Int64.bits_of_float actual))
    then Alcotest.failf "%s: reference %h, arrays %h" what expected actual
  in
  List.iter
    (fun (inip, avep) ->
      List.iter
        (fun r ->
          let probs =
            [
              ("frozen", Region.frozen_branch_prob r);
              ("avep", fun slot -> Snapshot.branch_prob avep r.Region.slots.(slot));
            ]
          in
          List.iter
            (fun (label, prob) ->
              let what kind = Printf.sprintf "region %d %s %s" r.Region.id kind label in
              bits_equal (what "completion")
                (Hashtbl.find (reference_propagation r ~prob ~with_dummy:false)
                   (Region.layout r).Region.tail)
                (Region_prob.completion_probability (Region.layout r) ~prob);
              if r.Region.back_edges <> [] then
                bits_equal (what "loop-back")
                  (Hashtbl.find (reference_propagation r ~prob ~with_dummy:true)
                     (Region.slot_count r))
                  (Region_prob.loopback_probability (Region.layout r) ~prob))
            probs)
        inip.Snapshot.regions)
    (compared_pairs ());
  checkb "the sweep forms regions" true (!checked > 1000)

let suite =
  [
    ("matrix basics", `Quick, test_matrix_basics);
    ("matrix of_arrays", `Quick, test_matrix_of_arrays);
    ("matrix mul_vec", `Quick, test_matrix_mul_vec);
    ("matrix identity/swap", `Quick, test_matrix_identity_swap);
    ("gauss simple", `Quick, test_gauss_simple);
    ("gauss pivoting", `Quick, test_gauss_needs_pivoting);
    ("gauss singular", `Quick, test_gauss_singular);
    ("jacobi agrees", `Quick, test_jacobi_agrees);
    ("jacobi zero diag", `Quick, test_jacobi_zero_diag);
    ("residual", `Quick, test_residual);
    ("gauss 1x1", `Quick, test_gauss_1x1);
    ("markov no inflow", `Quick, test_markov_no_inflow_zero);
    ("markov flow conservation", `Quick, test_markov_flow_conservation);
    ("markov paper shape", `Quick, test_markov_solve_paper_shape);
    ("markov cycle", `Quick, test_markov_solve_cycle);
    ("markov mutual unknowns", `Quick, test_markov_mutual_unknowns);
    ("markov all known", `Quick, test_markov_all_known);
    ("propagate fig6", `Quick, test_propagate_acyclic_fig6);
    ("propagate rejects cycle", `Quick, test_propagate_acyclic_rejects_cycle);
    ("propagate unreachable", `Quick, test_propagate_unreachable_zero);
    ("weighted sd formula", `Quick, test_weighted_sd_formula);
    ("weighted sd degenerate", `Quick, test_weighted_sd_degenerate);
    ("weighted mean", `Quick, test_weighted_mean);
    ("mismatch rate", `Quick, test_mismatch_rate);
    ("mean", `Quick, test_mean);
    ( "sparse gauss ties and singularity",
      `Quick,
      test_sparse_gauss_ties_and_singularity );
    ("navep systems solve both ways", `Quick, test_navep_systems_both_ways);
    ( "region propagation matches reference",
      `Quick,
      test_region_propagation_matches_reference );
    QCheck_alcotest.to_alcotest prop_solvers_agree;
    QCheck_alcotest.to_alcotest prop_sparse_gauss_bitwise;
    QCheck_alcotest.to_alcotest prop_sd_bounds;
  ]
