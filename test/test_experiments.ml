(* Tests for the experiment harness: tables, the sweep runner, figure
   generators (on a miniature benchmark so the suite stays fast). *)

module Table = Tpdbt_experiments.Table
module Runner = Tpdbt_experiments.Runner
module Figures = Tpdbt_experiments.Figures
module Spec = Tpdbt_workloads.Spec
module Metrics = Tpdbt_profiles.Metrics
module Engine = Tpdbt_dbt.Engine

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* ------------------------------------------------------------------ *)
(* Table                                                                *)
(* ------------------------------------------------------------------ *)

let sample_table () =
  Table.make ~title:"T" ~columns:[ "a"; "b" ]
  |> fun t ->
  Table.add_row t "row1" [ Some 1.0; Some 2.5 ] |> fun t ->
  Table.add_row t "row2" [ None; Some 0.125 ]

let test_table_render () =
  let text = Table.render ~precision:3 (sample_table ()) in
  checkb "title" true (String.length text > 0);
  checkb "has row1" true
    (String.split_on_char '\n' text |> List.exists (fun l ->
         String.length l >= 4 && String.sub (String.trim l) 0 4 = "row1"));
  checkb "value formatted" true
    (String.split_on_char '\n' text
    |> List.exists (fun l ->
           List.exists (fun w -> w = "2.500") (String.split_on_char ' ' l)))

let test_table_padding () =
  let t = Table.make ~title:"t" ~columns:[ "a"; "b"; "c" ] in
  let t = Table.add_row t "short" [ Some 1.0 ] in
  let t = Table.add_row t "long" [ Some 1.0; Some 2.0; Some 3.0; Some 4.0 ] in
  List.iter
    (fun (_, values) -> checki "3 cells" 3 (List.length values))
    (let { Table.rows; _ } = t in
     rows)

let test_table_csv () =
  let csv = Table.to_csv (sample_table ()) in
  let lines = String.split_on_char '\n' csv in
  checkb "header" true (List.nth lines 1 = ",a,b");
  checkb "row1" true (List.nth lines 2 = "row1,1.000000,2.500000");
  checkb "empty cell" true (List.nth lines 3 = "row2,,0.125000")

let test_table_csv_escaping () =
  let t = Table.make ~title:"a,b \"q\"" ~columns:[ "x" ] in
  let csv = Table.to_csv t in
  checkb "escaped" true
    (String.length csv > 0 && String.get csv 0 = '"')

(* ------------------------------------------------------------------ *)
(* Runner + Figures on a miniature benchmark                            *)
(* ------------------------------------------------------------------ *)

let mini name suite =
  {
    Spec.name;
    suite;
    units =
      [
        Spec.Branch
          { prob = Spec.prob 0.85 ~train:0.6; straight = 2; copies = 2 };
        Spec.Branch
          { prob = Spec.prob 0.2 ~phases:[ (0.2, 0.7) ]; straight = 2; copies = 1 };
        Spec.Loop { trip = Spec.trip 8; jitter = 1; body = 2; copies = 1 };
      ];
    ref_iters = 4000;
    train_iters = 1000;
    ref_seed = 3L;
    train_seed = 4L;
  }

let mini_thresholds = [ ("100", 1); ("1k", 10); ("10k", 100) ]

let mini_sweep =
  lazy
    (fst
       (Runner.run_sweep ~thresholds:mini_thresholds
          [ mini "mini-int" `Int; mini "mini-fp" `Fp ]))

let mini_data = lazy ((Lazy.force mini_sweep).Runner.data)

let test_runner_structure () =
  let data = Lazy.force mini_data in
  checki "two benchmarks" 2 (List.length data);
  List.iter
    (fun d ->
      checki "three runs" 3 (List.length d.Runner.runs);
      checkb "labels" true
        (List.map (fun r -> r.Runner.label) d.Runner.runs = [ "100"; "1k"; "10k" ]);
      checkb "avep has no regions" true
        (d.Runner.avep.Engine.snapshot.Tpdbt_dbt.Snapshot.regions = []);
      checkb "train flat computed" true (d.Runner.train_flat.Metrics.bp_samples > 0);
      List.iter
        (fun run ->
          checkb "comparison has samples" true
            (run.Runner.comparison.Metrics.bp_samples > 0))
        d.Runner.runs)
    data

let test_runner_accuracy_improves () =
  let data = Lazy.force mini_data in
  List.iter
    (fun d ->
      let sd_of i = (List.nth d.Runner.runs i).Runner.comparison.Metrics.sd_bp in
      checkb
        (Printf.sprintf "%s: sd at 10k <= sd at 100 (%.3f vs %.3f)"
           d.Runner.bench.Spec.name (sd_of 2) (sd_of 0))
        true
        (sd_of 2 <= sd_of 0 +. 1e-9))
    data

let test_figures_structure () =
  let data = Lazy.force mini_data in
  let tables = Figures.all data in
  checki "11 figures" 11 (List.length tables);
  List.iter
    (fun (id, table) ->
      checkb (id ^ " renders") true (String.length (Table.render table) > 0))
    tables;
  let fig8 = List.assoc "fig8" tables in
  checki "fig8 rows: int and fp" 2 (List.length fig8.Table.rows);
  checki "fig8 cols: train + thresholds" 4 (List.length fig8.Table.columns);
  let fig9 = List.assoc "fig9" tables in
  checkb "fig9 rows are INT benchmarks" true
    (List.map fst fig9.Table.rows = [ "mini-int" ]);
  (* Figures 13/14 carry the offline-train extension column. *)
  let fig13 = List.assoc "fig13" tables in
  checkb "fig13 train* column" true (List.hd fig13.Table.columns = "train*");
  let fig14 = List.assoc "fig14" tables in
  checkb "fig14 train* column" true (List.hd fig14.Table.columns = "train*")

let test_train_regions_computed () =
  let data = Lazy.force mini_data in
  List.iter
    (fun d ->
      let c = d.Runner.train_regions in
      checkb "offline train comparison has samples" true
        (c.Metrics.bp_samples > 0))
    data

let test_fig17_base_normalised () =
  let data = Lazy.force mini_data in
  let fig17 = Figures.fig17 data in
  List.iter
    (fun (label, values) ->
      match values with
      | Some base :: _ ->
          Alcotest.check (Alcotest.float 1e-9) (label ^ " base = 1") 1.0 base
      | _ -> Alcotest.fail "missing base column")
    fig17.Table.rows

let test_fig18_train_is_one () =
  let data = Lazy.force mini_data in
  let fig18 = Figures.fig18 data in
  List.iter
    (fun (label, values) ->
      match values with
      | Some train :: rest ->
          Alcotest.check (Alcotest.float 1e-9) (label ^ " train = 1") 1.0 train;
          (* Small thresholds use far fewer profiling ops than training. *)
          (match rest with
          | Some t100 :: _ -> checkb "T=100 below train" true (t100 < 1.0)
          | _ -> Alcotest.fail "missing threshold column")
      | _ -> Alcotest.fail "missing train column")
    fig18.Table.rows

let test_fig18_monotone () =
  (* Profiling operations grow with the threshold. *)
  let data = Lazy.force mini_data in
  let fig18 = Figures.fig18 data in
  List.iter
    (fun (_, values) ->
      let vals = List.filter_map Fun.id values in
      match vals with
      | _train :: rest ->
          let rec ascending = function
            | a :: b :: tl -> a <= b +. 1e-9 && ascending (b :: tl)
            | [ _ ] | [] -> true
          in
          checkb "ops ascending in T" true (ascending rest)
      | [] -> Alcotest.fail "no values")
    fig18.Table.rows

let suite =
  [
    ("table render", `Quick, test_table_render);
    ("table padding", `Quick, test_table_padding);
    ("table csv", `Quick, test_table_csv);
    ("table csv escaping", `Quick, test_table_csv_escaping);
    ("runner structure", `Quick, test_runner_structure);
    ("runner accuracy improves", `Quick, test_runner_accuracy_improves);
    ("figures structure", `Quick, test_figures_structure);
    ("train regions computed", `Quick, test_train_regions_computed);
    ("fig17 base normalised", `Quick, test_fig17_base_normalised);
    ("fig18 train is one", `Quick, test_fig18_train_is_one);
    ("fig18 monotone", `Quick, test_fig18_monotone);
  ]
