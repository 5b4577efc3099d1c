module Metrics = Tpdbt_profiles.Metrics
module Spec = Tpdbt_workloads.Spec
module Engine = Tpdbt_dbt.Engine
module Perf_model = Tpdbt_dbt.Perf_model

let labels data =
  match data with
  | [] -> []
  | d :: _ -> List.map (fun r -> r.Runner.label) d.Runner.runs

let of_suite suite data =
  List.filter (fun d -> d.Runner.bench.Spec.suite = suite) data

let mean = function
  | [] -> None
  | l -> Some (List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l))

(* Average a per-run metric over a benchmark subset, per threshold. *)
let averaged_series subset ~metric =
  match subset with
  | [] -> []
  | first :: _ ->
      List.mapi
        (fun i _ ->
          mean
            (List.filter_map
               (fun d ->
                 match List.nth_opt d.Runner.runs i with
                 | Some run -> Some (metric run)
                 | None -> None)
               subset))
        first.Runner.runs

let train_column subset ~metric =
  mean (List.map (fun d -> metric d.Runner.train_flat) subset)

(* -- Sd.BP / mismatch averages with a train reference column ---------- *)

let averaged_with_train data ~title ~run_metric ~train_metric =
  let cols = "train" :: labels data in
  let table = Table.make ~title ~columns:cols in
  List.fold_left
    (fun table (name, suite) ->
      let subset = of_suite suite data in
      if subset = [] then table
      else
        Table.add_row table name
          (train_column subset ~metric:train_metric
          :: averaged_series subset ~metric:run_metric))
    table
    [ ("int", `Int); ("fp", `Fp) ]

let fig8 data =
  averaged_with_train data
    ~title:"Figure 8: standard deviation of branch probabilities (Sd.BP)"
    ~run_metric:(fun r -> r.Runner.comparison.Metrics.sd_bp)
    ~train_metric:(fun (f : Metrics.flat) -> f.Metrics.sd_bp)

let fig10 data =
  averaged_with_train data
    ~title:"Figure 10: branch probability mismatch rates"
    ~run_metric:(fun r -> r.Runner.comparison.Metrics.bp_mismatch)
    ~train_metric:(fun (f : Metrics.flat) -> f.Metrics.bp_mismatch)

(* -- per-benchmark tables --------------------------------------------- *)

let per_benchmark data ~suite ~title ~run_metric ~train_metric =
  let cols = "train" :: labels data in
  let table = Table.make ~title ~columns:cols in
  List.fold_left
    (fun table d ->
      let train =
        match train_metric with
        | Some metric -> Some (metric d.Runner.train_flat)
        | None -> None
      in
      Table.add_row table d.Runner.bench.Spec.name
        (train :: List.map (fun r -> Some (run_metric r)) d.Runner.runs))
    table (of_suite suite data)

let fig9 data =
  per_benchmark data ~suite:`Int
    ~title:"Figure 9: Sd.BP per SPEC2000 INT benchmark"
    ~run_metric:(fun r -> r.Runner.comparison.Metrics.sd_bp)
    ~train_metric:(Some (fun (f : Metrics.flat) -> f.Metrics.sd_bp))

let fig11 data =
  per_benchmark data ~suite:`Int
    ~title:"Figure 11: BP mismatch rates per INT benchmark"
    ~run_metric:(fun r -> r.Runner.comparison.Metrics.bp_mismatch)
    ~train_metric:(Some (fun (f : Metrics.flat) -> f.Metrics.bp_mismatch))

let fig12 data =
  per_benchmark data ~suite:`Fp
    ~title:"Figure 12: BP mismatch rates per FP benchmark"
    ~run_metric:(fun r -> r.Runner.comparison.Metrics.bp_mismatch)
    ~train_metric:(Some (fun (f : Metrics.flat) -> f.Metrics.bp_mismatch))

(* -- CP / LP averages --------------------------------------------------
   The paper has no train reference here (§2.3): its INIP(train) has no
   regions.  We additionally report a "train*" column computed by
   forming regions OFFLINE in the training profile (Offline_regions) —
   the comparison the paper lists as future work. *)

let averaged_cp_lp data ~title ~run_metric ~train_metric =
  let table = Table.make ~title ~columns:("train*" :: labels data) in
  List.fold_left
    (fun table (name, suite) ->
      let subset = of_suite suite data in
      if subset = [] then table
      else
        let train =
          mean (List.map (fun d -> train_metric d.Runner.train_regions) subset)
        in
        Table.add_row table name
          (train :: averaged_series subset ~metric:run_metric))
    table
    [ ("int", `Int); ("fp", `Fp) ]

let fig13 data =
  averaged_cp_lp data
    ~title:
      "Figure 13: standard deviation of completion probabilities (Sd.CP) \
       [train* = offline-formed regions, a paper future-work extension]"
    ~run_metric:(fun r -> r.Runner.comparison.Metrics.sd_cp)
    ~train_metric:(fun c -> c.Metrics.sd_cp)

let fig14 data =
  averaged_cp_lp data
    ~title:
      "Figure 14: standard deviation of loop-back probabilities (Sd.LP) \
       [train* = offline-formed regions, a paper future-work extension]"
    ~run_metric:(fun r -> r.Runner.comparison.Metrics.sd_lp)
    ~train_metric:(fun c -> c.Metrics.sd_lp)

let fig15 data =
  let table =
    Table.make
      ~title:"Figure 15: loop-back probability (trip-count range) mismatch rate"
      ~columns:(labels data)
  in
  List.fold_left
    (fun table (name, suite) ->
      let subset = of_suite suite data in
      if subset = [] then table
      else
        Table.add_row table name
          (averaged_series subset ~metric:(fun r ->
               r.Runner.comparison.Metrics.lp_mismatch)))
    table
    [ ("int", `Int); ("fp", `Fp) ]

let fig16 data =
  per_benchmark data ~suite:`Int
    ~title:"Figure 16: loop-back mismatch rate per INT benchmark"
    ~run_metric:(fun r -> r.Runner.comparison.Metrics.lp_mismatch)
    ~train_metric:None

(* -- performance and overhead ----------------------------------------- *)

let cycles run = run.Runner.result.Engine.counters.Perf_model.cycles

let relative_performance subset =
  match subset with
  | [] -> []
  | _ ->
      List.mapi
        (fun i _ ->
          mean
            (List.filter_map
               (fun d ->
                 match (d.Runner.runs, List.nth_opt d.Runner.runs i) with
                 | base :: _, Some run ->
                     let b = cycles base and c = cycles run in
                     if c > 0.0 then Some (b /. c) else None
                 | ([] | _ :: _), (Some _ | None) -> None)
               subset))
        (List.hd subset).Runner.runs

let fig17 data =
  let table =
    Table.make
      ~title:
        "Figure 17: relative performance vs retranslation threshold (base = \
         smallest threshold; higher is better)"
      ~columns:(labels data)
  in
  let int_data = of_suite `Int data in
  let no_perl =
    List.filter (fun d -> d.Runner.bench.Spec.name <> "perlbmk") int_data
  in
  let fp_data = of_suite `Fp data in
  let add table name subset =
    if subset = [] then table
    else Table.add_row table name (relative_performance subset)
  in
  let table = add table "int" int_data in
  let table = add table "int no perl" no_perl in
  add table "fp" fp_data

let fig18 data =
  let table =
    Table.make
      ~title:
        "Figure 18: profiling operations, normalised to the training run"
      ~columns:("train" :: labels data)
  in
  let series subset =
    match subset with
    | [] -> []
    | _ ->
        Some 1.0
        :: List.mapi
             (fun i _ ->
               mean
                 (List.filter_map
                    (fun d ->
                      let train_ops =
                        float_of_int d.Runner.train.Engine.profiling_ops
                      in
                      match List.nth_opt d.Runner.runs i with
                      | Some run when train_ops > 0.0 ->
                          Some
                            (float_of_int run.Runner.result.Engine.profiling_ops
                            /. train_ops)
                      | Some _ | None -> None)
                    subset))
             (List.hd subset).Runner.runs
  in
  List.fold_left
    (fun table (name, suite) ->
      let subset = of_suite suite data in
      if subset = [] then table else Table.add_row table name (series subset))
    table
    [ ("int", `Int); ("fp", `Fp) ]

(* Not part of [all]: the cache sweep runs bounded configurations the
   paper's figures 8-18 never use, so it is produced only on demand
   (the [cache] subcommand / bench harness). *)
let cache_sweep (sweeps : Runner.cache_data list) =
  let columns =
    match sweeps with
    | [] -> []
    | s :: _ ->
        let fracs =
          List.sort_uniq compare
            (List.map (fun p -> p.Runner.frac) s.Runner.points)
        in
        List.map (fun f -> Printf.sprintf "%g" f) fracs
  in
  let table =
    Table.make
      ~title:
        "Cache-size sweep: cycles relative to an unbounded cache \
         (rows bench/policy, columns capacity as a fraction of the \
         translated footprint)"
      ~columns
  in
  List.fold_left
    (fun table (s : Runner.cache_data) ->
      let base = s.Runner.baseline.Engine.counters.Perf_model.cycles in
      let policies =
        List.sort_uniq compare
          (List.map (fun p -> p.Runner.policy) s.Runner.points)
      in
      List.fold_left
        (fun table policy ->
          let row =
            List.filter_map
              (fun (p : Runner.cache_point) ->
                if p.Runner.policy <> policy then None
                else if base > 0.0 then
                  Some
                    (Some
                       (p.Runner.bounded.Engine.counters.Perf_model.cycles
                      /. base))
                else Some None)
              s.Runner.points
          in
          Table.add_row table
            (Printf.sprintf "%s/%s"
               s.Runner.cache_bench.Tpdbt_workloads.Spec.name
               (Tpdbt_dbt.Code_cache.policy_name policy))
            row)
        table policies)
    table sweeps

let all data =
  [
    ("fig8", fig8 data);
    ("fig9", fig9 data);
    ("fig10", fig10 data);
    ("fig11", fig11 data);
    ("fig12", fig12 data);
    ("fig13", fig13 data);
    ("fig14", fig14 data);
    ("fig15", fig15 data);
    ("fig16", fig16 data);
    ("fig17", fig17 data);
    ("fig18", fig18 data);
  ]
