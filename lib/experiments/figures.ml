module Metrics = Tpdbt_profiles.Metrics
module Stats = Tpdbt_numerics.Stats
module Spec = Tpdbt_workloads.Spec
module Engine = Tpdbt_dbt.Engine
module Perf_model = Tpdbt_dbt.Perf_model

let labels data =
  match data with
  | [] -> []
  | d :: _ -> List.map (fun r -> r.Runner.label) d.Runner.runs

let of_suite suite data =
  List.filter (fun d -> d.Runner.bench.Spec.suite = suite) data

(* One row per suite present in [data], "int" then "fp", from the
   suite's members. *)
let suite_rows table data row =
  List.fold_left
    (fun table (name, suite) ->
      match of_suite suite data with
      | [] -> table
      | subset -> Table.add_row table name (row subset))
    table
    [ ("int", `Int); ("fp", `Fp) ]

(* Average a per-run metric over a benchmark subset, per threshold. *)
let averaged_series subset ~metric =
  match subset with
  | [] -> []
  | first :: _ ->
      List.mapi
        (fun i _ ->
          Stats.mean
            (List.filter_map
               (fun d ->
                 match List.nth_opt d.Runner.runs i with
                 | Some run -> Some (metric run.Runner.comparison)
                 | None -> None)
               subset))
        first.Runner.runs

(* -- averages with a train reference column ----------------------------
   Sd.BP and the BP mismatch rate read the flat train comparison
   ("train").  The paper has no train reference for CP and LP (§2.3):
   its INIP(train) has no regions.  We additionally report a "train*"
   column computed by forming regions OFFLINE in the training profile
   (Offline_regions) — the comparison the paper lists as future work. *)

let averaged_with_train data ~title ~train_label ~train ~metric =
  suite_rows
    (Table.make ~title ~columns:(train_label :: labels data))
    data
    (fun subset ->
      Stats.mean (List.map (fun d -> metric (train d)) subset)
      :: averaged_series subset ~metric)

let flat d = d.Runner.train_flat
let offline d = d.Runner.train_regions

let fig8 data =
  averaged_with_train data
    ~title:"Figure 8: standard deviation of branch probabilities (Sd.BP)"
    ~train_label:"train" ~train:flat
    ~metric:(fun c -> c.Metrics.sd_bp)

let fig10 data =
  averaged_with_train data
    ~title:"Figure 10: branch probability mismatch rates"
    ~train_label:"train" ~train:flat
    ~metric:(fun c -> c.Metrics.bp_mismatch)

let fig13 data =
  averaged_with_train data
    ~title:
      "Figure 13: standard deviation of completion probabilities (Sd.CP) \
       [train* = offline-formed regions, a paper future-work extension]"
    ~train_label:"train*" ~train:offline
    ~metric:(fun c -> c.Metrics.sd_cp)

let fig14 data =
  averaged_with_train data
    ~title:
      "Figure 14: standard deviation of loop-back probabilities (Sd.LP) \
       [train* = offline-formed regions, a paper future-work extension]"
    ~train_label:"train*" ~train:offline
    ~metric:(fun c -> c.Metrics.sd_lp)

(* -- per-benchmark tables --------------------------------------------- *)

let per_benchmark data ~suite ~title ~with_train ~metric =
  let table = Table.make ~title ~columns:("train" :: labels data) in
  List.fold_left
    (fun table d ->
      Table.add_row table d.Runner.bench.Spec.name
        ((if with_train then Some (metric d.Runner.train_flat) else None)
        :: List.map (fun r -> Some (metric r.Runner.comparison)) d.Runner.runs))
    table (of_suite suite data)

let fig9 data =
  per_benchmark data ~suite:`Int
    ~title:"Figure 9: Sd.BP per SPEC2000 INT benchmark" ~with_train:true
    ~metric:(fun c -> c.Metrics.sd_bp)

let fig11 data =
  per_benchmark data ~suite:`Int
    ~title:"Figure 11: BP mismatch rates per INT benchmark" ~with_train:true
    ~metric:(fun c -> c.Metrics.bp_mismatch)

let fig12 data =
  per_benchmark data ~suite:`Fp
    ~title:"Figure 12: BP mismatch rates per FP benchmark" ~with_train:true
    ~metric:(fun c -> c.Metrics.bp_mismatch)

let fig15 data =
  suite_rows
    (Table.make
       ~title:"Figure 15: loop-back probability (trip-count range) mismatch rate"
       ~columns:(labels data))
    data
    (averaged_series ~metric:(fun c -> c.Metrics.lp_mismatch))

let fig16 data =
  per_benchmark data ~suite:`Int
    ~title:"Figure 16: loop-back mismatch rate per INT benchmark"
    ~with_train:false
    ~metric:(fun c -> c.Metrics.lp_mismatch)

(* -- performance and overhead ----------------------------------------- *)

let cycles run = run.Runner.result.Engine.counters.Perf_model.cycles

let relative_performance subset =
  match subset with
  | [] -> []
  | _ ->
      List.mapi
        (fun i _ ->
          Stats.mean
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
  suite_rows table data (fun subset ->
      Some 1.0
      :: List.mapi
           (fun i _ ->
             Stats.mean
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
           (List.hd subset).Runner.runs)

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
