module Engine = Tpdbt_dbt.Engine
module Perf_model = Tpdbt_dbt.Perf_model
module Metrics = Tpdbt_profiles.Metrics
module Stats = Tpdbt_numerics.Stats
module Suite = Tpdbt_workloads.Suite

let default_benchmarks = [ "gzip"; "mcf"; "perlbmk"; "crafty"; "swim"; "wupwise" ]

(* Threshold: the paper's sweet spot, label 2k (scaled 20). *)
let sweet_spot = 20

let metric_columns =
  [ "Sd.BP"; "Sd.CP"; "Sd.LP"; "side-exit rate"; "dissolved"; "cycles (rel)" ]

let resolve names =
  List.filter_map
    (fun name ->
      match Suite.find name with
      | Some b -> Some b
      | None -> invalid_arg ("Ablations: unknown benchmark " ^ name))
    names

(* Run every (variant, benchmark) pair; produce one row per variant with
   benchmark-averaged metrics and cycles relative to the first variant. *)
let study ~title ~variants ~benchmarks =
  let benches = resolve benchmarks in
  (* One pass per benchmark: its AVEP and every variant are models of
     one group over the reference input. *)
  let passes =
    List.map
      (fun b -> Runner.run_ref_pass b ~configs:(List.map snd variants))
      benches
  in
  let measured =
    List.mapi
      (fun v (name, _) ->
        let per_bench =
          List.map
            (fun (avep, results) ->
              let result = List.nth results v in
              let comparison =
                Metrics.compare_snapshots ~inip:result.Engine.snapshot
                  ~avep:avep.Engine.snapshot
              in
              (result, avep, comparison))
            passes
        in
        (name, per_bench))
      variants
  in
  let base_cycles =
    match measured with
    | (_, per_bench) :: _ ->
        List.map
          (fun ((result : Engine.result), _, _) ->
            result.Engine.counters.Perf_model.cycles)
          per_bench
    | [] -> []
  in
  List.fold_left
    (fun table (name, per_bench) ->
      let comparisons : Metrics.comparison list =
        List.map (fun (_, _, c) -> c) per_bench
      in
      let results = List.map (fun (r, _, _) -> r) per_bench in
      let average metric = Stats.mean (List.map metric comparisons) in
      let sd_bp = average (fun (c : Metrics.comparison) -> c.Metrics.sd_bp) in
      let sd_cp = average (fun c -> c.Metrics.sd_cp) in
      let sd_lp = average (fun c -> c.Metrics.sd_lp) in
      let side_exit_rate =
        Stats.mean
          (List.map
             (fun (r : Engine.result) ->
               let entries = r.Engine.counters.Perf_model.region_entries in
               if entries = 0 then 0.0
               else
                 float_of_int r.Engine.counters.Perf_model.side_exits
                 /. float_of_int entries)
             results)
      in
      let dissolved =
        Stats.mean
          (List.map
             (fun (r : Engine.result) ->
               float_of_int r.Engine.counters.Perf_model.regions_dissolved)
             results)
      in
      let rel_cycles =
        Stats.mean
          (List.map2
             (fun (r : Engine.result) base ->
               let c = r.Engine.counters.Perf_model.cycles in
               if c > 0.0 then base /. c else 0.0)
             results base_cycles)
      in
      Table.add_row table name
        [ sd_bp; sd_cp; sd_lp; side_exit_rate; dissolved; rel_cycles ])
    (Table.make ~title ~columns:metric_columns)
    measured

let base_config = Engine.config ~threshold:sweet_spot ()

let region_formation ?(benchmarks = default_benchmarks) () =
  study
    ~title:
      "Ablation: region formation mechanisms (threshold = paper 2k; cycles \
       relative to the full former)"
    ~variants:
      [
        ("full former", base_config);
        ("no duplication", { base_config with Engine.enable_duplication = false });
        ("no diamonds", { base_config with Engine.enable_diamonds = false });
        ("inlined calls", { base_config with Engine.regions_across_calls = true });
        ("singleton regions", { base_config with Engine.max_region_slots = 1 });
      ]
    ~benchmarks

let min_branch_prob ?(benchmarks = default_benchmarks) () =
  study
    ~title:
      "Ablation: minimum branch probability for trace growing (paper uses \
       0.7)"
    ~variants:
      (List.map
         (fun p ->
           ( Printf.sprintf "min prob %.2f" p,
             { base_config with Engine.min_branch_prob = p } ))
         [ 0.5; 0.6; 0.7; 0.85; 0.95 ])
    ~benchmarks

let pool_trigger ?(benchmarks = default_benchmarks) () =
  study
    ~title:"Ablation: candidate-pool trigger size (IA32EL-style batching)"
    ~variants:
      (List.map
         (fun n ->
           (Printf.sprintf "pool %d" n, { base_config with Engine.pool_trigger = n }))
         [ 1; 4; 16; 64; 256 ])
    ~benchmarks

let scheduling ?(benchmarks = default_benchmarks) () =
  study
    ~title:
      "Ablation: per-block vs trace scheduling of optimised regions \
       (latency overlap across region edges)"
    ~variants:
      [
        ("per-block", base_config);
        ("trace-pipelined", { base_config with Engine.trace_scheduling = true });
      ]
    ~benchmarks

let adaptive ?(benchmarks = [ "gzip"; "mcf"; "wupwise" ]) () =
  study
    ~title:
      "Extension: adaptive region dissolution on phase-changing benchmarks \
       (paper \xc2\xa75 future work)"
    ~variants:
      [
        ("fixed two-phase", base_config);
        ("adaptive", { base_config with Engine.adaptive = true });
        ( "adaptive, eager",
          {
            base_config with
            Engine.adaptive = true;
            reopt_side_exit_rate = 0.15;
            reopt_min_entries = 32;
          } );
      ]
    ~benchmarks

let all ?benchmarks () =
  [
    ("region-formation", fun () -> region_formation ?benchmarks ());
    ("min-branch-prob", fun () -> min_branch_prob ?benchmarks ());
    ("pool-trigger", fun () -> pool_trigger ?benchmarks ());
    ("scheduling", fun () -> scheduling ?benchmarks ());
    ("adaptive", fun () -> adaptive ());
  ]
