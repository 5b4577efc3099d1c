(* Adaptive re-optimisation: the paper's §5 proposal in action.

   "A solution would be to continuously monitor the side exits of each
   region and re-optimize the region when its completion probability
   changes significantly."  (paper §4.2)

   This example translates the phase-changing "mcf" benchmark at the
   paper's sweet-spot threshold twice — as a classic two-phase
   translator and with adaptive region dissolution — and compares
   side-exit behaviour, accuracy against the average profile, and
   model cycles.  Both translators and the average profile ride one
   interpretation of the reference input ([Runner.run_ref_pass]).  It also demonstrates the continuous loop-back
   instrumentation (paper ref [21]): the live loop-back probability of
   surviving loop regions, measured after their counters froze.

   Run with:  dune exec examples/adaptive_reopt.exe *)

module Engine = Tpdbt_dbt.Engine
module Perf_model = Tpdbt_dbt.Perf_model
module Region = Tpdbt_dbt.Region
module Metrics = Tpdbt_profiles.Metrics

let () =
  let bench =
    match Tpdbt_workloads.Suite.find "mcf" with
    | Some b -> b
    | None -> failwith "mcf benchmark missing"
  in
  let avep, runs =
    Tpdbt_experiments.Runner.run_ref_pass bench
      ~configs:
        [
          Engine.config ~threshold:20 ();
          Engine.config ~adaptive:true ~threshold:20 ();
        ]
  in
  let describe name result =
    let c = result.Engine.counters in
    let comparison =
      Metrics.compare_snapshots ~inip:result.Engine.snapshot
        ~avep:avep.Engine.snapshot
    in
    Printf.printf "%-16s cycles %12.0f   side exits %7d / %7d entries   \
                   dissolved %3d   Sd.BP %.3f\n"
      name c.Perf_model.cycles c.Perf_model.side_exits
      c.Perf_model.region_entries c.Perf_model.regions_dissolved
      comparison.Metrics.sd_bp
  in
  let fixed, adaptive =
    match runs with [ f; a ] -> (f, a) | _ -> assert false
  in
  print_endline "mcf at threshold 2k (paper label), fixed vs adaptive:\n";
  describe "fixed" fixed;
  describe "adaptive" adaptive;
  print_endline "\ncontinuous loop-back instrumentation (surviving loop \
                 regions of the adaptive run):";
  Printf.printf "%8s  %10s  %12s  %12s\n" "region" "frozen LP" "live LP"
    "latch visits";
  (* The frozen LP is the INIP side of the region's LP row. *)
  let rows =
    Metrics.rows ~inip:adaptive.Engine.snapshot ~avep:avep.Engine.snapshot
  in
  let frozen_lp id =
    List.find_map
      (fun { Metrics.kind; region; inip; _ } ->
        match (kind, region) with
        | Metrics.Lp, Some r when r.Region.id = id -> inip
        | (Metrics.Bp | Metrics.Cp | Metrics.Lp), _ -> None)
      rows
  in
  List.iter
    (fun (id, stats) ->
      if stats.Engine.loop_back_seen > 200 then
        match frozen_lp id with
        | Some frozen ->
            let live =
              float_of_int stats.Engine.loop_back_taken
              /. float_of_int stats.Engine.loop_back_seen
            in
            Printf.printf "%8d  %10.4f  %12.4f  %12d\n" id frozen live
              stats.Engine.loop_back_seen
        | None -> ())
    adaptive.Engine.region_stats;
  print_endline
    "\nWhere frozen and live LP diverge, the loop's trip count changed \
     after optimisation — exactly the information the paper says the \
     translator needs for advanced loop optimisations (its ref [21])."
