(* The ledger's metrics, computed from the measured operations
   (end-to-end) or from the spans of a traced run (per layer), and the
   files and lines that report them. *)

module Runner = Tpdbt_experiments.Runner
module Checkpoint = Tpdbt_experiments.Checkpoint
module Host_info = Tpdbt_experiments.Host_info
module Engine = Tpdbt_dbt.Engine
module Perf_model = Tpdbt_dbt.Perf_model
module Navep = Tpdbt_profiles.Navep
module Json = Tpdbt_telemetry.Json
open Ops

type metric = { name : string; unit_ : string; value : float }

let metric name unit_ value = { name; unit_; value }

(* [(k, sum of value x)] over the [xs] sharing each key [k = key x]. *)
let group key value xs =
  let sums = Hashtbl.create 64 in
  List.iter
    (fun x ->
      let k = key x in
      let sofar = Option.value ~default:0.0 (Hashtbl.find_opt sums k) in
      Hashtbl.replace sums k (sofar +. value x))
    xs;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) sums []

(* Times are scaled to the reference speed ({!Meter}).  The peak
   resident set is taken per operation and reported as its median: the
   peak over a whole run is the single worst operation, and which pair
   that is depends on the seed.  On serve it is the median over the
   sweep requests, the daemon's heaviest: at a lighter request the peak
   is the garbage the daemon happens to hold, which depends on how its
   heap grew earlier in the run. *)
let end_to_end workload ~setup ~(samples : sample list) =
  let secs = List.map (fun s -> s.secs) samples in
  let n = float_of_int (List.length samples) in
  let heaviest =
    if workload = Serve then List.filter (fun s -> s.cls = "sweep") samples
    else samples
  in
  [
    metric "setup_s" "s" (Sample.median setup);
    metric "op_p50_ms" "ms" (1000.0 *. Sample.median secs);
    metric "ops_per_s" "1/s" (n /. Sample.sum secs);
    metric "peak_rss_mb" "MB"
      (Sample.median (List.map (fun s -> s.rss) heaviest));
  ]

(* Behaviour counts of [pair]: deterministic, so a change that claims
   only speed must leave them unchanged. *)
type behaviour = {
  regions : float;
  completion : float;
  navep_nodes : float;
  ckpt_bytes : float;
}

let behaviour pair =
  let data = (Runner.run_many ~max_steps:Inputs.max_steps pair).Runner.data in
  let runs = List.concat_map (fun (d : Runner.data) -> d.Runner.runs) data in
  let total f =
    Sample.sum
      (List.map
         (fun (r : Runner.threshold_run) ->
           float_of_int (f r.Runner.result.Engine.counters))
         runs)
  in
  let nodes (d : Runner.data) =
    List.map
      (fun (r : Runner.threshold_run) ->
        float_of_int
          (List.length
             (Navep.copies
                (Navep.build ~inip:r.Runner.result.Engine.snapshot
                   ~avep:d.Runner.avep.Engine.snapshot))))
      d.Runner.runs
  in
  {
    regions = total (fun c -> c.Perf_model.regions_formed);
    completion =
      total (fun c -> c.Perf_model.region_completions)
      /. total (fun c -> c.Perf_model.region_entries);
    navep_nodes = Sample.sum (List.concat_map nodes data);
    ckpt_bytes =
      Sample.mean
        (List.map
           (fun d -> float_of_int (String.length (Checkpoint.data_to_string d)))
           data);
  }

let per_layer env ~(samples : sample list) b =
  let spans = Trace.all () in
  let named name = List.filter (fun s -> s.Trace.name = name) spans in
  let durs name = List.map Trace.duration (named name) in
  let ms name = 1000.0 *. Sample.median (durs name) in
  let attrs name k = List.filter_map (fun s -> Trace.attr s k) (named name) in
  let sum_attr k l = Sample.sum (List.filter_map (fun s -> Trace.attr s k) l) in
  let median_attr ?(scale = 1.0) name k =
    scale *. Sample.median (attrs name k)
  in
  let mips name =
    Sample.sum (attrs name "instrs") /. Sample.sum (durs name) /. 1e6
  in
  (* a durable stage runs in one [Engine.run] call per snapshot: its
     time is their sum *)
  let stage_ms name =
    let stage s = (s.Trace.trace, s.Trace.parent, Trace.attr s "stage") in
    1000.0
    *. Sample.median (List.map snd (group stage Trace.duration (named name)))
  in
  let per_trace name =
    let trace s = s.Trace.trace in
    Sample.median (List.map snd (group trace (fun _ -> 1.0) (named name)))
  in
  let runs = named "dbt.profile" @ named "dbt.twophase" in
  let run_time = Sample.sum (List.map Trace.duration runs) in
  let main_runs = List.filter (fun s -> s.Trace.domain = 0) runs in
  let overhead =
    let pick traced =
      List.filter_map
        (fun s ->
          let comparable = env.opts.workload <> Serve || s.cls = "run_miss" in
          if s.traced = traced && comparable then Some s.secs else None)
        samples
    in
    (Sample.median (pick true) /. Sample.median (pick false)) -. 1.0
  in
  let hits, misses, records =
    Option.value env.serve_status ~default:(nan, nan, nan)
  in
  let per_call s =
    Trace.duration s /. Option.value ~default:1.0 (Trace.attr s "calls")
  in
  [
    metric "vm.interp_mips" "Minstr/s" (mips "vm.interp");
    metric "dbt.create_ms" "ms" (ms "dbt.create");
    metric "dbt.profile_mips" "Minstr/s" (mips "dbt.profile");
    metric "dbt.profile_ms" "ms" (stage_ms "dbt.profile");
    metric "dbt.twophase_mips" "Minstr/s" (mips "dbt.twophase");
    metric "dbt.twophase_ms" "ms" (stage_ms "dbt.twophase");
    metric "dbt.ns_per_model_cycle" "ns/cycle"
      (1e9 *. run_time /. sum_attr "cycles" runs);
    metric "dbt.alloc_words_per_instr" "words/instr"
      (sum_attr "words" main_runs /. sum_attr "instrs" main_runs);
    metric "dbt.model_wall_spearman" "ratio"
      (Sample.spearman
         (List.filter_map
            (fun s ->
              Option.map
                (fun c -> (c, Trace.duration s))
                (Trace.attr s "cycles"))
            main_runs));
    metric "dbt.regions_formed" "count" b.regions;
    metric "dbt.region_completion_ratio" "ratio" b.completion;
    metric "workloads.build_ms" "ms" (ms "workloads.build");
    metric "profiles.compare_ms" "ms" (ms "profiles.compare");
    metric "profiles.navep_ms" "ms" (ms "profiles.navep");
    metric "profiles.offline_regions_ms" "ms" (ms "profiles.offline_regions");
    metric "profiles.navep_nodes" "count" b.navep_nodes;
    metric "experiments.assemble_ms" "ms" (ms "experiments.assemble");
    metric "experiments.figures_ms" "ms" (ms "experiments.figures");
    metric "persist.ckpt_encode_ms" "ms" (ms "persist.ckpt_encode");
    metric "persist.ckpt_bytes" "bytes" b.ckpt_bytes;
    metric "persist.ckpt_save_ms" "ms" (ms "persist.ckpt_save");
    metric "persist.ckpt_load_ms" "ms" (1000.0 *. Sample.median env.load_net);
    metric "persist.snap_capture_ms" "ms" (ms "persist.snap_capture");
    metric "persist.snap_encode_ms" "ms" (ms "persist.snap_encode");
    metric "persist.snap_bytes" "bytes"
      (median_attr "persist.snap_encode" "bytes");
    metric "persist.snap_save_ms" "ms" (ms "persist.snap_save");
    metric "persist.snap_count" "count" (per_trace "persist.snap_save");
    metric "parallel.speedup" "ratio" (median_attr "parallel.map" "speedup");
    metric "parallel.idle_ms" "ms"
      (median_attr ~scale:1000.0 "parallel.map" "idle_s");
    metric "parallel.task_max_ms" "ms"
      (median_attr ~scale:1000.0 "parallel.map" "task_max_s");
    metric "parallel.overhead_ms" "ms"
      (median_attr ~scale:1000.0 "parallel.map" "overhead_s");
    metric "serve.probe_p50_ms" "ms" (ms "serve.probe");
    metric "serve.run_hit_p50_ms" "ms" (ms "serve.run_hit");
    metric "serve.run_miss_p50_ms" "ms" (ms "serve.run_miss");
    metric "serve.translate_p50_ms" "ms" (ms "serve.translate");
    metric "serve.sweep_p50_ms" "ms" (ms "serve.sweep");
    metric "serve.warm_hit_ratio" "ratio" (hits /. (hits +. misses));
    metric "serve.parse_us" "us"
      (1e6 *. Sample.median (List.map per_call (named "serve.parse")));
    metric "serve.journal_records" "count" records;
    metric "bench.trace_overhead" "ratio" overhead;
  ]

(* Self time per call ([layer.call]) over the run's own traced
   operations, so that [dbt.create] and [dbt.twophase] show apart. *)
let self_times env =
  let own = List.filter (fun s -> List.mem s.Trace.trace env.own) in
  List.sort compare
    (group
       (fun (s, _) -> s.Trace.name)
       snd
       (Trace.self_times (own (Trace.all ()))))

(* ---- output ------------------------------------------------------------ *)

let metrics_json metrics =
  Json.obj
    (List.map
       (fun m ->
         ( m.name,
           Json.obj
             [ ("value", Json.number m.value); ("unit", Json.quote m.unit_) ] ))
       metrics)

let quartiles xs =
  Json.obj
    [
      ("n", string_of_int (List.length xs));
      ("p25", Json.number (Sample.quantile xs 0.25));
      ("p50", Json.number (Sample.quantile xs 0.5));
      ("p75", Json.number (Sample.quantile xs 0.75));
    ]

(* BENCH_<workload>.json: the host, the run's parameters, the set-up
   samples, the quartiles of the scaled operation times (all and per
   request class), of the measured ones and of the host-speed readings,
   the metrics, the gate's verdict and (traced) the self time of each
   layer. *)
let bench_json env ~setup ~samples ~metrics ~self =
  let ms_of cls =
    List.filter_map
      (fun s ->
        if cls = None || cls = Some s.cls then Some (1000.0 *. s.secs)
        else None)
      samples
  in
  let all_ms f = quartiles (List.map (fun s -> 1000.0 *. f s) samples) in
  let class_ms c = (c, quartiles (ms_of (Some c))) in
  let classes = List.sort_uniq compare (List.map (fun s -> s.cls) samples) in
  let total = Sample.sum (List.map snd self) in
  Json.obj
    [
      ("host", Host_info.to_json (Host_info.capture ()));
      ("workload", Json.quote (workload_name env.opts.workload));
      ("seed", string_of_int env.opts.seed);
      ("seconds", Json.number env.opts.seconds);
      ("trace", string_of_bool env.opts.trace);
      ("setup_s", Json.arr (List.map Json.number setup));
      ("op_ms", quartiles (ms_of None));
      ("op_measured_ms", all_ms (fun s -> s.raw));
      ("meter_ms", all_ms (fun s -> s.meter));
      ("classes_ms", Json.obj (List.map class_ms classes));
      ("metrics", metrics_json metrics);
      ( "gate",
        Json.obj
          [
            ("correct", string_of_bool (env.gate.Gate.errors = []));
            ("errors", Json.arr (List.rev_map Json.quote env.gate.Gate.errors));
          ] );
      ( "self_s",
        Json.obj
          (List.map
             (fun (l, v) ->
               ( l,
                 Json.obj
                   [
                     ("seconds", Json.number v);
                     ("share", Json.number (v /. total));
                   ] ))
             self) );
    ]
