(* Benchmark harness: regenerates every figure of the paper's evaluation
   (Figures 8-18) from a full threshold sweep over the synthetic
   SPEC2000 suite, prints the worked examples of Figures 5-7, and then
   runs Bechamel micro-benchmarks — one Test.make per figure (the cost
   of regenerating that figure's analysis from the sweep data) plus the
   core computational kernels.

   Usage:  dune exec bench/main.exe                    (full run, ~10 minutes)
           dune exec bench/main.exe -- --quick         (3 benchmarks only)
           dune exec bench/main.exe -- --no-micro      (skip Bechamel part)
           dune exec bench/main.exe -- --no-ablations  (skip design studies)
           dune exec bench/main.exe -- --jobs 4        (parallel sweep domains)
           dune exec bench/main.exe -- --par-bench     (parallel-scaling run
                                                        only; writes
                                                        BENCH_parallel.json)
           dune exec bench/main.exe -- --perf-bench    (wall-clock/allocation
                                                        perf run only; writes
                                                        BENCH_perf.json) *)

module Suite = Tpdbt_workloads.Suite
module Runner = Tpdbt_experiments.Runner
module Figures = Tpdbt_experiments.Figures
module Table = Tpdbt_experiments.Table
module Region = Tpdbt_dbt.Region
module Region_prob = Tpdbt_profiles.Region_prob
module Stats = Tpdbt_numerics.Stats

(* ------------------------------------------------------------------ *)
(* Worked examples (Figures 5-7)                                        *)
(* ------------------------------------------------------------------ *)

let mk_region ?(kind = Region.Trace) ?(edges = []) ?(back_edges = []) n =
  {
    Region.id = 0;
    kind;
    slots = Array.init n (fun i -> i);
    edges;
    back_edges;
    frozen_use = Array.make n 0;
    frozen_taken = Array.make n 0;
  }

let worked_examples () =
  print_endline "Worked examples (paper Figures 5-7)";
  print_endline "-----------------------------------";
  let fig6 =
    mk_region 4
      ~edges:
        [
          { Region.src = 0; dst = 1; role = Region.Taken };
          { Region.src = 0; dst = 2; role = Region.Not_taken };
          { Region.src = 1; dst = 3; role = Region.Taken };
          { Region.src = 2; dst = 3; role = Region.Taken };
        ]
  in
  let prob6 = function 0 -> Some 0.4 | 1 -> Some 0.8 | 2 -> Some 0.9 | _ -> None in
  Printf.printf "Fig 6 completion probability: %.3f (paper: 0.86)\n"
    (Region_prob.completion_probability (Region.layout fig6) ~prob:prob6);
  let fig7 =
    mk_region ~kind:Region.Loop 4
      ~edges:
        [
          { Region.src = 0; dst = 1; role = Region.Taken };
          { Region.src = 0; dst = 2; role = Region.Not_taken };
          { Region.src = 2; dst = 3; role = Region.Taken };
        ]
      ~back_edges:
        [
          { Region.src = 1; dst = 0; role = Region.Taken };
          { Region.src = 3; dst = 0; role = Region.Taken };
        ]
  in
  let prob7 = function
    | 0 -> Some 0.6
    | 1 -> Some 0.9
    | 2 -> Some 0.95
    | 3 -> Some 0.9
    | _ -> None
  in
  Printf.printf
    "Fig 7 loop-back probability:  %.3f (paper prints 0.886; its own \
     products sum to 0.882)\n"
    (Region_prob.loopback_probability (Region.layout fig7) ~prob:prob7);
  let sd_bp =
    Stats.weighted_sd
      [
        { Stats.predicted = 0.88; actual = 0.65; weight = 1000.0 };
        { Stats.predicted = 0.977; actual = 0.90; weight = 44000.0 };
        { Stats.predicted = 0.88; actual = 0.70; weight = 43000.0 };
        { Stats.predicted = 0.88; actual = 0.20; weight = 6000.0 };
        { Stats.predicted = 0.5; actual = 0.5; weight = 1000.0 };
        { Stats.predicted = 0.9; actual = 0.9; weight = 6000.0 };
      ]
  in
  Printf.printf "Fig 5 Sd.BP: %.2f (paper: 0.21)\n" sd_bp;
  let sd_lp =
    Stats.weighted_sd
      [
        { Stats.predicted = 0.977 *. 0.88; actual = 0.90 *. 0.70; weight = 44000.0 };
        { Stats.predicted = 0.12; actual = 0.80; weight = 6000.0 };
      ]
  in
  Printf.printf
    "Fig 5 Sd.LP: %.2f by its formula (paper prints 0.27 from an \
     inconsistent intermediate)\n"
    sd_lp;
  Printf.printf "Fig 5 Sd.CP: %.2f (paper: 0)\n\n"
    (Stats.weighted_sd
       [ { Stats.predicted = 1.0; actual = 1.0; weight = 1000.0 } ])

(* ------------------------------------------------------------------ *)
(* Figure sweep                                                         *)
(* ------------------------------------------------------------------ *)

let results_dir = "results"

let write_csv id table =
  if not (Sys.file_exists results_dir) then Sys.mkdir results_dir 0o755;
  let path = Filename.concat results_dir (id ^ ".csv") in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Table.to_csv table))

let run_sweep ~quick ~jobs =
  let benches =
    if quick then List.filter_map Suite.find [ "gzip"; "mcf"; "swim" ]
    else Suite.all
  in
  Printf.eprintf "running the threshold sweep over %d benchmarks (%d jobs)...\n%!"
    (List.length benches) jobs;
  let t0 = Unix.gettimeofday () in
  let sweep, supervision =
    Runner.run_sweep ~jobs
      ~progress:(fun n status ->
        Printf.eprintf "  %s (%s)\n%!" n (Runner.status_name status))
      benches
  in
  let s = supervision.Runner.sup in
  if jobs > 1 then
    Printf.eprintf "  parallel: %d jobs, speedup %.2fx\n%!"
      s.Tpdbt_parallel.Supervisor.jobs
      (s.Tpdbt_parallel.Supervisor.busy /. s.Tpdbt_parallel.Supervisor.elapsed);
  List.iter
    (fun { Runner.failed; error } ->
      Printf.eprintf "  failed %s: %s\n%!" failed.Tpdbt_workloads.Spec.name
        (Tpdbt_dbt.Error.to_string error))
    sweep.Runner.failures;
  Printf.eprintf "sweep done in %.1fs\n%!" (Unix.gettimeofday () -. t0);
  sweep.Runner.data

let print_figures data =
  List.iter
    (fun (id, table) ->
      print_endline id;
      Table.print ~precision:3 table;
      print_newline ();
      write_csv id table)
    (Figures.all data)

(* ------------------------------------------------------------------ *)
(* Cache-size axis (bounded code cache, Fig-17-style)                   *)
(* ------------------------------------------------------------------ *)

(* Bounded runs thrash by design, so this axis sweeps the two cheap
   benchmarks only — the full-suite version is `tpdbt cache`. *)
let cache_axis () =
  print_endline "Cache-size axis (cycles vs unbounded cache)";
  print_endline "-------------------------------------------";
  let benches = List.filter_map Suite.find [ "gzip"; "perlbmk" ] in
  let t0 = Unix.gettimeofday () in
  let sweeps =
    List.map (fun b -> Runner.run_cache_sweep ~fracs:[ 0.25; 0.5; 1.0 ] b)
      benches
  in
  let table = Figures.cache_sweep sweeps in
  Table.print ~precision:3 table;
  write_csv "cache-sweep" table;
  Printf.eprintf "cache axis done in %.1fs\n%!" (Unix.gettimeofday () -. t0);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Parallel scaling (BENCH_parallel.json)                               *)
(* ------------------------------------------------------------------ *)

(* Times the same sweep at -j 1/2/4 and records wall seconds + speedup.
   Each pass also checksums the serialized sweep data, so the scaling
   run doubles as a determinism guard: any cross-job divergence fails
   the bench before it writes numbers. *)
let parallel_bench ~quick () =
  let module Json = Tpdbt_telemetry.Json in
  let module Checkpoint = Tpdbt_experiments.Checkpoint in
  print_endline "Parallel sweep scaling";
  print_endline "----------------------";
  let benches =
    if quick then List.filter_map Suite.find [ "gzip"; "swim" ] else Suite.all
  in
  let job_counts = [ 1; 2; 4 ] in
  let measure jobs =
    Printf.eprintf "  sweep at -j %d...\n%!" jobs;
    let t0 = Unix.gettimeofday () in
    let sweep, _ = Runner.run_sweep ~jobs benches in
    let seconds = Unix.gettimeofday () -. t0 in
    List.iter
      (fun { Runner.failed; error } ->
        Printf.eprintf "  failed %s: %s\n%!" failed.Tpdbt_workloads.Spec.name
          (Tpdbt_dbt.Error.to_string error))
      sweep.Runner.failures;
    let checksum =
      Digest.to_hex
        (Digest.string
           (String.concat "" (List.map Checkpoint.data_to_string sweep.Runner.data)))
    in
    (jobs, seconds, checksum)
  in
  let measurements = List.map measure job_counts in
  (match measurements with
  | (_, _, reference) :: rest ->
      List.iter
        (fun (jobs, _, checksum) ->
          if checksum <> reference then begin
            Printf.eprintf
              "DETERMINISM VIOLATION: -j %d sweep diverged from -j 1\n%!" jobs;
            exit 1
          end)
        rest
  | [] -> ());
  let timings = List.map (fun (j, s, _) -> (j, s)) measurements in
  Table.print ~precision:3 (Figures.parallel_scaling timings);
  let base = match timings with (_, s) :: _ -> s | [] -> 0.0 in
  let json =
    Json.obj
      [
        ( "host",
          Tpdbt_experiments.Host_info.to_json
            (Tpdbt_experiments.Host_info.capture ()) );
        ("suite", Json.arr
           (List.map
              (fun b -> Json.quote b.Tpdbt_workloads.Spec.name)
              benches));
        ( "checksum",
          Json.quote (match measurements with (_, _, c) :: _ -> c | [] -> "") );
        ( "runs",
          Json.arr
            (List.map
               (fun (jobs, seconds, _) ->
                 Json.obj
                   [
                     ("jobs", string_of_int jobs);
                     ("seconds", Printf.sprintf "%.3f" seconds);
                     ( "speedup",
                       Printf.sprintf "%.3f"
                         (if seconds > 0.0 && base > 0.0 then base /. seconds
                          else 1.0) );
                   ])
               measurements) );
      ]
  in
  (match Json.validate json with
  | Ok () -> ()
  | Error msg ->
      prerr_endline ("internal error: BENCH_parallel.json " ^ msg);
      exit 2);
  let oc = open_out "BENCH_parallel.json" in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc json;
      output_char oc '\n');
  print_endline "wrote BENCH_parallel.json"

(* ------------------------------------------------------------------ *)
(* Perf regression benchmark (BENCH_perf.json)                          *)
(* ------------------------------------------------------------------ *)

(* Wall-clock throughput (guest instrs/second) and allocation cost
   (words/guest instr) per benchmark, written with host metadata so
   [tpdbt perfdiff] can judge a later run against a committed
   baseline.  The set matches the sweep's quick set; each benchmark
   gets one warm-up run before the measured one. *)
let perf_threshold = 50

let perf_bench () =
  let module Json = Tpdbt_telemetry.Json in
  let module Host_info = Tpdbt_experiments.Host_info in
  print_endline "Perf benchmark (wall clock + allocation)";
  print_endline "----------------------------------------";
  let host = Host_info.capture () in
  Printf.printf "host: %s\n" (Host_info.render host);
  let benches = List.filter_map Suite.find [ "gzip"; "mcf"; "swim" ] in
  let config = Tpdbt_dbt.Engine.config ~threshold:perf_threshold () in
  let measure bench =
    let name = bench.Tpdbt_workloads.Spec.name in
    Printf.eprintf "  %s...\n%!" name;
    ignore (Runner.run_ref bench ~config);
    (* [Gc.quick_stat] counts minor allocation only at minor collections;
       emptying the minor heap before each reading makes it exact. *)
    Gc.minor ();
    let g0 = Gc.quick_stat () in
    let t0 = Unix.gettimeofday () in
    let result = Runner.run_ref bench ~config in
    let seconds = Unix.gettimeofday () -. t0 in
    Gc.minor ();
    let g1 = Gc.quick_stat () in
    let steps = result.Tpdbt_dbt.Engine.steps in
    (* promoted words are already counted as minor: don't double-count *)
    let words =
      g1.Gc.minor_words -. g0.Gc.minor_words
      +. (g1.Gc.major_words -. g0.Gc.major_words)
      -. (g1.Gc.promoted_words -. g0.Gc.promoted_words)
    in
    let per_instr v = if steps > 0 then v /. float_of_int steps else 0.0 in
    let guest_ips =
      if seconds > 0.0 then float_of_int steps /. seconds else 0.0
    in
    ( name,
      steps,
      seconds,
      guest_ips,
      per_instr words,
      result.Tpdbt_dbt.Engine.counters.Tpdbt_dbt.Perf_model.cycles )
  in
  let rows = List.map measure benches in
  Printf.printf "%-10s %12s %10s %14s %16s %16s\n" "bench" "steps" "seconds"
    "guest-instrs/s" "alloc-words/instr" "model-cycles";
  List.iter
    (fun (name, steps, seconds, ips, alloc, cycles) ->
      Printf.printf "%-10s %12d %10.3f %14.0f %16.3f %16.0f\n" name steps
        seconds ips alloc cycles)
    rows;
  let json =
    Json.obj
      [
        ("host", Host_info.to_json host);
        ("threshold", string_of_int perf_threshold);
        ( "benches",
          Json.arr
            (List.map
               (fun (name, steps, seconds, ips, alloc, cycles) ->
                 Json.obj
                   [
                     ("name", Json.quote name);
                     ("steps", string_of_int steps);
                     ("seconds", Json.number seconds);
                     ("guest_ips", Json.number ips);
                     ("alloc_per_instr", Json.number alloc);
                     ("cycles", Json.number cycles);
                   ])
               rows) );
      ]
  in
  (match Json.validate json with
  | Ok () -> ()
  | Error msg ->
      prerr_endline ("internal error: BENCH_perf.json " ^ msg);
      exit 2);
  let oc = open_out "BENCH_perf.json" in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc json;
      output_char oc '\n');
  print_endline "wrote BENCH_perf.json"

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                            *)
(* ------------------------------------------------------------------ *)

let micro_benchmarks data =
  let open Bechamel in
  let open Toolkit in
  (* One Test.make per figure: the analysis cost of regenerating that
     figure from the sweep data. *)
  let figure_tests =
    List.map
      (fun (id, f) -> Test.make ~name:id (Staged.stage (fun () -> f data)))
      [
        ("fig8", Figures.fig8);
        ("fig9", Figures.fig9);
        ("fig10", Figures.fig10);
        ("fig11", Figures.fig11);
        ("fig12", Figures.fig12);
        ("fig13", Figures.fig13);
        ("fig14", Figures.fig14);
        ("fig15", Figures.fig15);
        ("fig16", Figures.fig16);
        ("fig17", Figures.fig17);
        ("fig18", Figures.fig18);
      ]
  in
  let quickstart_program =
    Tpdbt_isa.Assembler.assemble_exn
      {|
.entry main
main:
    movi r1, 0
    movi r2, 2000
loop:
    rnd r3, 100
    movi r4, 70
    blt r3, r4, hot
    addi r5, r5, 1
    jmp join
hot:
    addi r6, r6, 1
join:
    addi r1, r1, 1
    blt r1, r2, loop
    halt
|}
  in
  let engine_run () =
    let config = Tpdbt_dbt.Engine.config ~threshold:50 () in
    let engine = Tpdbt_dbt.Engine.create ~config ~seed:1L quickstart_program in
    ignore (Tpdbt_dbt.Engine.run engine)
  in
  (* Same run with telemetry flowing into a metrics collector: the
     difference against the run above is the cost of enabling the
     tracer (the null-sink run must stay at the undisturbed cost). *)
  let engine_run_traced () =
    let registry = Tpdbt_telemetry.Metrics.create () in
    let sink = Tpdbt_telemetry.Sink.collect ~into:registry in
    let config = Tpdbt_dbt.Engine.config ~threshold:50 ~sink () in
    let engine = Tpdbt_dbt.Engine.create ~config ~seed:1L quickstart_program in
    ignore (Tpdbt_dbt.Engine.run engine);
    sink.Tpdbt_telemetry.Sink.close ()
  in
  let gauss_solve =
    let n = 20 in
    let a = Tpdbt_numerics.Matrix.create ~rows:n ~cols:n in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        Tpdbt_numerics.Matrix.set a i j
          (if i = j then 10.0 else 1.0 /. float_of_int (1 + i + j))
      done
    done;
    let b = Array.init n float_of_int in
    fun () -> ignore (Tpdbt_numerics.Linear_solver.gauss a b)
  in
  let schedule =
    let instrs =
      Array.init 16 (fun i ->
          if i mod 3 = 0 then
            Tpdbt_isa.Instr.Binop
              ( Tpdbt_isa.Instr.Mul,
                Tpdbt_isa.Reg.of_int (i mod 8),
                Tpdbt_isa.Reg.of_int ((i + 1) mod 8),
                Tpdbt_isa.Reg.of_int 2 )
          else
            Tpdbt_isa.Instr.Binopi
              ( Tpdbt_isa.Instr.Add,
                Tpdbt_isa.Reg.of_int (i mod 8),
                Tpdbt_isa.Reg.of_int ((i + 1) mod 8),
                i ))
    in
    fun () -> ignore (Tpdbt_dbt.Optimizer.optimize_block instrs)
  in
  (* Same run again under a tight code cache: the delta against the
     unbounded run is the eviction/retranslation machinery's own cost. *)
  let engine_run_bounded () =
    let config =
      Tpdbt_dbt.Engine.config ~threshold:50 ~cache_capacity:8
        ~cache_backoff:100 ()
    in
    let engine = Tpdbt_dbt.Engine.create ~config ~seed:1L quickstart_program in
    ignore (Tpdbt_dbt.Engine.run engine)
  in
  let kernel_tests =
    [
      Test.make ~name:"engine:two-phase-run-2k-iters" (Staged.stage engine_run);
      Test.make ~name:"engine:two-phase-run-2k-iters-traced"
        (Staged.stage engine_run_traced);
      Test.make ~name:"engine:two-phase-run-2k-iters-bounded-cache"
        (Staged.stage engine_run_bounded);
      Test.make ~name:"solver:gauss-20x20" (Staged.stage gauss_solve);
      Test.make ~name:"optimizer:block-16-instrs" (Staged.stage schedule);
    ]
  in
  let grouped =
    Test.make_grouped ~name:"tpdbt" ~fmt:"%s/%s" (figure_tests @ kernel_tests)
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] grouped in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  print_endline "Bechamel micro-benchmarks (monotonic clock, ns/run)";
  print_endline "---------------------------------------------------";
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        match Analyze.OLS.estimates ols with
        | Some [ estimate ] -> (name, estimate) :: acc
        | Some _ | None -> (name, nan) :: acc)
      results []
    |> List.sort compare
  in
  List.iter
    (fun (name, ns) -> Printf.printf "%-40s %14.1f ns/run\n" name ns)
    rows

(* ------------------------------------------------------------------ *)

let ablation_studies ~quick =
  print_endline "Ablation studies (design choices; DESIGN.md §3)";
  print_endline "-----------------------------------------------";
  let benchmarks = if quick then Some [ "gzip"; "mcf" ] else None in
  List.iter
    (fun (id, study) ->
      let table = study () in
      print_endline id;
      Table.print ~precision:3 table;
      print_newline ();
      write_csv ("ablation-" ^ id) table)
    (Tpdbt_experiments.Ablations.all ?benchmarks ())

let usage () =
  prerr_endline
    "usage: main.exe [--quick] [--no-micro] [--no-ablations] [--no-cache]\n\
    \                [--jobs N] [--par-bench]\n\n\
    \  --quick          run 3 benchmarks instead of the full suite\n\
    \  --no-micro       skip the Bechamel micro-benchmarks\n\
    \  --no-ablations   skip the design-choice ablation studies\n\
    \  --no-cache       skip the bounded code-cache size axis\n\
    \  --jobs N         worker domains for the figure sweep (default:\n\
    \                   the machine's recommended domain count)\n\
    \  --par-bench      run only the parallel-scaling benchmark (sweep\n\
    \                   at -j 1/2/4, checksum-guarded) and write\n\
    \                   BENCH_parallel.json\n\
    \  --perf-bench     run only the wall-clock/allocation perf benchmark\n\
    \                   and write BENCH_perf.json (for tpdbt perfdiff)"

type options = {
  quick : bool;
  no_micro : bool;
  no_ablations : bool;
  no_cache : bool;
  jobs : int;
  par_bench : bool;
  perf_bench : bool;
}

let parse_args () =
  let default =
    {
      quick = false;
      no_micro = false;
      no_ablations = false;
      no_cache = false;
      jobs = Tpdbt_parallel.Pool.default_jobs ();
      par_bench = false;
      perf_bench = false;
    }
  in
  let bad a =
    prerr_endline ("unknown argument: " ^ a);
    usage ();
    exit 2
  in
  let rec go opts = function
    | [] -> opts
    | "--quick" :: tl -> go { opts with quick = true } tl
    | "--no-micro" :: tl -> go { opts with no_micro = true } tl
    | "--no-ablations" :: tl -> go { opts with no_ablations = true } tl
    | "--no-cache" :: tl -> go { opts with no_cache = true } tl
    | "--par-bench" :: tl -> go { opts with par_bench = true } tl
    | "--perf-bench" :: tl -> go { opts with perf_bench = true } tl
    | "--jobs" :: n :: tl -> (
        match int_of_string_opt n with
        | Some jobs when jobs >= 1 -> go { opts with jobs } tl
        | Some _ | None -> bad ("--jobs " ^ n))
    | a :: _ -> bad a
  in
  go default (List.tl (Array.to_list Sys.argv))

let () =
  let opts = parse_args () in
  if opts.par_bench then parallel_bench ~quick:opts.quick ()
  else if opts.perf_bench then perf_bench ()
  else begin
    worked_examples ();
    let data = run_sweep ~quick:opts.quick ~jobs:opts.jobs in
    print_figures data;
    if not opts.no_cache then cache_axis ();
    if not opts.no_ablations then ablation_studies ~quick:opts.quick;
    if not opts.no_micro then micro_benchmarks data;
    Printf.printf "\nCSV copies of every table are in %s/\n" results_dir
  end
