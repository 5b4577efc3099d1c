(* Allocation reading for the CI gate: one warm-up and one measured
   reference-input run of gzip, mcf and swim at threshold 50, written
   to BENCH_perf.json with host metadata.  [make alloc-gate] judges the
   file's alloc_per_instr against bench/BASELINE_perf.json through
   [tpdbt perfdiff]; speed is the ledger's to judge (ledger/,
   BENCHMARK.json).

   Usage:  dune exec bench/main.exe *)

module Suite = Tpdbt_workloads.Suite
module Runner = Tpdbt_experiments.Runner
module Json = Tpdbt_telemetry.Json
module Host_info = Tpdbt_experiments.Host_info

let perf_threshold = 50

let perf_bench () =
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

let () =
  if Array.length Sys.argv > 1 then begin
    prerr_endline "usage: main.exe (takes no arguments; writes BENCH_perf.json)";
    exit 2
  end;
  perf_bench ()
