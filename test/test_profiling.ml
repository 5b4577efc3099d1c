(* Tests for the profiling/attribution layer: spans, the call-tree
   profiler and its collapsed-stack/JSON exports, the OpenMetrics
   exposition and its strict parser, stage attribution against the
   perf-model counters, and the perfdiff allocation verdicts. *)

module Assembler = Tpdbt_isa.Assembler
module Engine = Tpdbt_dbt.Engine
module Perf_model = Tpdbt_dbt.Perf_model
module Event = Tpdbt_telemetry.Event
module Sink = Tpdbt_telemetry.Sink
module Span = Tpdbt_telemetry.Span
module Profiler = Tpdbt_telemetry.Profiler
module Attribution = Tpdbt_telemetry.Attribution
module Openmetrics = Tpdbt_telemetry.Openmetrics
module Metrics = Tpdbt_telemetry.Metrics
module Json = Tpdbt_telemetry.Json
module Perfdiff = Tpdbt_experiments.Perfdiff
module Host_info = Tpdbt_experiments.Host_info

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string
let checkf = Alcotest.check (Alcotest.float 1e-9)

let hot_loop_src =
  {|
.entry main
main:
    movi r1, 0
    movi r2, 20000
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
    out r6
    halt
|}

let run_with_sink ?(threshold = 50) ?(seed = 42L) ~sink src =
  let p = Assembler.assemble_exn src in
  let config = Engine.config ~threshold ~sink () in
  Engine.run (Engine.create ~config ~seed p)

let traced ?threshold ?seed src =
  let mem, buffer = Sink.memory () in
  let metrics = Metrics.create () in
  let collector = Sink.collect ~into:metrics in
  let sink = Sink.tee [ mem; collector ] in
  let result = run_with_sink ?threshold ?seed ~sink src in
  sink.Sink.close ();
  Perf_model.record result.Engine.counters metrics;
  (result, Sink.contents buffer, metrics)

(* ------------------------------------------------------------------ *)
(* Span primitives                                                      *)
(* ------------------------------------------------------------------ *)

let test_span_null_is_noop () =
  let t = Span.create Sink.null in
  checkb "disabled on null sink" false (Span.enabled t);
  Span.enter t "a";
  Span.enter t "b";
  checki "null spans track no depth" 0 (Span.depth t);
  Span.leave t "b";
  Span.leave t "a";
  checki "depth still 0" 0 (Span.depth t);
  checki "wrap passes value through" 7 (Span.wrap t "c" (fun () -> 7))

let test_span_emission () =
  let events = ref [] in
  let sink =
    Sink.of_fun (fun ~step event -> events := (step, event) :: !events)
  in
  let clock = ref 100 in
  let t = Span.create ~clock:(fun () -> !clock) sink in
  checkb "enabled on real sink" true (Span.enabled t);
  Span.enter t "outer";
  checki "depth 1" 1 (Span.depth t);
  clock := 150;
  Span.wrap t "inner" (fun () -> clock := 180);
  Span.leave t "outer";
  checki "balanced" 0 (Span.depth t);
  match List.rev !events with
  | [
   (100, Event.Span_begin { span = "outer" });
   (150, Event.Span_begin { span = "inner" });
   (180, Event.Span_end { span = "inner"; wall_ns = w1; _ });
   (180, Event.Span_end { span = "outer"; wall_ns = w2; _ });
  ] ->
      checkb "inner wall non-negative" true (w1 >= 0);
      checkb "outer wall >= inner wall" true (w2 >= w1)
  | l -> Alcotest.failf "unexpected span stream (%d events)" (List.length l)

let test_span_wrap_exception_safe () =
  let events = ref [] in
  let sink = Sink.of_fun (fun ~step:_ event -> events := event :: !events) in
  let t = Span.create sink in
  (try Span.wrap t "boom" (fun () -> failwith "x") with Failure _ -> ());
  checki "span closed on exception" 0 (Span.depth t);
  checki "begin and end emitted" 2 (List.length !events)

(* ------------------------------------------------------------------ *)
(* Profiler: call tree, folded stacks, JSON                             *)
(* ------------------------------------------------------------------ *)

let test_profiler_tree_from_engine () =
  let result, events, _ = traced hot_loop_src in
  let p = Profiler.of_events events in
  let root =
    match Profiler.find p [ "engine.run" ] with
    | Some n -> n
    | None -> Alcotest.fail "no engine.run root"
  in
  checki "engine.run called once" 1 (Profiler.calls root);
  checki "engine.run spans the whole run" result.Engine.steps
    (Profiler.steps root);
  (* Stage_cost leaves hang beneath the open engine.run span and carry
     the deterministic cycle attribution. *)
  let interp =
    match Profiler.find p [ "engine.run"; "interpret" ] with
    | Some n -> n
    | None -> Alcotest.fail "no interpret leaf under engine.run"
  in
  checkb "interpret charged cycles" true (Profiler.cycles interp > 0.0);
  (* Self steps never exceed inclusive steps, anywhere in the tree. *)
  let rec walk n =
    checkb
      ("self <= steps at " ^ Profiler.label n)
      true
      (Profiler.self_steps n <= Profiler.steps n && Profiler.self_steps n >= 0);
    List.iter walk (Profiler.children n)
  in
  List.iter walk (Profiler.roots p)

let test_folded_well_formed () =
  let result, events, _ = traced hot_loop_src in
  let folded = Profiler.to_folded (Profiler.of_events events) in
  checkb "folded non-empty" true (String.length folded > 0);
  let total = ref 0 in
  List.iter
    (fun line ->
      if line <> "" then begin
        match String.rindex_opt line ' ' with
        | None -> Alcotest.failf "folded line lacks weight: %s" line
        | Some i ->
            let path = String.sub line 0 i in
            let weight =
              String.sub line (i + 1) (String.length line - i - 1)
            in
            (match int_of_string_opt weight with
            | Some w when w > 0 -> total := !total + w
            | _ -> Alcotest.failf "bad folded weight: %s" line);
            checkb "path non-empty" true (String.length path > 0);
            List.iter
              (fun frame -> checkb "frame non-empty" true (frame <> ""))
              (String.split_on_char ';' path)
      end)
    (String.split_on_char '\n' folded);
  (* Self weights partition the root's inclusive width. *)
  checki "folded weights sum to the run's steps" result.Engine.steps !total

let test_profile_json_valid () =
  let _, events, _ = traced hot_loop_src in
  let json = Profiler.to_json (Profiler.of_events events) in
  (match Json.validate json with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("profile json invalid: " ^ msg));
  let doc = match Json.parse json with Ok v -> v | Error e -> Alcotest.fail e in
  (match Option.bind (Json.member "version" doc) Json.as_number with
  | Some 1.0 -> ()
  | _ -> Alcotest.fail "version != 1");
  match Option.bind (Json.member "roots" doc) Json.as_list with
  | Some (_ :: _) -> ()
  | _ -> Alcotest.fail "no roots in profile json"

let test_profiler_tolerates_interleaved_ends () =
  let mk step event = { Event.step; event } in
  let events =
    [
      mk 0 (Event.Span_begin { span = "a" });
      mk 10 (Event.Span_begin { span = "b" });
      (* "a" ends while "b" is still open: b is closed implicitly *)
      mk 30
        (Event.Span_end
           { span = "a"; wall_ns = 5; minor_words = 0; major_words = 0 });
      (* end with no matching open frame: dropped *)
      mk 40
        (Event.Span_end
           { span = "ghost"; wall_ns = 1; minor_words = 0; major_words = 0 });
    ]
  in
  let p = Profiler.of_events events in
  let a =
    match Profiler.find p [ "a" ] with
    | Some n -> n
    | None -> Alcotest.fail "no a"
  in
  checki "a width" 30 (Profiler.steps a);
  (match Profiler.find p [ "a"; "b" ] with
  | Some b -> checki "b closed implicitly at a's end" 20 (Profiler.steps b)
  | None -> Alcotest.fail "b missing");
  checkb "ghost dropped" true (Profiler.find p [ "ghost" ] = None)

(* ------------------------------------------------------------------ *)
(* Null-sink identity: profiling off must not perturb the engine        *)
(* ------------------------------------------------------------------ *)

let test_null_sink_identity () =
  let quiet = run_with_sink ~sink:Sink.null hot_loop_src in
  let traced_result, _, _ = traced hot_loop_src in
  checki "steps identical" quiet.Engine.steps traced_result.Engine.steps;
  checkb "outputs identical" true
    (quiet.Engine.outputs = traced_result.Engine.outputs);
  Alcotest.check (Alcotest.float 0.0) "cycles byte-identical"
    quiet.Engine.counters.Perf_model.cycles
    traced_result.Engine.counters.Perf_model.cycles;
  checki "profiling ops identical" quiet.Engine.profiling_ops
    traced_result.Engine.profiling_ops

(* ------------------------------------------------------------------ *)
(* OpenMetrics exposition                                               *)
(* ------------------------------------------------------------------ *)

let test_openmetrics_roundtrip () =
  let _, _, metrics = traced hot_loop_src in
  let text = Openmetrics.render metrics in
  (match Openmetrics.validate text with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("exposition rejected: " ^ msg));
  let families = Openmetrics.parse text in
  checkb "has families" true (families <> []);
  (* Every dumped instrument surfaces as exactly one family. *)
  checki "one family per instrument"
    (List.length (Metrics.dump metrics))
    (List.length families);
  (* Histogram invariants survive the round trip. *)
  List.iter
    (fun f ->
      if f.Openmetrics.kind = Openmetrics.Histogram then begin
        let buckets =
          List.filter
            (fun s ->
              List.mem_assoc "le" s.Openmetrics.labels)
            f.Openmetrics.samples
        in
        checkb (f.Openmetrics.family_name ^ " has buckets") true
          (buckets <> []);
        let values = List.map (fun s -> s.Openmetrics.value) buckets in
        checkb "buckets cumulative" true
          (List.for_all2 ( <= )
             (List.filteri (fun i _ -> i < List.length values - 1) values)
             (List.tl values))
      end)
    families

let test_openmetrics_determinism () =
  (* Two identical runs must render byte-identical expositions once the
     wall-clock gauges are dropped.  Span major words count promotions,
     which depend on when minor collections fall, so each run starts
     from the same collected heap. *)
  let render () =
    Gc.full_major ();
    let _, _, metrics = traced hot_loop_src in
    String.split_on_char '\n' (Openmetrics.render metrics)
    |> List.filter (fun l ->
           (* span wall-clock gauges are the only nondeterministic rows *)
           let has_seconds =
             let n = String.length l in
             let rec scan i =
               i + 7 <= n && (String.sub l i 7 = "seconds" || scan (i + 1))
             in
             scan 0
           in
           not has_seconds)
    |> String.concat "\n"
  in
  checks "deterministic exposition" (render ()) (render ())

let test_openmetrics_rejects_corrupt () =
  let _, _, metrics = traced hot_loop_src in
  let text = Openmetrics.render metrics in
  let reject label doc =
    match Openmetrics.validate doc with
    | Ok () -> Alcotest.fail ("accepted " ^ label)
    | Error _ -> ()
  in
  reject "missing EOF"
    (String.concat "\n"
       (List.filter
          (fun l -> l <> "# EOF")
          (String.split_on_char '\n' text)));
  reject "truncated document" (String.sub text 0 (String.length text / 2));
  reject "junk line" ("junk\n" ^ text);
  reject "empty document" ""

(* ------------------------------------------------------------------ *)
(* Attribution vs the perf-model counters                               *)
(* ------------------------------------------------------------------ *)

let test_attribution_reconciles () =
  let result, events, _ = traced hot_loop_src in
  let a = Attribution.of_events events in
  checkb "attribution non-empty" true (not (Attribution.is_empty a));
  (* The stage charges mirror the exact cycle-model products, so their
     sum differs from the counter only by float summation order. *)
  let total = Attribution.total_cycles a in
  let counter = result.Engine.counters.Perf_model.cycles in
  checkb
    (Printf.sprintf "stage cycles (%f) reconcile with perf.cycles (%f)" total
       counter)
    true
    (Float.abs (total -. counter) <= 1e-6 *. Float.max 1.0 counter);
  (* Executed-stage steps partition the run's guest instructions. *)
  let steps =
    List.fold_left
      (fun acc (r : Attribution.stage_row) -> acc + r.Attribution.steps)
      0 (Attribution.stages a)
  in
  checki "stage steps sum to run steps" result.Engine.steps steps;
  (* Region costs stay within the total. *)
  let region_cycles =
    List.fold_left
      (fun acc (r : Attribution.region_row) -> acc +. r.Attribution.cycles)
      0.0 (Attribution.regions a)
  in
  checkb "region cycles <= total" true (region_cycles <= total +. 1e-6);
  (* CSV export carries one row per stage and per region. *)
  let csv = Attribution.to_csv a in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' csv)
  in
  checki "csv rows"
    (1 + List.length (Attribution.stages a) + List.length (Attribution.regions a))
    (List.length lines);
  checks "csv header" "kind,name,cycles,steps,count" (List.hd lines)

(* ------------------------------------------------------------------ *)
(* Perfdiff                                                             *)
(* ------------------------------------------------------------------ *)

let test_perfdiff_judge () =
  let j ~older ~newer = Perfdiff.judge ~tolerance:0.05 ~older ~newer in
  let check_verdict label expected (_, got) =
    checkb label true (got = expected)
  in
  check_verdict "cost increase is a regression" Perfdiff.Regression
    (j ~older:10.0 ~newer:11.0);
  check_verdict "cost decrease is an improvement" Perfdiff.Improvement
    (j ~older:10.0 ~newer:9.0);
  check_verdict "small drift is within tolerance" Perfdiff.Within
    (j ~older:100.0 ~newer:104.0);
  check_verdict "zero to zero is within" Perfdiff.Within
    (j ~older:0.0 ~newer:0.0);
  check_verdict "zero to nonzero counts full change" Perfdiff.Regression
    (j ~older:0.0 ~newer:5.0);
  let change, _ = j ~older:100.0 ~newer:90.0 in
  checkf "change is fractional" (-0.1) change

let bench_doc rows =
  Printf.sprintf
    {|{"host":{"cores":4,"ocaml_version":"5.1.1"},"benches":[%s]}|}
    (String.concat ","
       (List.map
          (fun (name, ips, alloc, cycles) ->
            Printf.sprintf
              {|{"name":%S,"guest_ips":%g,"alloc_per_instr":%g,"cycles":%g}|}
              name ips alloc cycles)
          rows))

(* Only alloc_per_instr is judged: gzip's throughput halves and its
   cycles double without a verdict, while mcf's allocation rises 20%. *)
let test_perfdiff_report () =
  let old_doc =
    bench_doc
      [ ("gzip", 1e6, 10.0, 5e6); ("mcf", 2e6, 8.0, 9e6); ("art", 1e6, 1.0, 1e6) ]
  in
  let new_doc =
    bench_doc
      [ ("gzip", 5e5, 10.0, 1e7); ("mcf", 2e6, 9.6, 9e6); ("swim", 3e6, 7.0, 1e6) ]
  in
  let report =
    match Perfdiff.of_strings ~tolerance:0.05 old_doc new_doc with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  checki "one delta per common bench" 2 (List.length report.Perfdiff.deltas);
  checkb "gzip within tolerance" true
    (List.exists
       (fun d -> d.Perfdiff.bench = "gzip" && d.Perfdiff.verdict = Perfdiff.Within)
       report.Perfdiff.deltas);
  checkb "mcf allocation regressed" true
    (List.exists
       (fun d ->
         d.Perfdiff.bench = "mcf" && d.Perfdiff.verdict = Perfdiff.Regression)
       report.Perfdiff.deltas);
  checkb "art missing" true (report.Perfdiff.missing = [ "art" ]);
  checkb "swim added" true (report.Perfdiff.added = [ "swim" ]);
  checki "one regression" 1 (List.length (Perfdiff.regressions report));
  let rendered = Perfdiff.render report in
  let contains sub =
    let n = String.length rendered and m = String.length sub in
    let rec scan i = i + m <= n && (String.sub rendered i m = sub || scan (i + 1)) in
    scan 0
  in
  checkb "render names the regression" true (contains "REGRESSION");
  checkb "render names the metric" true (contains "alloc_per_instr");
  checkb "render has no throughput row" false (contains "guest_ips")

let test_perfdiff_rejects_garbage () =
  (match Perfdiff.of_strings ~tolerance:0.05 "{not json" "{}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted bad old file");
  (match
     Perfdiff.of_strings ~tolerance:0.05 {|{"host":{},"benches":[{}]}|} "{}"
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted row without name");
  match
    Perfdiff.of_strings ~tolerance:0.05
      {|{"host":{},"benches":[{"name":"g","guest_ips":1}]}|}
      {|{"host":{},"benches":[]}|}
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted row without alloc_per_instr"

(* ------------------------------------------------------------------ *)
(* Host info                                                            *)
(* ------------------------------------------------------------------ *)

let test_host_info_json () =
  let h = Host_info.capture () in
  checkb "cores positive" true (h.Host_info.cores >= 1);
  checkb "word size sane" true
    (h.Host_info.word_size = 64 || h.Host_info.word_size = 32);
  let json = Host_info.to_json h in
  (match Json.validate json with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("host json invalid: " ^ e));
  let doc = match Json.parse json with Ok v -> v | Error e -> Alcotest.fail e in
  (match Option.bind (Json.member "ocaml_version" doc) Json.as_string with
  | Some v -> checks "version matches Sys" Sys.ocaml_version v
  | None -> Alcotest.fail "no ocaml_version");
  match Option.bind (Json.member "cores" doc) Json.as_number with
  | Some c -> checki "cores round-trip" h.Host_info.cores (int_of_float c)
  | None -> Alcotest.fail "no cores"

let suite =
  [
    ("span null sink is a no-op", `Quick, test_span_null_is_noop);
    ("span emission and nesting", `Quick, test_span_emission);
    ("span wrap exception-safe", `Quick, test_span_wrap_exception_safe);
    ("profiler tree from engine run", `Quick, test_profiler_tree_from_engine);
    ("folded stacks well-formed", `Quick, test_folded_well_formed);
    ("profile json valid", `Quick, test_profile_json_valid);
    ( "profiler tolerates interleaved ends",
      `Quick,
      test_profiler_tolerates_interleaved_ends );
    ("null-sink identity", `Quick, test_null_sink_identity);
    ("openmetrics round-trip", `Quick, test_openmetrics_roundtrip);
    ("openmetrics deterministic", `Quick, test_openmetrics_determinism);
    ("openmetrics rejects corrupt", `Quick, test_openmetrics_rejects_corrupt);
    ("attribution reconciles with counters", `Quick, test_attribution_reconciles);
    ("perfdiff judge verdicts", `Quick, test_perfdiff_judge);
    ("perfdiff report", `Quick, test_perfdiff_report);
    ("perfdiff rejects garbage", `Quick, test_perfdiff_rejects_garbage);
    ("host info json", `Quick, test_host_info_json);
  ]
