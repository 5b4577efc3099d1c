(* Tests for the telemetry subsystem: event stream semantics, metrics
   registry, exporters, and the zero-cost-when-disabled guarantee. *)

module Assembler = Tpdbt_isa.Assembler
module Engine = Tpdbt_dbt.Engine
module Perf_model = Tpdbt_dbt.Perf_model
module Snapshot = Tpdbt_dbt.Snapshot
module Event = Tpdbt_telemetry.Event
module Sink = Tpdbt_telemetry.Sink
module Metrics = Tpdbt_telemetry.Metrics
module Json = Tpdbt_telemetry.Json
module Chrome_trace = Tpdbt_telemetry.Chrome_trace
module Summary = Tpdbt_telemetry.Summary

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

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

let run_with_sink ?(threshold = 50) ?(adaptive = false) ?(seed = 42L) ~sink src
    =
  let p = Assembler.assemble_exn src in
  let config = Engine.config ~threshold ~adaptive ~sink () in
  Engine.run (Engine.create ~config ~seed p)

let traced_events ?threshold ?adaptive ?seed src =
  let sink, buffer = Sink.memory () in
  let result = run_with_sink ?threshold ?adaptive ?seed ~sink src in
  (result, Sink.contents buffer)

(* ------------------------------------------------------------------ *)
(* Event stream semantics                                               *)
(* ------------------------------------------------------------------ *)

(* The engine's lifecycle invariants, checked on a worked example:
   every block is translated before it is registered, registered before
   any pool trigger that includes it, regions form only inside an
   optimisation round that a pool trigger opened, and region entries /
   side exits / completions only follow the region's formation. *)
let test_event_ordering () =
  let _result, events = traced_events ~threshold:50 hot_loop_src in
  checkb "events nonempty" true (events <> []);
  let translated = Hashtbl.create 8 in
  let registered = Hashtbl.create 8 in
  let formed = Hashtbl.create 8 in
  let entered = Hashtbl.create 8 in
  let in_optimize = ref false in
  let pool_triggers = ref 0 in
  let prev_step = ref 0 in
  let span_stack = ref [] in
  List.iter
    (fun { Event.step; event } ->
      checkb "steps non-decreasing" true (step >= !prev_step);
      prev_step := step;
      match event with
      | Event.Block_translated { block; _ } ->
          checkb "translated once" false (Hashtbl.mem translated block);
          Hashtbl.replace translated block ()
      | Event.Block_registered { block; use; threshold } ->
          checkb "translated before registered" true
            (Hashtbl.mem translated block);
          checkb "registered once" false (Hashtbl.mem registered block);
          checkb "use at threshold" true (use >= threshold);
          Hashtbl.replace registered block ()
      | Event.Pool_trigger { pool_size; _ } ->
          incr pool_triggers;
          checkb "pool nonempty" true (pool_size > 0)
      | Event.Phase_begin { phase } ->
          if phase = "optimize" then begin
            checkb "optimize not nested" false !in_optimize;
            in_optimize := true
          end
      | Event.Phase_end { phase } ->
          if phase = "optimize" then begin
            checkb "optimize was open" true !in_optimize;
            in_optimize := false
          end
      | Event.Region_formed { region; entry_block; slots; _ } ->
          checkb "formed inside optimisation round" true !in_optimize;
          checkb "entry block was registered or translated" true
            (Hashtbl.mem translated entry_block);
          checkb "slots positive" true (slots > 0);
          Hashtbl.replace formed region ()
      | Event.Region_entry { region } ->
          checkb "entered after formation" true (Hashtbl.mem formed region);
          Hashtbl.replace entered region ()
      | Event.Region_side_exit { region; _ } | Event.Region_completion { region }
        ->
          checkb "exit after entry" true (Hashtbl.mem entered region)
      | Event.Region_dissolved { region; _ } ->
          checkb "dissolved after formation" true (Hashtbl.mem formed region)
      | Event.Fault_injected _ | Event.Recovery _ ->
          checkb "no faults in clean run" true false
      | Event.Cache_evicted _ | Event.Cache_flushed _ ->
          checkb "no cache pressure in unbounded run" true false
      | Event.Shadow_divergence _ | Event.Region_quarantined _
      | Event.Engine_degraded _ ->
          checkb "no divergence in clean run" true false
      | Event.Span_begin { span } -> span_stack := span :: !span_stack
      | Event.Span_end { span; wall_ns; minor_words; major_words } -> (
          (* A single engine's spans are strictly nested: every end
             closes the innermost open span. *)
          checkb "span end has non-negative wall time" true (wall_ns >= 0);
          checkb "span allocation deltas non-negative" true
            (minor_words >= 0 && major_words >= 0);
          match !span_stack with
          | top :: rest ->
              checkb "span end closes the innermost span" true (top = span);
              span_stack := rest
          | [] -> checkb "span end without open span" true false)
      | Event.Stage_cost { cycles; steps; count; _ } ->
          checkb "stage cost emitted inside the run span" true
            (List.mem "engine.run" !span_stack);
          checkb "stage cost totals sane" true
            (cycles >= 0.0 && steps >= 0 && count > 0)
      | Event.Region_cost { region; cycles; instrs } ->
          checkb "region cost for a formed region" true
            (Hashtbl.mem formed region);
          checkb "region cost totals sane" true (cycles >= 0.0 && instrs >= 0))
    events;
  checkb "pool triggered" true (!pool_triggers > 0);
  checkb "regions formed" true (Hashtbl.length formed > 0);
  checkb "regions entered" true (Hashtbl.length entered > 0);
  checkb "optimize rounds balanced" false !in_optimize;
  checkb "spans balanced" true (!span_stack = [])

let test_event_counts_match_counters () =
  (* The event stream and the perf-model counters are two views of the
     same run; their totals must agree. *)
  let result, events = traced_events ~threshold:50 hot_loop_src in
  let count pred = List.length (List.filter pred events) in
  let c = result.Engine.counters in
  checki "region entries" c.Perf_model.region_entries
    (count (fun e ->
         match e.Event.event with Event.Region_entry _ -> true | _ -> false));
  checki "side exits" c.Perf_model.side_exits
    (count (fun e ->
         match e.Event.event with
         | Event.Region_side_exit _ -> true
         | _ -> false));
  checki "completions" c.Perf_model.region_completions
    (count (fun e ->
         match e.Event.event with
         | Event.Region_completion _ -> true
         | _ -> false));
  checki "regions formed" c.Perf_model.regions_formed
    (count (fun e ->
         match e.Event.event with Event.Region_formed _ -> true | _ -> false));
  checki "blocks translated" c.Perf_model.blocks_translated
    (count (fun e ->
         match e.Event.event with
         | Event.Block_translated _ -> true
         | _ -> false));
  checki "optimization rounds" c.Perf_model.optimization_rounds
    (count (fun e ->
         match e.Event.event with Event.Pool_trigger _ -> true | _ -> false))

let adaptive_src =
  {|
.entry main
main:
    movi r1, 0
    movi r2, 40000
    movi r7, 10000
loop:
    blt r1, r7, early
    addi r5, r5, 1
    jmp join
early:
    addi r6, r6, 1
join:
    addi r1, r1, 1
    blt r1, r2, loop
    out r5
    halt
|}

let test_adaptive_dissolution_events () =
  let result, events =
    traced_events ~threshold:20 ~adaptive:true ~seed:3L adaptive_src
  in
  let dissolved =
    List.filter
      (fun e ->
        match e.Event.event with Event.Region_dissolved _ -> true | _ -> false)
      events
  in
  checki "dissolution events match counter"
    result.Engine.counters.Perf_model.regions_dissolved
    (List.length dissolved);
  checkb "at least one dissolution" true (dissolved <> [])

(* ------------------------------------------------------------------ *)
(* Zero-cost-when-disabled: null sink leaves the run untouched          *)
(* ------------------------------------------------------------------ *)

let test_null_sink_result_identical () =
  let base = run_with_sink ~sink:Sink.null hot_loop_src in
  let p = Assembler.assemble_exn hot_loop_src in
  let default_cfg = Engine.config ~threshold:50 () in
  checkb "default config uses the null sink" true
    (Sink.is_null default_cfg.Engine.sink);
  let plain = Engine.run (Engine.create ~config:default_cfg ~seed:42L p) in
  checkb "outputs" true (base.Engine.outputs = plain.Engine.outputs);
  checki "steps" base.Engine.steps plain.Engine.steps;
  checkb "cycles" true
    (base.Engine.counters.Perf_model.cycles
    = plain.Engine.counters.Perf_model.cycles);
  checkb "counters" true (base.Engine.counters = plain.Engine.counters);
  checkb "region stats" true
    (base.Engine.region_stats = plain.Engine.region_stats);
  checkb "use counters" true
    (base.Engine.snapshot.Snapshot.use = plain.Engine.snapshot.Snapshot.use);
  checkb "taken counters" true
    (base.Engine.snapshot.Snapshot.taken = plain.Engine.snapshot.Snapshot.taken)

let test_tracing_does_not_change_result () =
  (* Telemetry observes; it must never steer. *)
  let plain = run_with_sink ~sink:Sink.null hot_loop_src in
  let traced, _events = traced_events hot_loop_src in
  checkb "outputs" true (plain.Engine.outputs = traced.Engine.outputs);
  checki "steps" plain.Engine.steps traced.Engine.steps;
  checkb "cycles" true
    (plain.Engine.counters.Perf_model.cycles
    = traced.Engine.counters.Perf_model.cycles)

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                     *)
(* ------------------------------------------------------------------ *)

let test_metrics_registry () =
  let m = Metrics.create () in
  let c = Metrics.counter m "a.count" in
  Metrics.incr c;
  Metrics.add c 4;
  checki "counter" 5 (Metrics.counter_value c);
  checki "same instrument" 5 (Metrics.counter_value (Metrics.counter m "a.count"));
  let g = Metrics.gauge m "a.gauge" in
  Metrics.set g 2.5;
  checkb "gauge" true (Metrics.gauge_value g = 2.5);
  let h = Metrics.histogram m "a.hist" ~buckets:[ 1.0; 2.0 ] in
  List.iter (Metrics.observe h) [ 0.5; 1.0; 1.5; 99.0 ];
  checki "hist count" 4 (Metrics.histogram_count h);
  checkb "hist sum" true (Metrics.histogram_sum h = 102.0);
  (match Metrics.bucket_counts h with
  | [ (1.0, 2); (2.0, 1); (bound, 1) ] -> checkb "inf bound" true (bound = infinity)
  | _ -> Alcotest.fail "unexpected buckets");
  checkb "names sorted" true
    (Metrics.names m = [ "a.count"; "a.gauge"; "a.hist" ]);
  (* Kind clashes are rejected. *)
  checkb "clash rejected" true
    (try
       ignore (Metrics.gauge m "a.count");
       false
     with Invalid_argument _ -> true);
  (* Both dumps are well-formed. *)
  checkb "render has counter" true
    (String.length (Metrics.render m) > 0);
  match Json.validate (Metrics.to_json m) with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let test_collect_sink_metrics () =
  let registry = Metrics.create () in
  let collector = Sink.collect ~into:registry in
  let result = run_with_sink ~threshold:50 ~sink:collector hot_loop_src in
  collector.Sink.close ();
  let counter name = Metrics.counter_value (Metrics.counter registry name) in
  checki "entry counter matches run"
    result.Engine.counters.Perf_model.region_entries
    (counter "events.region_entry");
  checki "formation counter matches run"
    result.Engine.counters.Perf_model.regions_formed
    (counter "events.region_formed");
  let slots = Metrics.histogram registry "region.slots" ~buckets:[ 1.0 ] in
  checki "slots histogram populated"
    result.Engine.counters.Perf_model.regions_formed
    (Metrics.histogram_count slots);
  let rates =
    Metrics.histogram registry "region.side_exit_rate" ~buckets:[ 1.0 ]
  in
  checkb "side-exit rates observed at close" true
    (Metrics.histogram_count rates > 0);
  (* Recording the perf counters lands them beside the event metrics. *)
  Perf_model.record result.Engine.counters registry;
  checki "perf counter recorded"
    result.Engine.counters.Perf_model.region_entries
    (counter "perf.region_entries")

(* ------------------------------------------------------------------ *)
(* Exporters                                                            *)
(* ------------------------------------------------------------------ *)

let test_jsonl_export_valid () =
  let _result, events = traced_events ~threshold:50 hot_loop_src in
  List.iter
    (fun stamped ->
      match Json.validate (Event.to_json stamped) with
      | Ok () -> ()
      | Error msg ->
          Alcotest.failf "bad JSONL line %S: %s" (Event.to_json stamped) msg)
    events

let test_chrome_trace_valid_json () =
  let _result, events = traced_events ~threshold:50 hot_loop_src in
  let json = Chrome_trace.to_json events in
  (match Json.validate json with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  (* Structure spot checks: the b/e async pairs balance per region and
     the B/E phase stack balances. *)
  let contains needle haystack =
    let n = String.length needle and h = String.length haystack in
    let rec go i =
      i + n <= h && (String.sub haystack i n = needle || go (i + 1))
    in
    go 0
  in
  checkb "has traceEvents" true (contains "\"traceEvents\"" json);
  checkb "has async begin" true (contains "\"ph\":\"b\"" json);
  checkb "has async end" true (contains "\"ph\":\"e\"" json);
  checkb "has duration begin" true (contains "\"ph\":\"B\"" json);
  checkb "has instant" true (contains "\"ph\":\"i\"" json)

let test_json_validator () =
  let ok s = checkb s true (Json.validate s = Ok ()) in
  let bad s = checkb s true (Result.is_error (Json.validate s)) in
  ok {|{"a":1,"b":[true,false,null,-2.5e3],"c":{"d":"x\n"}}|};
  ok {|[]|};
  ok {| 42 |};
  bad {|{"a":1,}|};
  bad {|{'a':1}|};
  bad "{\"a\":1} extra";
  bad {|{"a":01}|};
  bad "";
  bad {|{"unterminated": "|}

let test_summary_renders () =
  let _result, events = traced_events ~threshold:50 hot_loop_src in
  let s = Summary.render events in
  let contains needle =
    let n = String.length needle and h = String.length s in
    let rec go i = i + n <= h && (String.sub s i n = needle || go (i + 1)) in
    go 0
  in
  checkb "mentions event counts" true (contains "event counts:");
  checkb "mentions regions" true (contains "regions:");
  checkb "mentions optimisation rounds" true (contains "optimisation rounds:")

let test_memory_sink_limit () =
  let sink, buffer = Sink.memory ~limit:10 () in
  for i = 1 to 25 do
    sink.Sink.emit ~step:i (Event.Region_entry { region = 0 })
  done;
  checki "kept limit" 10 (List.length (Sink.contents buffer));
  checki "dropped rest" 15 (Sink.dropped buffer);
  checkb "kept the oldest" true
    ((List.hd (Sink.contents buffer)).Event.step = 1)

let suite =
  [
    ("event ordering", `Quick, test_event_ordering);
    ("event counts match counters", `Quick, test_event_counts_match_counters);
    ("adaptive dissolution events", `Quick, test_adaptive_dissolution_events);
    ("null sink result identical", `Quick, test_null_sink_result_identical);
    ("tracing does not change result", `Quick,
     test_tracing_does_not_change_result);
    ("metrics registry", `Quick, test_metrics_registry);
    ("collect sink metrics", `Quick, test_collect_sink_metrics);
    ("jsonl export valid", `Quick, test_jsonl_export_valid);
    ("chrome trace valid json", `Quick, test_chrome_trace_valid_json);
    ("json validator", `Quick, test_json_validator);
    ("summary renders", `Quick, test_summary_renders);
    ("memory sink limit", `Quick, test_memory_sink_limit);
  ]
