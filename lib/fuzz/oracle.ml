module Machine = Tpdbt_vm.Machine
module Engine = Tpdbt_dbt.Engine
module Block_map = Tpdbt_dbt.Block_map
module Error = Tpdbt_dbt.Error
module Snapshot = Tpdbt_dbt.Snapshot
module Perf_model = Tpdbt_dbt.Perf_model
module Code_cache = Tpdbt_dbt.Code_cache
module Sink = Tpdbt_telemetry.Sink
module Event = Tpdbt_telemetry.Event
module Linear_solver = Tpdbt_numerics.Linear_solver
module Markov = Tpdbt_numerics.Markov
module Navep = Tpdbt_profiles.Navep
module Metrics = Tpdbt_profiles.Metrics

type divergence = { arm : string; kind : string; detail : string }

type verdict = {
  divergences : divergence list;
  skipped : string option;
  checks : int;
}

let mem_words = 1024
let max_steps = 200_000

(* ---- the config matrix -------------------------------------------------- *)

type arm = { label : string; config : Engine.config }

(* Low threshold and pool trigger so even 50-instruction programs cross
   the optimisation phase; a tiny bounded cache so eviction actually
   happens at fuzz scale. *)
let arm_config ?cache_capacity ?cache_policy ?shadow_sample ?adaptive
    ?(trace = false) ~threshold () =
  let c =
    Engine.config ~pool_trigger:4 ?cache_capacity ?cache_policy ?shadow_sample
      ?adaptive ~threshold ()
  in
  { c with Engine.max_steps; trace_scheduling = trace }

let arms =
  [
    { label = "t0"; config = arm_config ~threshold:0 () };
    { label = "t2"; config = arm_config ~threshold:2 () };
    { label = "t8"; config = arm_config ~threshold:8 () };
    {
      label = "t2-lru";
      config =
        arm_config ~cache_capacity:32 ~cache_policy:Code_cache.Lru ~threshold:2
          ();
    };
    {
      label = "t2-flush";
      config =
        arm_config ~cache_capacity:32 ~cache_policy:Code_cache.Flush_all
          ~threshold:2 ();
    };
    {
      label = "t2-hot";
      config =
        arm_config ~cache_capacity:32 ~cache_policy:Code_cache.Hot_protect
          ~threshold:2 ();
    };
    { label = "t2-shadow"; config = arm_config ~shadow_sample:2 ~threshold:2 () };
    { label = "t2-adaptive"; config = arm_config ~adaptive:true ~threshold:2 () };
    { label = "t2-trace"; config = arm_config ~trace:true ~threshold:2 () };
  ]

let arm_labels = List.map (fun a -> a.label) arms

(* Arms whose cold-translation count must be identical: unbounded cache
   (no eviction/retranslation) and no region dissolution (adaptive mode
   re-instruments dissolved members). *)
let translation_invariant = [ "t0"; "t2"; "t8"; "t2-shadow"; "t2-trace" ]

(* Arms that never touch the machine, so one driver can feed them all:
   every arm but the shadow oracle's, which reads the registers. *)
let one_pass =
  [
    "t0"; "t2"; "t8"; "t2-lru"; "t2-flush"; "t2-hot"; "t2-adaptive"; "t2-trace";
  ]

(* Everything a run reports, as text, so a divergence names its line. *)
let run_text (r : Engine.result) =
  let w = Tpdbt_durable.Durable.Writer.create () in
  let line fmt = Tpdbt_durable.Durable.Writer.line w fmt in
  line "steps %d" r.Engine.steps;
  Tpdbt_durable.Durable.Writer.ints w "outputs"
    (Array.of_list r.Engine.outputs);
  line "error %s"
    (match r.Engine.error with None -> "none" | Some e -> Error.to_string e);
  Perf_model.write_counters w r.Engine.counters;
  List.iter
    (fun (id, (s : Engine.region_stats)) ->
      line "regstat %d %d %d %d %d" id s.Engine.entries s.Engine.side_exits
        s.Engine.loop_back_taken s.Engine.loop_back_seen)
    r.Engine.region_stats;
  Tpdbt_durable.Durable.Writer.section w "profile"
    (Tpdbt_profiles.Profile_io.to_string r.Engine.snapshot);
  Tpdbt_durable.Durable.Writer.contents w

let first_difference a b =
  let la = String.split_on_char '\n' a and lb = String.split_on_char '\n' b in
  let rec go i = function
    | x :: xs, y :: ys ->
        if String.equal x y then go (i + 1) (xs, ys) else Some (i, x, y)
    | x :: _, [] -> Some (i, x, "<end>")
    | [], y :: _ -> Some (i, "<end>", y)
    | [], [] -> None
  in
  go 1 (la, lb)

(* ---- running one engine configuration ----------------------------------- *)

(* An exception escaping the engine is exactly what the fuzzer hunts:
   report it as data, never let it abort the campaign. *)
let run_engine config ~seed program =
  match
    let eng = Engine.create ~config ~mem_words ~seed program in
    let res = Engine.run eng in
    (res, Engine.machine eng)
  with
  | res, m -> Ok (res, m)
  | exception exn -> Error (Printexc.to_string exn)

let fingerprint_of (res : Engine.result) m =
  let status =
    Fingerprint.status_of_error res.Engine.error ~halted:(Machine.halted m)
  in
  Fingerprint.of_machine ~status ~mem_words m

(* ---- the analysis arm ---------------------------------------------------- *)

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

(* NAVEP's system solved sparse and dense: the same bits, or both
   refused. *)
let sparse_equals_dense (sys : Markov.system) =
  match
    ( Linear_solver.sparse_gauss sys.Markov.rows sys.Markov.rhs,
      Linear_solver.gauss
        (Linear_solver.to_matrix sys.Markov.rows)
        sys.Markov.rhs )
  with
  | Ok x, Ok y -> same_bits x y
  | Error _, Error _ -> true
  | Ok _, Error _ | Error _, Ok _ -> false

(* [gauss] and [jacobi] on the system scaled so its right-hand side
   peaks at 1 (Jacobi's 1e-12 tolerance is absolute, and frequencies
   run to the thousands): the largest difference, or [None] where
   Jacobi does not converge within its budget. *)
let jacobi_gap (sys : Markov.system) =
  let peak =
    Array.fold_left (fun m v -> max m (abs_float v)) 0.0 sys.Markov.rhs
  in
  let rhs =
    if peak > 0.0 then Array.map (fun v -> v /. peak) sys.Markov.rhs
    else sys.Markov.rhs
  in
  let a = Linear_solver.to_matrix sys.Markov.rows in
  match
    (Linear_solver.gauss a rhs, Linear_solver.jacobi ~max_iters:2_000 a rhs)
  with
  | Ok g, Ok j ->
      Some
        (Array.fold_left max 0.0
           (Array.map2 (fun x y -> abs_float (x -. y)) g j))
  | (Error _, _ | _, Error _) -> None

(* ---- the check ---------------------------------------------------------- *)

let check ?(perturb = fun ~arm:_ fp -> fp) ~seed program =
  match Block_map.build_result program with
  | Error e -> { divergences = []; skipped = Some (Error.to_string e); checks = 0 }
  | Ok _ -> (
      (* Reference semantics: the pure interpreter. *)
      let ref_m = Machine.create ~mem_words ~seed program in
      let ref_result = Machine.run ~max_steps ref_m in
      let ref_halted = Machine.halted ref_m in
      match ref_result with
      | Ok () when not ref_halted ->
          (* Only degenerate shrink candidates get here (generated
             programs terminate by construction); the engine checks its
             budget at block granularity, so step counts could not be
             compared meaningfully anyway. *)
          {
            divergences = [];
            skipped = Some "reference run outlived the step budget";
            checks = 0;
          }
      | _ ->
          let reference =
            let status = Fingerprint.status_of_run ref_result ~halted:ref_halted in
            Fingerprint.of_machine ~status ~mem_words ref_m
          in
          let divs = ref [] in
          let checks = ref 0 in
          let report arm kind detail = divs := { arm; kind; detail } :: !divs in
          let expect arm kind detail cond =
            incr checks;
            if not cond then report arm kind (detail ())
          in
          (* Per-arm: state comparison + local invariants. *)
          let per_arm a =
            match run_engine a.config ~seed program with
            | Error msg ->
                incr checks;
                report a.label "crash" msg;
                None
            | Ok (res, m) ->
                let raw = fingerprint_of res m in
                let fp = perturb ~arm:a.label raw in
                incr checks;
                let d = Fingerprint.diff reference fp in
                if d <> [] then report a.label "state" (String.concat "; " d);
                let c = res.Engine.counters in
                expect a.label "metamorphic:region-accounting"
                  (fun () ->
                    Printf.sprintf "completions %d + side exits %d > entries %d"
                      c.Perf_model.region_completions c.Perf_model.side_exits
                      c.Perf_model.region_entries)
                  (c.Perf_model.region_completions + c.Perf_model.side_exits
                  <= c.Perf_model.region_entries);
                if a.config.Engine.cache_capacity = None then
                  expect a.label "metamorphic:unbounded-cache-churn"
                    (fun () ->
                      Printf.sprintf "%d evictions, %d flushes with no capacity"
                        c.Perf_model.cache_evictions c.Perf_model.cache_flushes)
                    (c.Perf_model.cache_evictions = 0
                    && c.Perf_model.cache_flushes = 0);
                Some (a, res, raw)
            in
          let runs = List.filter_map per_arm arms in
          let find label =
            List.find_opt (fun (a, _, _) -> String.equal a.label label) runs
          in
          (* Cross-arm invariants, all anchored on the profiling-only arm. *)
          (match find "t0" with
          | None -> ()
          | Some (_, t0, _) ->
              List.iter
                (fun (a, res, _) ->
                  if a.label <> "t0" then
                    expect a.label "metamorphic:profiling-monotone"
                      (fun () ->
                        Printf.sprintf "profiling ops %d > t0's %d"
                          res.Engine.profiling_ops t0.Engine.profiling_ops)
                      (res.Engine.profiling_ops <= t0.Engine.profiling_ops))
                runs;
              List.iter
                (fun (a, res, _) ->
                  if
                    List.mem a.label translation_invariant && a.label <> "t0"
                  then
                    expect a.label "metamorphic:translation-invariant"
                      (fun () ->
                        Printf.sprintf "%d blocks translated vs t0's %d"
                          res.Engine.counters.Perf_model.blocks_translated
                          t0.Engine.counters.Perf_model.blocks_translated)
                      (res.Engine.counters.Perf_model.blocks_translated
                      = t0.Engine.counters.Perf_model.blocks_translated))
                runs;
              if t0.Engine.error = None then
                (* AVEP partition: with no regions every executed
                   instruction is profiled in exactly one block. *)
                let snap = t0.Engine.snapshot in
                let attributed =
                  List.fold_left
                    (fun acc (b : Block_map.block) ->
                      acc + (snap.Snapshot.use.(b.Block_map.id) * b.Block_map.size))
                    0
                    (Block_map.blocks snap.Snapshot.block_map)
                in
                expect "t0" "metamorphic:avep-partition"
                  (fun () ->
                    Printf.sprintf "use-weighted block sizes %d <> steps %d"
                      attributed t0.Engine.steps)
                  (attributed = t0.Engine.steps));
          (* Telemetry must be observation only: re-run one optimizing
             arm with a live sink and demand the identical run, and that
             the per-stage step attribution partitions the step count. *)
          (match find "t2" with
          | None -> ()
          | Some (a, res, raw) -> (
              let stage_steps = ref 0 in
              let sink =
                Sink.of_fun (fun ~step:_ ev ->
                    match ev with
                    | Event.Stage_cost { steps; _ } ->
                        stage_steps := !stage_steps + steps
                    | _ -> ())
              in
              match
                run_engine { a.config with Engine.sink } ~seed program
              with
              | Error msg -> report "t2+sink" "crash" msg
              | Ok (sres, sm) ->
                  let sfp = fingerprint_of sres sm in
                  incr checks;
                  let d = Fingerprint.diff raw sfp in
                  if d <> [] then
                    report "t2+sink" "metamorphic:sink-identity"
                      (String.concat "; " d);
                  expect "t2+sink" "metamorphic:sink-identity"
                    (fun () ->
                      Printf.sprintf
                        "cycles %.1f vs %.1f, profiling ops %d vs %d"
                        sres.Engine.counters.Perf_model.cycles
                        res.Engine.counters.Perf_model.cycles
                        sres.Engine.profiling_ops res.Engine.profiling_ops)
                    (Float.equal sres.Engine.counters.Perf_model.cycles
                       res.Engine.counters.Perf_model.cycles
                    && sres.Engine.profiling_ops = res.Engine.profiling_ops);
                  expect "t2+sink" "metamorphic:stage-partition"
                    (fun () ->
                      Printf.sprintf "stage steps sum %d <> steps %d"
                        !stage_steps sres.Engine.steps)
                    (!stage_steps = sres.Engine.steps)));
          (* One pass: the machine-independent arms as members of one
             group, fed by one interpretation of the guest, must each
             report exactly what their own run reported. *)
          (let members =
             List.filter_map
               (fun label ->
                 Option.map (fun (a, res, _) -> (a, res)) (find label))
               one_pass
           in
           if members <> [] then
             match
               let g =
                 Engine.Group.create ~mem_words ~seed program
                   (List.map (fun (a, _) -> a.config) members)
               in
               ignore (Engine.Group.run g);
               Engine.Group.results g
             with
             | exception exn ->
                 incr checks;
                 report "one-pass" "crash" (Printexc.to_string exn)
             | results ->
                 List.iter2
                   (fun (a, res) grouped ->
                     let d () =
                       match
                         first_difference (run_text res) (run_text grouped)
                       with
                       | Some (line, alone, one) ->
                           Printf.sprintf "%s line %d: alone %S, one pass %S"
                             a.label line alone one
                       | None -> a.label
                     in
                     expect "one-pass" "metamorphic:one-pass" d
                       (String.equal (run_text res) (run_text grouped)))
                   members results);
          (* Analysis: NAVEP and the metrics over this case's profiles,
             AVEP from the profiling-only arm and INIP from each other
             arm.  The system NAVEP solves must come out of the sparse
             solve bit for bit as out of dense [gauss], and within 1e-6
             of Jacobi wherever Jacobi converges; each block's copies
             must sum to its AVEP frequency; and a run whose threshold
             exceeds its step count must be AVEP itself, every Sd and
             mismatch exactly 0. *)
          (match find "t0" with
          | None -> ()
          | Some (_, t0, _) -> (
              let avep = t0.Engine.snapshot in
              List.iter
                (fun (a, res, _) ->
                  if a.label <> "t0" then begin
                    let inip = res.Engine.snapshot in
                    let navep = Navep.build ~inip ~avep in
                    let sys = Navep.system navep in
                    let unknowns = Array.length sys.Markov.unknowns in
                    if unknowns > 0 then begin
                      expect "analysis" "metamorphic:navep-sparse"
                        (fun () ->
                          Printf.sprintf
                            "%s: sparse and dense solves differ (%d unknowns)"
                            a.label unknowns)
                        (sparse_equals_dense sys);
                      match jacobi_gap sys with
                      | None -> ()
                      | Some gap ->
                          expect "analysis" "metamorphic:gauss-jacobi"
                            (fun () ->
                              Printf.sprintf "%s: gauss and jacobi differ by %g"
                                a.label gap)
                            (gap <= 1e-6)
                    end;
                    let unbalanced =
                      List.find_map
                        (fun block ->
                          let expected = Snapshot.block_freq avep block in
                          let total = Navep.total_block_freq navep block in
                          let slack = 1e-6 *. (1.0 +. expected) in
                          if abs_float (total -. expected) > slack then
                            Some
                              (Printf.sprintf
                                 "%s: block %d's copies sum to %g, AVEP %g"
                                 a.label block total expected)
                          else None)
                        (List.init
                           (Block_map.block_count avep.Snapshot.block_map)
                           Fun.id)
                    in
                    expect "analysis" "metamorphic:navep-flow"
                      (fun () -> Option.value unbalanced ~default:"")
                      (unbalanced = None)
                  end)
                runs;
              let late = arm_config ~threshold:(t0.Engine.steps + 1) () in
              match run_engine late ~seed program with
              | Error msg ->
                  incr checks;
                  report "analysis" "crash" msg
              | Ok (res, _) ->
                  let inip = res.Engine.snapshot in
                  expect "analysis" "metamorphic:late-threshold-counters"
                    (fun () ->
                      Printf.sprintf
                        "threshold %d: %d regions, counters %s AVEP's"
                        late.Engine.threshold
                        (List.length inip.Snapshot.regions)
                        (if inip.Snapshot.use = avep.Snapshot.use
                            && inip.Snapshot.taken = avep.Snapshot.taken
                         then "equal" else "differ from"))
                    (inip.Snapshot.regions = []
                    && inip.Snapshot.use = avep.Snapshot.use
                    && inip.Snapshot.taken = avep.Snapshot.taken);
                  let c = Metrics.compare_snapshots ~inip ~avep in
                  expect "analysis" "metamorphic:late-threshold-metrics"
                    (fun () -> Format.asprintf "%a" Metrics.pp_comparison c)
                    (List.for_all
                       (fun v -> v = 0.0)
                       [
                         c.Metrics.sd_bp;
                         c.Metrics.sd_cp;
                         c.Metrics.sd_lp;
                         c.Metrics.bp_mismatch;
                         c.Metrics.lp_mismatch;
                       ])));
          (* Suspend/resume identity: stop the optimizing arm at a
             seeded guest instruction, round-trip the engine image
             through its serialized text (capture -> to_string ->
             of_string -> restore), complete the run and demand the
             uninterrupted arm's exact fingerprint and cycle count.
             The suspension point is a pure function of the case seed,
             so the verdict stays deterministic at every job count. *)
          (match find "t2" with
          | Some (a, res, raw) when res.Engine.steps > 0 -> (
              let module Snap = Tpdbt_dbt.Exec_snapshot in
              let suspend_at =
                1
                + Int64.(
                    to_int
                      (rem (logand seed 0x7FFFFFFFL) (of_int res.Engine.steps)))
              in
              let sus_config =
                {
                  a.config with
                  Engine.deadline = Some suspend_at;
                  suspend_on_deadline = true;
                }
              in
              match
                let eng =
                  Engine.create ~config:sus_config ~mem_words ~seed program
                in
                let first = Engine.run eng in
                match first.Engine.error with
                | Some (Error.Suspended _) -> (
                    let text =
                      Snap.to_string ~config:sus_config ~program
                        (Engine.capture eng)
                    in
                    match
                      Tpdbt_durable.Durable.to_result ~what:"snapshot"
                        (Snap.of_string text)
                    with
                    | Ok parsed -> (
                        (* The resume re-arms no triggers; the digest
                           check must accept that (triggers are
                           excluded from it by design). *)
                        match Snap.restore ~config:a.config ~program parsed with
                        | Ok resumed ->
                            let fin = Engine.run resumed in
                            Ok (Some (fin, Engine.machine resumed))
                        | Error msg -> Error ("restore rejected: " ^ msg))
                    | Error msg -> Error msg)
                | _ ->
                    (* The program halted before the next dispatch
                       poll; nothing was interrupted. *)
                    Ok None
              with
              | exception exn ->
                  incr checks;
                  report "t2-resume" "crash" (Printexc.to_string exn)
              | Error msg ->
                  incr checks;
                  report "t2-resume" "metamorphic:resume-roundtrip" msg
              | Ok None -> ()
              | Ok (Some (fin, m)) ->
                  incr checks;
                  let d = Fingerprint.diff raw (fingerprint_of fin m) in
                  if d <> [] then
                    report "t2-resume" "metamorphic:resume-identity"
                      (String.concat "; " d);
                  expect "t2-resume" "metamorphic:resume-identity"
                    (fun () ->
                      Printf.sprintf "cycles %.1f vs uninterrupted %.1f"
                        fin.Engine.counters.Perf_model.cycles
                        res.Engine.counters.Perf_model.cycles)
                    (Float.equal fin.Engine.counters.Perf_model.cycles
                       res.Engine.counters.Perf_model.cycles))
          | Some _ | None -> ());
          { divergences = List.rev !divs; skipped = None; checks = !checks })
