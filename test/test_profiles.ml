(* Tests for the profile-analysis layer: region probabilities, NAVEP
   normalisation and the paper's metrics. *)

module Assembler = Tpdbt_isa.Assembler
module Engine = Tpdbt_dbt.Engine
module Snapshot = Tpdbt_dbt.Snapshot
module Region = Tpdbt_dbt.Region
module Block_map = Tpdbt_dbt.Block_map
module Region_prob = Tpdbt_profiles.Region_prob
module Navep = Tpdbt_profiles.Navep
module Metrics = Tpdbt_profiles.Metrics
module Durable = Tpdbt_durable.Durable

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string
let checkf msg = Alcotest.check (Alcotest.float 1e-6) msg
let checkf2 msg = Alcotest.check (Alcotest.float 1e-2) msg

(* ------------------------------------------------------------------ *)
(* Region probabilities                                                 *)
(* ------------------------------------------------------------------ *)

let test_edge_probability () =
  checkf "taken" 0.8 (Region_prob.edge_probability Region.Taken ~branch_prob:(Some 0.8));
  checkf "not taken" 0.2
    (Region_prob.edge_probability Region.Not_taken ~branch_prob:(Some 0.8));
  checkf "always" 1.0
    (Region_prob.edge_probability Region.Always ~branch_prob:(Some 0.8));
  checkf "missing prob defaults" 0.5
    (Region_prob.edge_probability Region.Taken ~branch_prob:None)

let mk_region ?(kind = Region.Trace) ?(edges = []) ?(back_edges = []) n =
  {
    Region.id = 0;
    kind;
    slots = Array.init n (fun i -> 100 + i);
    edges;
    back_edges;
    frozen_use = Array.make n 0;
    frozen_taken = Array.make n 0;
  }

let test_completion_singleton () =
  let region = mk_region 1 in
  checkf "singleton completes" 1.0
    (Region_prob.completion_probability (Region.layout region) ~prob:(fun _ -> None))

let test_completion_chain () =
  (* Two-block trace taken with probability 0.9: CP = 0.9. *)
  let region =
    mk_region 2 ~edges:[ { Region.src = 0; dst = 1; role = Region.Taken } ]
  in
  let prob slot = if slot = 0 then Some 0.9 else None in
  checkf "chain" 0.9 (Region_prob.completion_probability (Region.layout region) ~prob)

let test_loopback_singleton () =
  (* Self loop with back probability 0.95. *)
  let region =
    mk_region ~kind:Region.Loop 1
      ~back_edges:[ { Region.src = 0; dst = 0; role = Region.Taken } ]
  in
  checkf "self loop" 0.95
    (Region_prob.loopback_probability (Region.layout region) ~prob:(fun _ -> Some 0.95))

let test_loopback_no_back_edges () =
  let region = mk_region 2 ~edges:[ { Region.src = 0; dst = 1; role = Region.Always } ] in
  checkf "no back edges" 0.0
    (Region_prob.loopback_probability (Region.layout region) ~prob:(fun _ -> Some 0.5))

let test_loopback_two_paths () =
  (* entry -T(0.6)-> a, entry -N(0.4)-> b; a loops back with 0.9, b with
     0.95: LP = 0.6*0.9 + 0.4*0.95 = 0.92. *)
  let region =
    mk_region ~kind:Region.Loop 3
      ~edges:
        [
          { Region.src = 0; dst = 1; role = Region.Taken };
          { Region.src = 0; dst = 2; role = Region.Not_taken };
        ]
      ~back_edges:
        [
          { Region.src = 1; dst = 0; role = Region.Taken };
          { Region.src = 2; dst = 0; role = Region.Taken };
        ]
  in
  let prob = function 0 -> Some 0.6 | 1 -> Some 0.9 | 2 -> Some 0.95 | _ -> None in
  checkf "two-path loop-back" 0.92
    (Region_prob.loopback_probability (Region.layout region) ~prob)

let test_trip_count_conversion () =
  checkf "lp .9 -> 10" 10.0 (Region_prob.trip_count_of_loopback 0.9);
  checkf "lp .98 -> 50" 50.0 (Region_prob.trip_count_of_loopback 0.98);
  checkf "lp 1 capped" 1e9 (Region_prob.trip_count_of_loopback 1.0);
  checkb "low" true (Region_prob.classify_loopback 0.5 = Region_prob.Low);
  checkb "medium" true (Region_prob.classify_loopback 0.95 = Region_prob.Medium);
  checkb "high" true (Region_prob.classify_loopback 0.99 = Region_prob.High);
  checkb "classify trips" true
    (Region_prob.classify_trip_count 9.0 = Region_prob.Low
    && Region_prob.classify_trip_count 10.0 = Region_prob.Medium
    && Region_prob.classify_trip_count 51.0 = Region_prob.High)

(* ------------------------------------------------------------------ *)
(* Ranges                                                               *)
(* ------------------------------------------------------------------ *)

let test_bp_ranges () =
  checki "low" 0 (Metrics.bp_range 0.0);
  checki "low edge" 0 (Metrics.bp_range 0.29);
  checki "mid" 1 (Metrics.bp_range 0.3);
  checki "mid high" 1 (Metrics.bp_range 0.7);
  checki "high" 2 (Metrics.bp_range 0.71);
  (* The paper's example: 0.99 vs 0.76 match, 0.68 vs 0.78 mismatch. *)
  checkb "paper match" true (Metrics.bp_range 0.99 = Metrics.bp_range 0.76);
  checkb "paper mismatch" true (Metrics.bp_range 0.68 <> Metrics.bp_range 0.78)

let test_lp_ranges () =
  checki "low trip" 0 (Metrics.lp_range 0.5);
  checki "medium trip" 1 (Metrics.lp_range 0.9);
  checki "medium trip high" 1 (Metrics.lp_range 0.98);
  checki "high trip" 2 (Metrics.lp_range 0.99)

(* ------------------------------------------------------------------ *)
(* NAVEP on a real nested-loop program (the paper's Fig 1 situation)    *)
(* ------------------------------------------------------------------ *)

(* Nested loops sharing the inner block: the outer loop region and inner
   loop region can both contain the inner body, giving duplication. *)
let nested_loop_src =
  {|
.entry main
main:
    movi r1, 0
    movi r2, 3000
outer:
    movi r3, 0
    movi r4, 20
inner:
    addi r5, r5, 1
    addi r3, r3, 1
    blt r3, r4, inner
    addi r1, r1, 1
    blt r1, r2, outer
    out r5
    halt
|}

let nested_profiles threshold =
  let p = Assembler.assemble_exn nested_loop_src in
  let inip =
    Engine.run (Engine.create ~config:(Engine.config ~threshold ()) ~seed:5L p)
  in
  let avep = Engine.run (Engine.create ~config:Engine.profiling_only ~seed:5L p) in
  (inip.Engine.snapshot, avep.Engine.snapshot)

let test_navep_nested_loops () =
  let inip, avep = nested_profiles 30 in
  checkb "regions formed" true (inip.Snapshot.regions <> []);
  let navep = Navep.build ~inip ~avep in
  (* Invariant: for every block, the copies' frequencies sum to the
     block's AVEP frequency. *)
  let bmap = inip.Snapshot.block_map in
  for block = 0 to Block_map.block_count bmap - 1 do
    let copies = Navep.copies_of_block navep block in
    if copies <> [] && Snapshot.block_freq avep block > 0.0 then begin
      let total = Navep.total_block_freq navep block in
      let expected = Snapshot.block_freq avep block in
      checkf2
        (Printf.sprintf "block %d copies sum to AVEP freq" block)
        1.0
        (total /. expected)
    end
  done

let test_navep_every_slot_has_node () =
  let inip, avep = nested_profiles 30 in
  let navep = Navep.build ~inip ~avep in
  List.iter
    (fun region ->
      Array.iteri
        (fun slot _ ->
          checkb "slot node exists" true
            (Navep.node_of_slot navep ~region:region.Region.id ~slot <> None))
        region.Region.slots)
    inip.Snapshot.regions

let test_navep_nonnegative_freqs () =
  let inip, avep = nested_profiles 30 in
  let navep = Navep.build ~inip ~avep in
  List.iter
    (fun (c : Navep.copy) ->
      checkb "freq >= 0" true (Navep.freq navep c.Navep.node >= 0.0))
    (Navep.copies navep)

let test_navep_no_regions_is_identity () =
  (* With a profiling-only INIP, every block is standalone and NAVEP
     frequencies equal AVEP frequencies. *)
  let _, avep = nested_profiles 30 in
  let navep = Navep.build ~inip:avep ~avep in
  checkb "no fallback" true (not (Navep.used_fallback navep));
  let bmap = avep.Snapshot.block_map in
  for block = 0 to Block_map.block_count bmap - 1 do
    match Navep.node_of_standalone navep block with
    | None -> Alcotest.fail "standalone node missing"
    | Some node ->
        checkf
          (Printf.sprintf "block %d identity" block)
          (Snapshot.block_freq avep block)
          (Navep.freq navep node)
  done

(* ------------------------------------------------------------------ *)
(* Metrics end-to-end sanity                                            *)
(* ------------------------------------------------------------------ *)

let stable_branch_src =
  {|
.entry main
main:
    movi r1, 0
    movi r2, 30000
loop:
    rnd r3, 1000
    movi r4, 800
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

let profiles_of src threshold seed =
  let p = Assembler.assemble_exn src in
  let inip =
    Engine.run (Engine.create ~config:(Engine.config ~threshold ()) ~seed p)
  in
  let avep = Engine.run (Engine.create ~config:Engine.profiling_only ~seed p) in
  (inip.Engine.snapshot, avep.Engine.snapshot)

let test_metrics_stable_program_accurate () =
  let inip, avep = profiles_of stable_branch_src 100 7L in
  let c = Metrics.compare_snapshots ~inip ~avep in
  checkb "sd_bp small for stable branches"
    true (c.Metrics.sd_bp < 0.1);
  checkb "no bp mismatch" true (c.Metrics.bp_mismatch < 0.05);
  checkb "samples present" true (c.Metrics.bp_samples > 0)

let test_metrics_self_comparison_zero () =
  let _, avep = profiles_of stable_branch_src 100 7L in
  let c = Metrics.compare_snapshots ~inip:avep ~avep in
  checkf "sd zero vs self" 0.0 c.Metrics.sd_bp;
  checkf "mismatch zero vs self" 0.0 c.Metrics.bp_mismatch

let phase_flip_src =
  {|
.entry main
main:
    movi r1, 0
    movi r2, 30000
    movi r7, 1000
loop:
    blt r1, r7, early
    addi r5, r5, 1
    jmp join
early:
    addi r6, r6, 1
join:
    addi r1, r1, 1
    blt r1, r2, loop
    halt
|}

let test_metrics_phase_change_detected () =
  (* A branch taken 100% early and 0% late: a small-threshold profile
     must disagree strongly with AVEP. *)
  let inip, avep = profiles_of phase_flip_src 50 7L in
  let c = Metrics.compare_snapshots ~inip ~avep in
  checkb
    (Printf.sprintf "sd_bp large on phase change (%.3f)" c.Metrics.sd_bp)
    true (c.Metrics.sd_bp > 0.3);
  checkb "mismatch too" true (c.Metrics.bp_mismatch > 0.1)

let test_metrics_accuracy_improves_with_threshold () =
  let _, avep = profiles_of phase_flip_src 50 7L in
  let sd_at threshold =
    let inip, _ = profiles_of phase_flip_src threshold 7L in
    (Metrics.compare_snapshots ~inip ~avep).Metrics.sd_bp
  in
  checkb "longer profile more accurate" true (sd_at 8000 < sd_at 50)

let test_metrics_flat_train () =
  let _, avep = profiles_of stable_branch_src 100 7L in
  let train, _ = profiles_of stable_branch_src 0 99L in
  let f = Metrics.compare_flat ~predicted:train ~avep in
  checkb "train flat sd small" true (f.Metrics.sd_bp < 0.1);
  checkb "train samples" true (f.Metrics.bp_samples > 0)

let test_metrics_lp_on_loops () =
  let inip, avep = nested_profiles 30 in
  let c = Metrics.compare_snapshots ~inip ~avep in
  checkb "has loop regions" true (c.Metrics.lp_samples > 0);
  checkb "stable loop lp accurate" true (c.Metrics.sd_lp < 0.1)

(* -- Offline region formation (paper §5 future work) ----------------- *)

let test_offline_regions_formed () =
  let _, avep = nested_profiles 30 in
  let with_regions = Tpdbt_profiles.Offline_regions.form avep in
  checkb "regions formed offline" true
    (with_regions.Snapshot.regions <> []);
  List.iter
    (fun region ->
      checkb "offline region valid" true (Result.is_ok (Region.validate region)))
    with_regions.Snapshot.regions;
  (* Counters are untouched. *)
  checkb "counters preserved" true
    (with_regions.Snapshot.use = avep.Snapshot.use)

let test_offline_regions_find_the_loop () =
  let _, avep = nested_profiles 30 in
  let with_regions = Tpdbt_profiles.Offline_regions.form avep in
  checkb "a loop region exists" true
    (List.exists
       (fun r -> r.Region.kind = Region.Loop)
       with_regions.Snapshot.regions)

let test_offline_regions_empty_profile () =
  let program =
    Tpdbt_isa.Assembler.assemble_exn "main:\n    halt\n"
  in
  let snapshot =
    {
      Snapshot.block_map = Block_map.build program;
      use = [| 0 |];
      taken = [| 0 |];
      regions = [];
    }
  in
  let formed = Tpdbt_profiles.Offline_regions.form snapshot in
  checkb "no regions from an empty profile" true
    (formed.Snapshot.regions = [])

let test_train_cp_lp () =
  (* Offline train regions against AVEP on a stable program: CP/LP must
     be predicted accurately. *)
  let inip, avep = nested_profiles 0 in
  ignore inip;
  let c =
    Tpdbt_profiles.Offline_regions.train_cp_lp ~train:avep ~avep
  in
  checkb "train regions comparable" true (c.Metrics.lp_samples > 0);
  Alcotest.check (Alcotest.float 1e-9) "self train sd_lp" 0.0 c.Metrics.sd_lp;
  Alcotest.check (Alcotest.float 1e-9) "self train sd_cp" 0.0 c.Metrics.sd_cp

(* -- Report ------------------------------------------------------------ *)

(* Minimal substring search so the test does not need extra deps. *)
let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_report_render () =
  let inip, avep = nested_profiles 30 in
  let text = Tpdbt_profiles.Report.render ~avep inip in
  checkb "mentions regions" true
    (List.exists
       (fun line ->
         String.length line > 8 && String.sub (String.trim line) 0 4 = "loop")
       (String.split_on_char '\n' text));
  checkb "mentions hottest" true
    (String.length text > 100)

let test_report_hottest_sorted () =
  let _, avep = nested_profiles 30 in
  let hot = Tpdbt_profiles.Report.hottest_blocks ~limit:5 avep in
  checkb "limited" true (List.length hot <= 5);
  let rec descending = function
    | (_, a, _) :: ((_, b, _) :: _ as rest) -> a >= b && descending rest
    | [ _ ] | [] -> true
  in
  checkb "descending use" true (descending hot)

let test_report_region_mismatch_flagged () =
  (* A loop region whose frozen trip class differs from AVEP's must
     render the word MISMATCH. *)
  let region =
    {
      Region.id = 9;
      kind = Region.Loop;
      slots = [| 0 |];
      edges = [];
      back_edges = [ { Region.src = 0; dst = 0; role = Region.Taken } ];
      frozen_use = [| 1000 |];
      frozen_taken = [| 995 |];  (* trip ~200: high *)
    }
  in
  let program = Tpdbt_isa.Assembler.assemble_exn "a:\n beq r1, r1, a\n halt" in
  let bmap = Block_map.build program in
  let snapshot =
    { Snapshot.block_map = bmap; use = [| 1000; 0 |]; taken = [| 995; 0 |]; regions = [ region ] }
  in
  let avep =
    (* AVEP sees the loop back only half the time: low trip. *)
    { Snapshot.block_map = bmap; use = [| 1000; 0 |]; taken = [| 500; 0 |]; regions = [] }
  in
  let text = Tpdbt_profiles.Report.region_summary ~avep snapshot region in
  checkb "mismatch flagged" true (contains text "MISMATCH")

(* -- Phase detection --------------------------------------------------- *)

module Phases = Tpdbt_profiles.Phases

let checkpoint_series src ~every =
  let p = Assembler.assemble_exn src in
  let config = { Engine.profiling_only with Engine.snapshot_every = every } in
  Phases.series (Engine.create ~config ~seed:11L p)

let test_checkpoints_emitted () =
  let result, series = checkpoint_series stable_branch_src ~every:20_000 in
  checkb "several checkpoints" true (List.length series > 5);
  (* Steps strictly increasing, counters monotone. *)
  let rec check_mono prev_steps prev_use = function
    | [] -> ()
    | (steps, snap) :: rest ->
        checkb "steps increase" true (steps > prev_steps);
        Array.iteri
          (fun i u -> checkb "use monotone" true (u >= prev_use.(i)))
          snap.Snapshot.use;
        check_mono steps snap.Snapshot.use rest
  in
  let n = Array.length result.Engine.snapshot.Snapshot.use in
  check_mono 0 (Array.make n 0) series

let test_phases_windows () =
  let _, series = checkpoint_series stable_branch_src ~every:20_000 in
  let ws = Phases.windows series in
  checki "one window per checkpoint" (List.length series) (List.length ws);
  List.iter
    (fun w ->
      checkb "window extent" true (w.Phases.end_steps > w.Phases.start_steps);
      Array.iter (fun u -> checkb "window use nonneg" true (u >= 0)) w.Phases.use)
    ws

let test_phases_stable_program_quiet () =
  let result, series = checkpoint_series stable_branch_src ~every:20_000 in
  let bmap = result.Engine.snapshot.Snapshot.block_map in
  checkb "no change points in a stable program" true
    (Phases.change_points ~threshold:0.1 ~shift_threshold:0.45 bmap series = [])

let test_phases_detects_flip () =
  let result, series = checkpoint_series phase_flip_src ~every:20_000 in
  let bmap = result.Engine.snapshot.Snapshot.block_map in
  let points = Phases.change_points ~threshold:0.1 bmap series in
  checkb "flip detected" true (points <> []);
  (* The flip is at iteration 1000 of 30000 (~7 instrs/iter). *)
  let flip_zone steps = steps > 2_000 && steps < 60_000 in
  checkb "detected near the actual flip" true
    (List.exists (fun cp -> flip_zone cp.Phases.steps) points)

let test_phases_windows_reject_bad_series () =
  let _, series = checkpoint_series stable_branch_src ~every:50_000 in
  match series with
  | (s1, snap1) :: _ -> (
      match Phases.windows [ (s1, snap1); (s1, snap1) ] with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "non-increasing steps accepted")
  | [] -> Alcotest.fail "no checkpoints"

(* -- Profile files ---------------------------------------------------- *)

let test_profile_io_roundtrip () =
  let inip, avep = nested_profiles 30 in
  List.iter
    (fun snapshot ->
      match
        Tpdbt_profiles.Profile_io.of_string
          (Tpdbt_profiles.Profile_io.to_string snapshot)
      with
      | Error e -> Alcotest.fail (Tpdbt_dbt.Error.to_string e)
      | Ok loaded ->
          checkb "use roundtrip" true (loaded.Snapshot.use = snapshot.Snapshot.use);
          checkb "taken roundtrip" true
            (loaded.Snapshot.taken = snapshot.Snapshot.taken);
          checki "region count"
            (List.length snapshot.Snapshot.regions)
            (List.length loaded.Snapshot.regions);
          List.iter2
            (fun (a : Region.t) (b : Region.t) ->
              checkb "region slots" true (a.Region.slots = b.Region.slots);
              checkb "region kind" true (a.Region.kind = b.Region.kind);
              checkb "region edges" true (a.Region.edges = b.Region.edges);
              checkb "region backs" true
                (a.Region.back_edges = b.Region.back_edges);
              checkb "frozen" true
                (a.Region.frozen_use = b.Region.frozen_use
                && a.Region.frozen_taken = b.Region.frozen_taken))
            snapshot.Snapshot.regions loaded.Snapshot.regions;
          checki "block count"
            (Block_map.block_count snapshot.Snapshot.block_map)
            (Block_map.block_count loaded.Snapshot.block_map))
    [ inip; avep ]

let with_prof_file f =
  let path = Filename.temp_file "tpdbt" ".prof" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let write_prof path text =
  Out_channel.with_open_bin path (fun oc -> output_string oc text)

(* A standalone profile file is the version 1 text sealed as a durable
   record. *)
let seal_prof = Durable.seal ~magic:"TPDBT-PROFILE 2"

let tpdbt = Filename.concat (Filename.concat ".." "bin") "tpdbt.exe"

let tpdbt_exit args =
  match
    Unix.system
      (Filename.quote_command tpdbt args ~stdout:Filename.null
         ~stderr:Filename.null)
  with
  | Unix.WEXITED n -> n
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> -1

let test_profile_io_file_roundtrip () =
  let inip, _ = nested_profiles 30 in
  let saved = seal_prof (Tpdbt_profiles.Profile_io.to_string inip) in
  with_prof_file (fun path ->
      Tpdbt_profiles.Profile_io.save path inip;
      checks "the file is the sealed text" saved (Durable.read_file path);
      (match Tpdbt_profiles.Profile_io.load path with
      | Ok loaded ->
          checkb "file roundtrip" true (loaded.Snapshot.use = inip.Snapshot.use)
      | Error e -> Alcotest.fail (Tpdbt_dbt.Error.to_string e));
      (* A version 1 file, written before profiles were sealed, is
         refused by name rather than misread. *)
      write_prof path (Tpdbt_profiles.Profile_io.to_string inip);
      (match Tpdbt_profiles.Profile_io.load path with
      | Error (Tpdbt_dbt.Error.Corrupt_profile { field = "magic"; reason; _ })
        ->
          checkb "names the stale version" true
            (String.starts_with reason
               ~prefix:"stale profile version \"TPDBT-PROFILE 1\"")
      | Ok _ -> Alcotest.fail "loaded a version 1 file"
      | Error e -> Alcotest.fail (Tpdbt_dbt.Error.to_string e));
      if Sys.file_exists tpdbt then begin
        checki "tpdbt report rejects a version 1 file" 2
          (tpdbt_exit [ "report"; path ]);
        checki "tpdbt analyze rejects a version 1 file" 2
          (tpdbt_exit [ "analyze"; path; path ])
      end;
      (* The sealed-frame property through [load]: whatever the damage,
         a typed error, never an exception. *)
      let classify text =
        write_prof path text;
        match Tpdbt_profiles.Profile_io.load path with
        | Ok s -> Durable.Valid s
        | Error (Corrupt_profile { field = "magic"; line = 1; _ }) ->
            Durable.Stale_version (List.hd (String.split_on_char '\n' text))
        | Error (Corrupt_profile { field = "frame"; reason; _ }) ->
            Durable.Corrupt reason
        | Error e -> Durable.Corrupt (Tpdbt_dbt.Error.to_string e)
      in
      Sealed_frames.check "profile file" saved classify)

let test_profile_io_metrics_preserved () =
  (* Analysing loaded profiles must give the same metrics as in-memory
     snapshots. *)
  let inip, avep = nested_profiles 30 in
  let reload s =
    match
      Tpdbt_profiles.Profile_io.of_string (Tpdbt_profiles.Profile_io.to_string s)
    with
    | Ok s -> s
    | Error e -> Alcotest.fail (Tpdbt_dbt.Error.to_string e)
  in
  let direct = Metrics.compare_snapshots ~inip ~avep in
  let loaded =
    Metrics.compare_snapshots ~inip:(reload inip) ~avep:(reload avep)
  in
  checkf "sd_bp preserved" direct.Metrics.sd_bp loaded.Metrics.sd_bp;
  checkf "sd_lp preserved" direct.Metrics.sd_lp loaded.Metrics.sd_lp;
  checkf "sd_cp preserved" direct.Metrics.sd_cp loaded.Metrics.sd_cp

let test_profile_io_rejects_garbage () =
  let reject text =
    checkb (String.escaped (String.sub text 0 (min 25 (String.length text))))
      true
      (Result.is_error (Tpdbt_profiles.Profile_io.of_string text))
  in
  reject "";
  reject "NOT A PROFILE\n";
  reject "TPDBT-PROFILE 1\nblocks 1 entry 0\n";
  (* truncated *)
  reject
    "TPDBT-PROFILE 1\nblocks 1 entry 5\nblock 0 0 0 stop\ncounters\n0 1 0\nregions 0\n";
  (* entry out of range *)
  reject
    "TPDBT-PROFILE 1\nblocks 1 entry 0\nblock 0 0 0 stop\ncounters\n0 1 0\nregions 1\nregion 0 loop 1\nslot 0 0 5 3\n"
  (* loop without back edges fails region validation *)

let test_profile_io_typed_rejections () =
  (* Each malformed class must surface as a typed Corrupt_profile
     naming the offending field and line (0 = end of file). *)
  let expect_field text field line =
    match Tpdbt_profiles.Profile_io.of_string text with
    | Ok _ -> Alcotest.failf "accepted malformed profile (%s)" field
    | Error (Tpdbt_dbt.Error.Corrupt_profile c) ->
        Alcotest.(check string) ("field for " ^ field) field c.field;
        Alcotest.(check int) ("line for " ^ field) line c.line
    | Error other ->
        Alcotest.failf "wrong error class: %s" (Tpdbt_dbt.Error.to_string other)
  in
  (* truncated: counters section missing entries *)
  expect_field "TPDBT-PROFILE 1\nblocks 1 entry 0\nblock 0 0 0 stop\ncounters\n"
    "counter" 0;
  (* negative counter *)
  expect_field
    "TPDBT-PROFILE 1\nblocks 1 entry 0\nblock 0 0 0 stop\ncounters\n0 -3 0\nregions 0\n"
    "counter.use" 5;
  (* NaN / non-numeric counter *)
  expect_field
    "TPDBT-PROFILE 1\nblocks 1 entry 0\nblock 0 0 0 stop\ncounters\n0 nan 0\nregions 0\n"
    "counter.use" 5;
  (* taken exceeding use is impossible in a real profile *)
  expect_field
    "TPDBT-PROFILE 1\nblocks 1 entry 0\nblock 0 0 0 stop\ncounters\n0 1 2\nregions 0\n"
    "counter.taken" 5;
  (* out-of-range block id in the counter section *)
  expect_field
    "TPDBT-PROFILE 1\nblocks 1 entry 0\nblock 0 0 0 stop\ncounters\n7 1 0\nregions 0\n"
    "counter.id" 5;
  (* hostile block count: must be rejected, not handed to Array.make *)
  expect_field "TPDBT-PROFILE 1\nblocks 99999999999 entry 0\n" "blocks" 2;
  (* hostile slot count inside a region *)
  expect_field
    "TPDBT-PROFILE 1\nblocks 1 entry 0\nblock 0 0 0 stop\ncounters\n0 1 0\nregions 1\nregion 0 trace 2000001\n"
    "region.slots" 7;
  (* region slot referencing a nonexistent block *)
  expect_field
    "TPDBT-PROFILE 1\nblocks 1 entry 0\nblock 0 0 0 stop\ncounters\n0 1 0\nregions 1\nregion 0 trace 1\nslot 0 9 1 0\n"
    "slot.block" 8;
  (* two regions under one id: the analysis looks regions up by id *)
  let duplicate_ids =
    "TPDBT-PROFILE 1\nblocks 1 entry 0\nblock 0 0 0 stop\ncounters\n0 1 0\nregions 2\nregion 0 trace 1\nslot 0 0 1 0\nregion 0 trace 1\nslot 0 0 1 0\n"
  in
  expect_field duplicate_ids "region" 9;
  (* Extents: the last block's end pc sizes the pc index, so a huge one
     must be refused before [Array.make] sees it... *)
  let two_blocks last =
    "TPDBT-PROFILE 1\nblocks 2 entry 0\nblock 0 0 0 fall 1\n" ^ last
    ^ "\ncounters\n0 1 0\n1 1 0\nregions 0\n"
  in
  let past_max_int = two_blocks "block 1 1 4611686018427387903 stop" in
  let eight_gigabytes = two_blocks "block 1 1 1000000000 stop" in
  expect_field past_max_int "block.end_pc" 4;
  expect_field eight_gigabytes "block.end_pc" 4;
  (* ... and a terminator must name a block that exists. *)
  let dangling = two_blocks "block 1 1 1 goto 7" in
  expect_field dangling "blocks" 2;
  (* The CLI, reading the same bodies as sealed files, reaches the same
     checks and refuses each as invalid input. *)
  if Sys.file_exists tpdbt then
    with_prof_file (fun path ->
        List.iter
          (fun (what, args, body) ->
            write_prof path (seal_prof body);
            checki (what ^ " rejected as invalid input") 2 (tpdbt_exit args))
          [
            ("duplicate region ids", [ "analyze"; path; path ], duplicate_ids);
            ("end pc past max_int", [ "report"; path ], past_max_int);
            ("end pc of 8 GB", [ "report"; path ], eight_gigabytes);
            ("dangling terminator", [ "report"; path ], dangling);
          ]);
  (* load of a missing file is a typed I/O error *)
  match Tpdbt_profiles.Profile_io.load "/nonexistent/tpdbt.prof" with
  | Error (Tpdbt_dbt.Error.Io_error _) -> ()
  | Error other ->
      Alcotest.failf "wrong error class: %s" (Tpdbt_dbt.Error.to_string other)
  | Ok _ -> Alcotest.fail "loaded a nonexistent file"

let suite =
  [
    ("edge probability", `Quick, test_edge_probability);
    ("completion singleton", `Quick, test_completion_singleton);
    ("completion chain", `Quick, test_completion_chain);
    ("loopback singleton", `Quick, test_loopback_singleton);
    ("loopback no back edges", `Quick, test_loopback_no_back_edges);
    ("loopback two paths", `Quick, test_loopback_two_paths);
    ("trip count conversion", `Quick, test_trip_count_conversion);
    ("bp ranges", `Quick, test_bp_ranges);
    ("lp ranges", `Quick, test_lp_ranges);
    ("navep nested loops", `Quick, test_navep_nested_loops);
    ("navep slots have nodes", `Quick, test_navep_every_slot_has_node);
    ("navep nonnegative", `Quick, test_navep_nonnegative_freqs);
    ("navep identity without regions", `Quick, test_navep_no_regions_is_identity);
    ("metrics stable accurate", `Quick, test_metrics_stable_program_accurate);
    ("metrics self comparison", `Quick, test_metrics_self_comparison_zero);
    ("metrics phase change", `Quick, test_metrics_phase_change_detected);
    ("metrics improve with threshold", `Quick,
     test_metrics_accuracy_improves_with_threshold);
    ("metrics flat train", `Quick, test_metrics_flat_train);
    ("metrics lp on loops", `Quick, test_metrics_lp_on_loops);
    ("offline regions formed", `Quick, test_offline_regions_formed);
    ("offline regions find the loop", `Quick, test_offline_regions_find_the_loop);
    ("offline regions empty profile", `Quick, test_offline_regions_empty_profile);
    ("offline train cp/lp", `Quick, test_train_cp_lp);
    ("report render", `Quick, test_report_render);
    ("report hottest sorted", `Quick, test_report_hottest_sorted);
    ("report region mismatch flagged", `Quick, test_report_region_mismatch_flagged);
    ("checkpoints emitted", `Quick, test_checkpoints_emitted);
    ("phases windows", `Quick, test_phases_windows);
    ("phases stable quiet", `Quick, test_phases_stable_program_quiet);
    ("phases detects flip", `Quick, test_phases_detects_flip);
    ("phases rejects bad series", `Quick, test_phases_windows_reject_bad_series);
    ("profile io roundtrip", `Quick, test_profile_io_roundtrip);
    ("profile io file roundtrip", `Quick, test_profile_io_file_roundtrip);
    ("profile io metrics preserved", `Quick, test_profile_io_metrics_preserved);
    ("profile io rejects garbage", `Quick, test_profile_io_rejects_garbage);
    ("profile io typed rejections", `Quick, test_profile_io_typed_rejections);
  ]
