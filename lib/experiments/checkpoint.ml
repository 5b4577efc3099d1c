module Engine = Tpdbt_dbt.Engine
module Perf_model = Tpdbt_dbt.Perf_model
module Spec = Tpdbt_workloads.Spec
module Suite = Tpdbt_workloads.Suite
module Profile_io = Tpdbt_profiles.Profile_io
module Durable = Tpdbt_durable.Durable
module Exec_snapshot = Tpdbt_dbt.Exec_snapshot

(* Version 4 lets the store hold mid-run state: a file is either a
   finished benchmark (the v3 payload behind a "kind finished" line)
   or a suspended one — the completed stages plus the in-flight
   engine's serialized image — so a killed sweep resumes at
   guest-instruction granularity instead of re-running.  Version 3
   made the store crash-consistent: a sealed durable record, published
   atomically, whose damage loads classify instead of conflating it
   with absence.  Version 2 widened the counters line with the
   code-cache and shadow-oracle fields. *)
let magic = "TPDBT-CKPT 4"

type stored = Finished of Runner.data | Suspended of Runner.partial

type 'a classified = 'a Durable.classified =
  | Valid of 'a
  | Missing
  | Stale_version of string
  | Corrupt of string

(* ---- serialisation ----------------------------------------------------- *)

module W = Durable.Writer
module R = Durable.Reader

let write_result w (r : Engine.result) =
  W.line w "steps %d" r.Engine.steps;
  W.line w "profiling_ops %d" r.Engine.profiling_ops;
  W.ints w "outputs" (Array.of_list r.Engine.outputs);
  Perf_model.write_counters w r.Engine.counters;
  W.line w "regstats %d" (List.length r.Engine.region_stats);
  List.iter
    (fun (id, (s : Engine.region_stats)) ->
      W.line w "regstat %d %d %d %d %d" id s.Engine.entries
        s.Engine.side_exits s.Engine.loop_back_taken s.Engine.loop_back_seen)
    r.Engine.region_stats;
  W.section w "snapshot" (Profile_io.to_string r.Engine.snapshot)

let write_header w (spec : Spec.t) kind thresholds =
  W.line w "bench %s" spec.Spec.name;
  W.line w "kind %s" kind;
  W.line w "thresholds %d" (List.length thresholds);
  List.iter
    (fun (label, scaled) -> W.line w "threshold %s %d" label scaled)
    thresholds

let payload_of_data (d : Runner.data) =
  let w = W.create () in
  write_header w d.Runner.bench "finished"
    (List.map
       (fun (r : Runner.threshold_run) -> (r.Runner.label, r.Runner.scaled))
       d.Runner.runs);
  W.line w "avep";
  write_result w d.Runner.avep;
  W.line w "train";
  write_result w d.Runner.train;
  List.iter
    (fun (r : Runner.threshold_run) ->
      W.line w "run %s %d" r.Runner.label r.Runner.scaled;
      write_result w r.Runner.result)
    d.Runner.runs;
  W.line w "end";
  W.contents w

let stage_header (s : Runner.stage) =
  match s with
  | Runner.Avep -> "avep"
  | Runner.Train -> "train"
  | Runner.Threshold (label, scaled) -> Printf.sprintf "run %s %d" label scaled

let payload_of_partial (p : Runner.partial) =
  let w = W.create () in
  write_header w p.Runner.p_bench "suspended" p.Runner.p_thresholds;
  W.line w "done %d" (List.length p.Runner.p_done);
  List.iter
    (fun (stage, result) ->
      W.line w "stage %s" (stage_header stage);
      write_result w result)
    p.Runner.p_done;
  W.line w "next %s" (stage_header p.Runner.p_next);
  W.section w "exec" p.Runner.p_snapshot;
  W.line w "end";
  W.contents w

let data_to_string (d : Runner.data) = Durable.seal ~magic (payload_of_data d)

let partial_to_string (p : Runner.partial) =
  Durable.seal ~magic (payload_of_partial p)

(* ---- parsing ----------------------------------------------------------- *)

let read_result profile r =
  R.tagged r "steps";
  let steps = R.int r "steps" in
  R.tagged r "profiling_ops";
  let profiling_ops = R.int r "profiling_ops" in
  let outputs = Array.to_list (R.ints r "outputs") in
  let counters = Perf_model.read_counters r in
  let region_stats =
    R.list r "regstats" (fun r ->
        R.tagged r "regstat";
        let id = R.int r "regstat" in
        let entries = R.int r "regstat" in
        let side_exits = R.int r "regstat" in
        let loop_back_taken = R.int r "regstat" in
        let loop_back_seen = R.int r "regstat" in
        (id, { Engine.entries; side_exits; loop_back_taken; loop_back_seen }))
  in
  {
    Engine.snapshot = profile (R.section r "snapshot");
    counters;
    steps;
    profiling_ops;
    outputs;
    region_stats;
    error = None;
    faults = None;
  }

(* The stage a [stage], [next] or [run] line names after its tag. *)
let read_stage labels r tag =
  match R.word r tag with
  | "avep" -> Runner.Avep
  | "train" -> Runner.Train
  | "run" ->
      let label = R.word r tag in
      let scaled = R.int r tag in
      if List.assoc_opt label labels <> Some scaled then
        R.fail r tag (Printf.sprintf "no threshold %s %d" label scaled);
      Runner.Threshold (label, scaled)
  | s -> R.fail r tag ("bad stage " ^ s)

let read_payload expect_thresholds spec r =
  R.tagged r "bench";
  let name = R.word r "bench" in
  if name <> spec.Spec.name then
    R.fail r "bench"
      (Printf.sprintf "checkpoint is for benchmark %s, not %s" name
         spec.Spec.name);
  R.tagged r "kind";
  let kind = R.word r "kind" in
  let labels =
    R.list r "thresholds" (fun r ->
        R.tagged r "threshold";
        let label = R.word r "threshold" in
        (label, R.int r "threshold"))
  in
  (match expect_thresholds with
  | Some expected when labels <> expected ->
      R.fail r "thresholds" "recorded under a different threshold list"
  | _ -> ());
  (* Every stage runs the same code ([Spec.apply_input] changes only
     data), so one block map serves every embedded profile. *)
  let result = read_result (Profile_io.reader_sharing_blocks ()) in
  match kind with
  | "finished" ->
      R.tagged r "avep";
      let avep = result r in
      R.tagged r "train";
      let train = result r in
      let runs =
        List.map
          (fun (label, scaled) ->
            R.tagged r "run";
            let l = R.word r "run" in
            if l <> label || R.int r "run" <> scaled then
              R.fail r "run" "run header out of order";
            (label, scaled, result r))
          labels
      in
      R.finish r;
      Finished (Runner.assemble spec avep train runs)
  | "suspended" ->
      let p_done =
        R.list r "done" (fun r ->
            R.tagged r "stage";
            let stage = read_stage labels r "stage" in
            (stage, result r))
      in
      R.tagged r "next";
      let p_next = read_stage labels r "next" in
      let p_snapshot = R.section_text r "exec" in
      (* The embedded snapshot — one engine's, or a group's — carries
         its own magic and CRC: validate it now so a damaged one
         classifies the whole store entry as corrupt instead of failing
         at resume time. *)
      let valid c = Durable.bind c (fun _ -> Valid ()) in
      (match
         if Exec_snapshot.is_group p_snapshot then
           Durable.to_result ~what:"group snapshot"
             (valid (Exec_snapshot.group_of_string p_snapshot))
         else
           Durable.to_result ~what:"snapshot"
             (valid (Exec_snapshot.of_string p_snapshot))
       with
      | Ok () -> ()
      | Error msg -> R.fail r "exec" ("embedded " ^ msg));
      R.finish r;
      Suspended
        {
          Runner.p_bench = spec;
          p_thresholds = labels;
          p_done;
          p_next;
          p_snapshot;
        }
  | k -> R.fail r "kind" (Printf.sprintf "unknown kind %S" k)

let data_of_string ?thresholds spec =
  Durable.parse ~magic (read_payload thresholds spec)

let bench_name =
  Durable.parse ~magic (fun r ->
      R.tagged r "bench";
      R.word r "bench")

(* ---- files ------------------------------------------------------------- *)

let path ~dir spec = Filename.concat dir (spec.Spec.name ^ ".ckpt")

let write ~dir spec text =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Durable.atomic_write (path ~dir spec) text

let save ~dir (d : Runner.data) = write ~dir d.Runner.bench (data_to_string d)

(* A mid-run snapshot lives in the same per-benchmark slot the
   finished result will occupy: the file monotonically progresses
   suspended -> ... -> suspended -> finished, and a crash at any point
   leaves the previous (complete, CRC-guarded) state. *)
let save_suspended ~dir (p : Runner.partial) =
  write ~dir p.Runner.p_bench (partial_to_string p)

let classify ?(thresholds = Suite.thresholds) ~dir spec =
  let file = path ~dir spec in
  if not (Sys.file_exists file) then Missing
  else
    match Durable.read_file file with
    | text -> data_of_string ~thresholds spec text
    | exception Sys_error reason -> Corrupt reason

let load ?thresholds ~dir spec =
  match classify ?thresholds ~dir spec with
  | Valid (Finished d) -> Some d
  | _ -> None

let load_suspended ?thresholds ~dir spec =
  match classify ?thresholds ~dir spec with
  | Valid (Suspended p) -> Some p
  | _ -> None

let store ?thresholds ?(resume_suspended = true) ?on_snapshot_saved ~dir () =
  {
    Runner.finished =
      (fun spec ->
        match classify ?thresholds ~dir spec with
        | Valid (Finished d) -> Ok (Some d)
        | Valid (Suspended _) | Missing -> Ok None
        | Stale_version line -> Error ("stale checkpoint version: " ^ line)
        | Corrupt reason -> Error reason);
    suspended =
      (fun spec ->
        if resume_suspended then load_suspended ?thresholds ~dir spec else None);
    save = save ~dir;
    save_suspended =
      (fun p ->
        save_suspended ~dir p;
        Option.iter (fun f -> f p.Runner.p_bench.Spec.name) on_snapshot_saved);
  }

(* Kept for the performance ledger (ledger/), whose sources stay the
   same across the changes it compares; everything else passes [store]
   to [Runner.run_sweep]. *)
let run_many ?max_steps ?snapshot_every ?progress ~dir benches =
  fst
    (Runner.run_sweep ?max_steps ?snapshot_every ?progress
       ~store:(store ~dir ()) benches)
