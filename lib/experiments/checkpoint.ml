module Engine = Tpdbt_dbt.Engine
module Perf_model = Tpdbt_dbt.Perf_model
module Spec = Tpdbt_workloads.Spec
module Suite = Tpdbt_workloads.Suite
module Profile_io = Tpdbt_profiles.Profile_io
module Durable = Tpdbt_durable.Durable

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

let result_to_buf buf (r : Engine.result) =
  let add fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  add "steps %d" r.Engine.steps;
  add "profiling_ops %d" r.Engine.profiling_ops;
  add "outputs %d%s" (List.length r.Engine.outputs)
    (String.concat ""
       (List.map (fun v -> " " ^ string_of_int v) r.Engine.outputs));
  add "%s" (Perf_model.counters_to_line r.Engine.counters);
  add "regstats %d" (List.length r.Engine.region_stats);
  List.iter
    (fun (id, (s : Engine.region_stats)) ->
      add "regstat %d %d %d %d %d" id s.Engine.entries s.Engine.side_exits
        s.Engine.loop_back_taken s.Engine.loop_back_seen)
    r.Engine.region_stats;
  let text = Profile_io.to_string r.Engine.snapshot in
  let nlines = String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 text in
  add "snapshot %d" nlines;
  Buffer.add_string buf text

let payload_of_data (d : Runner.data) =
  let buf = Buffer.create 8192 in
  let add fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  add "bench %s" d.Runner.bench.Spec.name;
  add "kind finished";
  add "thresholds %d" (List.length d.Runner.runs);
  List.iter
    (fun (r : Runner.threshold_run) ->
      add "threshold %s %d" r.Runner.label r.Runner.scaled)
    d.Runner.runs;
  add "avep";
  result_to_buf buf d.Runner.avep;
  add "train";
  result_to_buf buf d.Runner.train;
  List.iter
    (fun (r : Runner.threshold_run) ->
      add "run %s %d" r.Runner.label r.Runner.scaled;
      result_to_buf buf r.Runner.result)
    d.Runner.runs;
  add "end";
  Buffer.contents buf

let stage_header (s : Runner.stage) =
  match s with
  | Runner.Avep -> "avep"
  | Runner.Train -> "train"
  | Runner.Threshold (label, scaled) -> Printf.sprintf "run %s %d" label scaled

let payload_of_partial (p : Runner.partial) =
  let buf = Buffer.create 8192 in
  let add fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  add "bench %s" p.Runner.p_bench.Spec.name;
  add "kind suspended";
  add "thresholds %d" (List.length p.Runner.p_thresholds);
  List.iter
    (fun (label, scaled) -> add "threshold %s %d" label scaled)
    p.Runner.p_thresholds;
  add "done %d" (List.length p.Runner.p_done);
  List.iter
    (fun (stage, result) ->
      add "stage %s" (stage_header stage);
      result_to_buf buf result)
    p.Runner.p_done;
  add "next %s" (stage_header p.Runner.p_next);
  let text = p.Runner.p_snapshot in
  let nlines =
    String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 text
  in
  add "exec %d" nlines;
  Buffer.add_string buf text;
  add "end";
  Buffer.contents buf

let data_to_string (d : Runner.data) = Durable.seal ~magic (payload_of_data d)

let partial_to_string (p : Runner.partial) =
  Durable.seal ~magic (payload_of_partial p)

(* ---- parsing ----------------------------------------------------------- *)

exception Malformed of string

let parse_payload ?expect_thresholds spec text =
  let lines = Array.of_list (String.split_on_char '\n' text) in
  let cursor = ref 0 in
  let next () =
    if !cursor >= Array.length lines then
      raise (Malformed "payload ends mid-record")
    else (
      incr cursor;
      lines.(!cursor - 1))
  in
  let expect s =
    if next () <> s then raise (Malformed (Printf.sprintf "expected %S" s))
  in
  let int_exn s =
    match int_of_string_opt s with
    | Some v -> v
    | None -> raise (Malformed (Printf.sprintf "not an integer: %S" s))
  in
  let words () = String.split_on_char ' ' (next ()) in
  let read_result () =
    let steps =
      match words () with
      | [ "steps"; n ] -> int_exn n
      | _ -> raise (Malformed "bad steps line")
    in
    let profiling_ops =
      match words () with
      | [ "profiling_ops"; n ] -> int_exn n
      | _ -> raise (Malformed "bad profiling_ops line")
    in
    let outputs =
      match words () with
      | "outputs" :: n :: vs when List.length vs = int_exn n ->
          List.map int_exn vs
      | _ -> raise (Malformed "bad outputs line")
    in
    let counters =
      match Perf_model.counters_of_line (next ()) with
      | Ok c -> c
      | Error reason -> raise (Malformed reason)
    in
    let nstats =
      match words () with
      | [ "regstats"; n ] -> int_exn n
      | _ -> raise (Malformed "bad regstats line")
    in
    let region_stats =
      List.init nstats (fun _ ->
          match words () with
          | [ "regstat"; id; en; se; lbt; lbs ] ->
              ( int_exn id,
                {
                  Engine.entries = int_exn en;
                  side_exits = int_exn se;
                  loop_back_taken = int_exn lbt;
                  loop_back_seen = int_exn lbs;
                } )
          | _ -> raise (Malformed "bad regstat line"))
    in
    let nlines =
      match words () with
      | [ "snapshot"; n ] -> int_exn n
      | _ -> raise (Malformed "bad snapshot line")
    in
    if nlines < 0 then raise (Malformed "negative snapshot length");
    let snap_buf = Buffer.create 4096 in
    for _ = 1 to nlines do
      Buffer.add_string snap_buf (next ());
      Buffer.add_char snap_buf '\n'
    done;
    let snapshot =
      match Profile_io.of_string (Buffer.contents snap_buf) with
      | Ok s -> s
      | Error _ -> raise (Malformed "embedded profile rejected")
    in
    {
      Engine.snapshot;
      counters;
      steps;
      profiling_ops;
      outputs;
      region_stats;
      error = None;
      faults = None;
    }
  in
  let finish_checks () =
    expect "end";
    (* the payload always ends "end\n", so the final split element is
       one empty string; anything more is garbage a broken writer
       appended inside the measured payload *)
    if not (!cursor = Array.length lines - 1 && lines.(!cursor) = "") then
      raise (Malformed "trailing garbage after end marker")
  in
  try
    (match words () with
    | [ "bench"; name ] when name = spec.Spec.name -> ()
    | [ "bench"; name ] ->
        raise
          (Malformed
             (Printf.sprintf "checkpoint is for benchmark %s, not %s" name
                spec.Spec.name))
    | _ -> raise (Malformed "bad bench line"));
    let kind =
      match words () with
      | [ "kind"; k ] -> k
      | _ -> raise (Malformed "bad kind line")
    in
    let nruns =
      match words () with
      | [ "thresholds"; n ] -> int_exn n
      | _ -> raise (Malformed "bad thresholds line")
    in
    let labels =
      List.init nruns (fun _ ->
          match words () with
          | [ "threshold"; label; scaled ] -> (label, int_exn scaled)
          | _ -> raise (Malformed "bad threshold line"))
    in
    (match expect_thresholds with
    | Some expected when labels <> expected ->
        raise (Malformed "recorded under a different threshold list")
    | _ -> ());
    match kind with
    | "finished" ->
        expect "avep";
        let avep = read_result () in
        expect "train";
        let train = read_result () in
        let raw_runs =
          List.map
            (fun (label, scaled) ->
              (match words () with
              | [ "run"; l; s ] when l = label && int_exn s = scaled -> ()
              | _ -> raise (Malformed "run header out of order"));
              (label, scaled, read_result ()))
            labels
        in
        finish_checks ();
        Valid (Finished (Runner.assemble spec avep train raw_runs))
    | "suspended" ->
        let stage_of = function
          | [ "avep" ] -> Runner.Avep
          | [ "train" ] -> Runner.Train
          | [ "run"; label; scaled ]
            when List.assoc_opt label labels = Some (int_exn scaled) ->
              Runner.Threshold (label, int_exn scaled)
          | _ -> raise (Malformed "bad stage descriptor")
        in
        let ndone =
          match words () with
          | [ "done"; n ] -> int_exn n
          | _ -> raise (Malformed "bad done line")
        in
        if ndone < 0 then raise (Malformed "negative done count");
        let p_done =
          List.init ndone (fun _ ->
              match words () with
              | "stage" :: rest ->
                  let stage = stage_of rest in
                  (stage, read_result ())
              | _ -> raise (Malformed "bad stage line"))
        in
        let p_next =
          match words () with
          | "next" :: rest -> stage_of rest
          | _ -> raise (Malformed "bad next line")
        in
        let nlines =
          match words () with
          | [ "exec"; n ] -> int_exn n
          | _ -> raise (Malformed "bad exec line")
        in
        if nlines < 0 then raise (Malformed "negative exec length");
        let exec_buf = Buffer.create 4096 in
        for _ = 1 to nlines do
          Buffer.add_string exec_buf (next ());
          Buffer.add_char exec_buf '\n'
        done;
        let p_snapshot = Buffer.contents exec_buf in
        (* The embedded engine snapshot carries its own magic and CRC —
           validate it now so a damaged one classifies the whole store
           entry as corrupt instead of failing at resume time. *)
        (match
           Durable.to_result ~what:"snapshot"
             (Tpdbt_dbt.Exec_snapshot.of_string p_snapshot)
         with
        | Ok _ -> ()
        | Error msg -> raise (Malformed ("embedded " ^ msg)));
        finish_checks ();
        Valid
          (Suspended
             {
               Runner.p_bench = spec;
               p_thresholds = labels;
               p_done;
               p_next;
               p_snapshot;
             })
    | k -> raise (Malformed (Printf.sprintf "unknown kind %S" k))
  with Malformed reason -> Corrupt reason

let data_of_string ?thresholds spec text =
  Durable.bind (Durable.unseal ~magic text)
    (parse_payload ?expect_thresholds:thresholds spec)

let bench_name text =
  Durable.bind (Durable.unseal ~magic text) (fun payload ->
      let first =
        match String.index_opt payload '\n' with
        | Some i -> String.sub payload 0 i
        | None -> payload
      in
      match String.split_on_char ' ' first with
      | [ "bench"; name ] -> Valid name
      | _ -> Corrupt "bad bench line")

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
