module Spec = Tpdbt_workloads.Spec
module Suite = Tpdbt_workloads.Suite
module Runner = Tpdbt_experiments.Runner
module Checkpoint = Tpdbt_experiments.Checkpoint
module Supervisor = Tpdbt_parallel.Supervisor
module Error = Tpdbt_dbt.Error
module Json = Tpdbt_telemetry.Json
module Prng = Tpdbt_vm.Prng

type t = {
  seed : int64;
  benches : string list;
  crash_victim : string;
  stall_victim : string;
  framing_errors : int;
  invalid : int;
  warm_hit : bool;
  overloaded : int;
  queue_peak : int;
  queue_limit : int;
  dropped : int;
  crash_recovered : bool;
  poisoned : string list;
  killed_after : int;
  recovered_sweeps : int;
  journal_torn : int;
  resumed : int;
  drained : bool;
  survivors : string list;
  mismatched : string list;
}

exception Chaos_kill
(** The simulated SIGKILL: raised from the progress callback between
    benchmarks, unwinding through the sweep exactly as a fatal signal
    would — no [Sweep_end], no drain, no close. *)

let default_benches () =
  List.filter_map Suite.find [ "gzip"; "swim"; "mgrid"; "art" ]

(* Fisher–Yates under the chaos seed: victim assignment is part of the
   deterministic contract. *)
let shuffle prng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Prng.below prng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.to_list a

let member_string name payload =
  match Json.parse payload with
  | Error _ -> None
  | Ok doc -> Option.bind (Json.member name doc) Json.as_string

let member_number name payload =
  match Json.parse payload with
  | Error _ -> None
  | Ok doc -> Option.bind (Json.member name doc) Json.as_number

let member_strings name payload =
  match Json.parse payload with
  | Error _ -> None
  | Ok doc ->
      Option.bind (Json.member name doc) (fun v ->
          Option.map (List.filter_map Json.as_string) (Json.as_list v))

let rejected payload = member_string "kind" payload = Some "invalid"

let clean_dir dir =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let ckpt = Filename.concat dir "ckpt" in
  if Sys.file_exists ckpt then
    Array.iter
      (fun f ->
        if Filename.check_suffix f ".ckpt" then
          Sys.remove (Filename.concat ckpt f))
      (Sys.readdir ckpt);
  let journal = Filename.concat dir "journal" in
  if Sys.file_exists journal then Sys.remove journal;
  (ckpt, journal)

let run ?benches ?max_steps ~dir ~seed () =
  let benches =
    match benches with Some bs -> bs | None -> default_benches ()
  in
  if List.length benches < 2 then
    invalid_arg "Chaos_serve.run: need at least two benchmarks";
  let names = List.map (fun (b : Spec.t) -> b.Spec.name) benches in
  let ckpt_dir, journal_path = clean_dir dir in
  let prng = Prng.create ~seed in
  let crash_victim, stall_victim =
    match shuffle prng names with
    | a :: b :: _ -> (a, b)
    | _ -> assert false
  in

  (* Fault-free offline reference: the byte-diff target. *)
  let reference_sweep, _ = Runner.run_sweep ?max_steps benches in
  (match reference_sweep.Runner.failures with
  | [] -> ()
  | { Runner.failed; error } :: _ ->
      invalid_arg
        (Printf.sprintf "Chaos_serve.run: %s fails without faults: %s"
           failed.Spec.name (Error.to_string error)));
  let reference =
    List.map
      (fun (d : Runner.data) ->
        (d.Runner.bench.Spec.name, Checkpoint.data_to_string d))
      reference_sweep.Runner.data
  in

  (* The fault injectors, shared by both server generations. *)
  let finished = ref 0 in
  let resumed = ref 0 in
  let kill_arm = ref None in
  let on_progress _name status =
    match status with
    | Runner.Finished -> (
        incr finished;
        match !kill_arm with
        | Some n when !finished >= n -> raise Chaos_kill
        | _ -> ())
    | Runner.Resumed -> incr resumed
    | Runner.Started | Runner.Suspended | Runner.Failed _ | Runner.Quarantined _
      ->
        ()
  in
  let run_task ~attempt (spec : Spec.t) _run =
    if String.equal spec.Spec.name stall_victim then
      Result.Error (Error.Deadline_exceeded { steps = 0; deadline = 1 })
    else if String.equal spec.Spec.name crash_victim && attempt = 1 then
      raise Supervisor.Crash_worker
    else Runner.run_benchmark_result ?max_steps spec
  in
  let config =
    {
      Server.default_config with
      Server.queue_limit = 2;
      checkpoint_dir = Some ckpt_dir;
      journal_path = Some journal_path;
    }
  in
  let server = Server.create ~run_task ~on_progress config in

  (* Request builders — strict-schema JSON, like a well-behaved
     client's. *)
  let steps_field =
    match max_steps with
    | None -> []
    | Some n -> [ ("max_steps", string_of_int n) ]
  in
  let r_run workload threshold =
    Json.obj
      ([
         ("op", Json.quote "run");
         ("workload", Json.quote workload);
         ("threshold", string_of_int threshold);
       ]
      @ steps_field)
  in
  let r_sweep =
    Json.obj
      ([
         ("op", Json.quote "sweep");
         ("benches", Json.arr (List.map Json.quote names));
         ("return_results", "false");
       ]
      @ steps_field)
  in
  let first_bench = List.hd names in

  (* --- phase 1: framing damage poisons decoders ---------------------- *)
  let framing_errors = ref 0 in
  let feed_bad bytes =
    let dec = Frame.decoder ~max_frame:1024 () in
    Frame.feed dec bytes;
    match Frame.next dec with
    | Result.Error _ -> incr framing_errors
    | Ok _ -> ()
  in
  feed_bad "not a length\n{}";
  feed_bad "99999999999\n";

  (* --- phase 2: protocol damage is rejected, server keeps serving --- *)
  let invalid = ref 0 in
  let offer_bad client payload =
    match Server.offer server ~client payload with
    | Server.Reply r when rejected r -> incr invalid
    | Server.Reply _ | Server.Enqueued _ -> ()
  in
  let garbage =
    String.init 24 (fun _ -> Char.chr (33 + Prng.below prng 94))
  in
  List.iter (offer_bad 0)
    [
      "{";
      garbage;
      Json.obj [ ("op", Json.quote "run") ];
      Json.obj
        [
          ("op", Json.quote "run");
          ("workload", Json.quote first_bench);
          ("bogus", "1");
        ];
      Json.obj [ ("op", Json.quote "launch") ];
      Json.obj [ ("op", Json.quote "run"); ("workload", Json.quote "") ];
      Json.obj
        [
          ("op", Json.quote "run");
          ("workload", Json.quote first_bench);
          ("threshold", "-3");
        ];
      Json.obj
        [
          ("op", Json.quote "run");
          ("workload", Json.quote first_bench);
          ("max_steps", "1.5");
        ];
      "{\"op\":\"ping\",\"op\":\"ping\"}";
    ];
  (* Semantic rejection happens at execution: an unknown benchmark is
     admitted (the schema cannot know the suite) and answered
     [invalid] from the queue. *)
  (match Server.offer server ~client:0 (r_run "no-such-bench" 20) with
  | Server.Enqueued _ -> (
      match Server.step server with
      | Some { Server.reply; _ } when rejected reply -> incr invalid
      | _ -> ())
  | Server.Reply _ -> ());
  let alive =
    match Server.offer server ~client:0 "{\"op\":\"ping\"}" with
    | Server.Reply r -> member_string "op" r = Some "ping"
    | Server.Enqueued _ -> false
  in

  (* --- phase 3: warm cache — repeat is byte-identical ---------------- *)
  let exec_one client payload =
    match Server.offer server ~client payload with
    | Server.Reply r -> Some r
    | Server.Enqueued _ ->
        Option.map (fun s -> s.Server.reply) (Server.step server)
  in
  let warm_req = r_run first_bench 21 in
  let cold = exec_one 1 warm_req in
  let warm = exec_one 1 warm_req in
  let cache_hits =
    match Server.offer server ~client:1 "{\"op\":\"status\"}" with
    | Server.Reply r ->
        int_of_float (Option.value ~default:0.0 (member_number "cache_hits" r))
    | Server.Enqueued _ -> 0
  in
  let warm_hit =
    match (cold, warm) with
    | Some a, Some b -> String.equal a b && cache_hits >= 1
    | _ -> false
  in

  (* --- phase 4: overload — bounded queue, explicit backpressure ------ *)
  let overloaded = ref 0 in
  List.iteri
    (fun i name ->
      match Server.offer server ~client:2 (r_run name (31 + i)) with
      | Server.Reply r when member_string "kind" r = Some "overloaded" ->
          incr overloaded
      | Server.Reply _ | Server.Enqueued _ -> ())
    (names @ [ first_bench ]);
  while not (Server.idle server) do
    ignore (Server.step server)
  done;

  (* --- phase 5: client dies with work queued ------------------------- *)
  let dropped = ref 0 in
  (match Server.offer server ~client:3 (r_run first_bench 41) with
  | Server.Enqueued _ ->
      Server.disconnect server ~client:3;
      (match Server.step server with
      | Some { Server.delivered = false; _ } -> incr dropped
      | Some _ | None -> ())
  | Server.Reply _ -> ());

  (* --- phase 6: kill mid-sweep, then damage the journal tail --------- *)
  kill_arm := Some 2;
  finished := 0;
  let killed_after =
    match Server.offer server ~client:4 r_sweep with
    | Server.Reply _ -> 0
    | Server.Enqueued _ -> (
        match Server.step server with
        | exception Chaos_kill -> !finished
        | _ -> 0)
  in
  kill_arm := None;
  (* The dead server's journal now ends in a [Sweep_begin] with no
     [Sweep_end]; tear its tail the way a crashed disk would. *)
  let oc =
    open_out_gen [ Open_append; Open_binary ] 0o644 journal_path
  in
  output_string oc ("R deadbeef 9 " ^ garbage);
  close_out oc;

  (* --- phase 7: restart — truncate, recover, re-run as orphan -------- *)
  let server2 = Server.create ~run_task ~on_progress config in
  let recovered_sweeps = List.length (Server.recovered server2) in
  let journal_torn =
    match Server.offer server2 ~client:0 "{\"op\":\"status\"}" with
    | Server.Reply r ->
        int_of_float
          (Option.value ~default:0.0 (member_number "journal_torn" r))
    | Server.Enqueued _ -> 0
  in
  resumed := 0;
  let last_reply = ref None in
  let rec drain_queue () =
    match Server.step server2 with
    | Some { Server.client = None; reply; _ } ->
        last_reply := Some reply;
        drain_queue ()
    | Some _ -> drain_queue ()
    | None -> ()
  in
  drain_queue ();
  let poisoned =
    match !last_reply with
    | None -> []
    | Some reply -> Option.value ~default:[] (member_strings "poisoned" reply)
  in

  (* --- phase 8: graceful drain --------------------------------------- *)
  let drain_refused =
    match Server.offer server2 ~client:5 "{\"op\":\"drain\"}" with
    | Server.Reply _ -> (
        match Server.offer server2 ~client:5 (r_run first_bench 51) with
        | Server.Reply r -> member_string "kind" r = Some "draining"
        | Server.Enqueued _ -> false)
    | Server.Enqueued _ -> false
  in
  Server.close server2;
  let drained =
    let j, recovery = Journal.open_ ~path:journal_path in
    Journal.close j;
    drain_refused && recovery.Journal.inflight = []
    && recovery.Journal.torn = 0
  in

  (* --- verdict: byte-diff every non-poisoned benchmark --------------- *)
  let survivors, mismatched =
    List.fold_left
      (fun (ok, bad) (b : Spec.t) ->
        let name = b.Spec.name in
        if String.equal name stall_victim then (ok, bad)
        else
          match
            (Checkpoint.load ~dir:ckpt_dir b, List.assoc_opt name reference)
          with
          | Some d, Some want
            when String.equal (Checkpoint.data_to_string d) want ->
              (name :: ok, bad)
          | _ -> (ok, name :: bad))
      ([], []) benches
  in
  let survivors = List.rev survivors and mismatched = List.rev mismatched in
  let crash_recovered = List.mem crash_victim survivors in
  ignore alive;
  {
    seed;
    benches = names;
    crash_victim;
    stall_victim;
    framing_errors = !framing_errors;
    invalid = (if alive then !invalid else 0);
    warm_hit;
    overloaded = !overloaded;
    queue_peak = Server.queue_peak server;
    queue_limit = config.Server.queue_limit;
    dropped = !dropped;
    crash_recovered;
    poisoned;
    killed_after;
    recovered_sweeps;
    journal_torn;
    resumed = !resumed;
    drained;
    survivors;
    mismatched;
  }

let ok t =
  t.mismatched = []
  && t.survivors = List.filter (fun n -> n <> t.stall_victim) t.benches
  && t.poisoned = [ t.stall_victim ]
  && t.crash_recovered && t.framing_errors > 0 && t.invalid > 0 && t.warm_hit
  && t.overloaded > 0
  && t.queue_peak <= t.queue_limit
  && t.dropped > 0 && t.killed_after > 0 && t.recovered_sweeps = 1
  && t.journal_torn > 0 && t.resumed > 0 && t.drained

let to_json t =
  let strs xs = Json.arr (List.map Json.quote xs) in
  Json.obj
    [
      ("seed", Printf.sprintf "%Ld" t.seed);
      ("benches", strs t.benches);
      ("crash_victim", Json.quote t.crash_victim);
      ("stall_victim", Json.quote t.stall_victim);
      ("framing_errors", string_of_int t.framing_errors);
      ("invalid", string_of_int t.invalid);
      ("warm_hit", if t.warm_hit then "true" else "false");
      ("overloaded", string_of_int t.overloaded);
      ("queue_peak", string_of_int t.queue_peak);
      ("queue_limit", string_of_int t.queue_limit);
      ("dropped", string_of_int t.dropped);
      ("crash_recovered", if t.crash_recovered then "true" else "false");
      ("poisoned", strs t.poisoned);
      ("killed_after", string_of_int t.killed_after);
      ("recovered_sweeps", string_of_int t.recovered_sweeps);
      ("journal_torn", string_of_int t.journal_torn);
      ("resumed", string_of_int t.resumed);
      ("drained", if t.drained then "true" else "false");
      ("survivors", strs t.survivors);
      ("mismatched", strs t.mismatched);
      ("ok", if ok t then "true" else "false");
    ]

let render ppf t =
  let yn b = if b then "yes" else "no" in
  Format.fprintf ppf "chaos-serve seed=%Ld benches=%s@."
    t.seed (String.concat "," t.benches);
  Format.fprintf ppf "  victims: crash=%s stall=%s@." t.crash_victim
    t.stall_victim;
  Format.fprintf ppf
    "  protocol: framing_errors=%d invalid=%d warm_hit=%s@."
    t.framing_errors t.invalid (yn t.warm_hit);
  Format.fprintf ppf
    "  overload: overloaded=%d queue_peak=%d/%d dropped=%d@." t.overloaded
    t.queue_peak t.queue_limit t.dropped;
  Format.fprintf ppf
    "  recovery: killed_after=%d recovered=%d torn=%d resumed=%d \
     crash_recovered=%s@."
    t.killed_after t.recovered_sweeps t.journal_torn t.resumed
    (yn t.crash_recovered);
  Format.fprintf ppf "  poisoned: %s@."
    (match t.poisoned with [] -> "-" | ps -> String.concat "," ps);
  Format.fprintf ppf "  drained: %s@." (yn t.drained);
  Format.fprintf ppf "  survivors: %s@."
    (match t.survivors with [] -> "-" | ss -> String.concat "," ss);
  (match t.mismatched with
  | [] -> ()
  | ms -> Format.fprintf ppf "  MISMATCHED: %s@." (String.concat "," ms));
  Format.fprintf ppf "  verdict: %s@." (if ok t then "OK" else "FAILED")
