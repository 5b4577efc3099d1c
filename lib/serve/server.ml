module Engine = Tpdbt_dbt.Engine
module Error = Tpdbt_dbt.Error
module Perf_model = Tpdbt_dbt.Perf_model
module Profile_io = Tpdbt_profiles.Profile_io
module Spec = Tpdbt_workloads.Spec
module Suite = Tpdbt_workloads.Suite
module Runner = Tpdbt_experiments.Runner
module Checkpoint = Tpdbt_experiments.Checkpoint
module Json = Tpdbt_telemetry.Json
module Metrics = Tpdbt_telemetry.Metrics
module Openmetrics = Tpdbt_telemetry.Openmetrics

type config = {
  queue_limit : int;
  max_frame : int;
  jobs : int;
  deadline : int option;
  max_steps : int option;
  warm_capacity : int;
  checkpoint_dir : string option;
  journal_path : string option;
  snapshot_every : int;
}

let default_config =
  {
    queue_limit = 8;
    max_frame = Frame.default_max_frame;
    jobs = 1;
    deadline = None;
    max_steps = None;
    warm_capacity = 1_000_000;
    checkpoint_dir = None;
    journal_path = None;
    snapshot_every = 0;
  }

type job = {
  job_id : int;
  job_client : int option;
  job_req : Protocol.request;
  job_journal : int option;  (** journal id to close with [Sweep_end] *)
}

type t = {
  config : config;
  reg : Metrics.t;
  warm : Warm_cache.t;
  journal : Journal.t option;
  journal_lock : Mutex.t;
      (** snapshot refs are appended from worker domains mid-sweep;
          every other append happens on the calling domain *)
  recovered : (int * string list) list;
  recovered_snapshots : (int * string) list;
  queue : job Queue.t;
  dead : (int, unit) Hashtbl.t;  (** disconnected clients *)
  run_task :
    (attempt:int ->
    Spec.t ->
    (unit -> (Runner.data, Error.t) result) ->
    (Runner.data, Error.t) result)
    option;
  on_progress : (string -> Runner.status -> unit) option;
  mutable draining : bool;
  mutable next_id : int;
  mutable peak : int;
  mutable now : int;  (** request counter — the warm cache's clock *)
}

(* ---- telemetry --------------------------------------------------------- *)

let c t name = Metrics.counter t.reg name
let incr t name = Metrics.incr (c t name)
let cval t name = Metrics.counter_value (c t name)

let steps_hist t =
  Metrics.histogram t.reg "serve.request_steps"
    ~buckets:[ 100.; 1_000.; 10_000.; 100_000.; 1e6; 1e7 ]

let refresh_gauges t =
  Metrics.set (Metrics.gauge t.reg "serve.queue_depth")
    (float_of_int (Queue.length t.queue));
  Metrics.set (Metrics.gauge t.reg "serve.queue_peak") (float_of_int t.peak);
  Metrics.set (Metrics.gauge t.reg "serve.draining")
    (if t.draining then 1.0 else 0.0);
  Metrics.set (Metrics.gauge t.reg "serve.cache.used")
    (float_of_int (Warm_cache.used t.warm));
  Metrics.set
    (Metrics.gauge t.reg "serve.cache.entries")
    (float_of_int (Warm_cache.entries t.warm))

(* ---- creation / recovery ---------------------------------------------- *)

let create ?run_task ?on_progress config =
  let journal, recovery =
    match config.journal_path with
    | None ->
        ( None,
          { Journal.records = 0; torn = 0; inflight = []; snapshot_refs = [] }
        )
    | Some path ->
        let j, r = Journal.open_ ~path in
        (Some j, r)
  in
  let t =
    {
      config;
      reg = Metrics.create ();
      warm = Warm_cache.create ~capacity:config.warm_capacity;
      journal;
      journal_lock = Mutex.create ();
      recovered = recovery.Journal.inflight;
      recovered_snapshots = recovery.Journal.snapshot_refs;
      queue = Queue.create ();
      dead = Hashtbl.create 16;
      run_task;
      on_progress;
      draining = false;
      next_id =
        1
        + List.fold_left
            (fun acc (id, _) -> max acc id)
            0 recovery.Journal.inflight;
      peak = 0;
      now = 0;
    }
  in
  Metrics.add (c t "serve.journal.records") recovery.Journal.records;
  Metrics.add (c t "serve.journal.torn") recovery.Journal.torn;
  Metrics.add
    (c t "serve.journal.snapshot_refs")
    (List.length recovery.Journal.snapshot_refs);
  (* Re-enqueue in-flight sweeps as orphans: no client to answer, but
     the work completes and lands in the checkpoint store exactly as
     if the predecessor had never been killed.  Recovery bypasses the
     admission bound — it is our own debt, not new client load. *)
  List.iter
    (fun (id, benches) ->
      incr t "serve.recovered";
      Queue.add
        {
          job_id = id;
          job_client = None;
          job_req =
            Protocol.Sweep
              { benches; max_steps = None; return_results = false };
          job_journal = Some id;
        }
        t.queue)
    t.recovered;
  t.peak <- Queue.length t.queue;
  refresh_gauges t;
  t

let journal_append t r =
  match t.journal with
  | None -> ()
  | Some j ->
      Mutex.lock t.journal_lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.journal_lock)
        (fun () ->
          Journal.append j r;
          incr t "serve.journal.records")

(* ---- execution --------------------------------------------------------- *)

let effective_max_steps t request_max =
  match (request_max, t.config.max_steps) with
  | Some r, Some cap -> Some (min r cap)
  | Some r, None -> Some r
  | None, cap -> cap

let engine_config t ~threshold ~max_steps =
  let config = Engine.config ~threshold ?deadline:t.config.deadline () in
  match effective_max_steps t max_steps with
  | Some n -> { config with Engine.max_steps = n }
  | None -> config

let error_field = function
  | None -> "null"
  | Some e -> Json.quote (Error.to_string e)

let outputs_field outputs = Json.arr (List.map string_of_int outputs)

let exec_run t ~workload ~threshold ~max_steps =
  match Suite.find workload with
  | None ->
      ( Protocol.error_reply ~kind:"invalid"
          ("unknown benchmark: " ^ workload),
        None )
  | Some bench ->
      let config = engine_config t ~threshold ~max_steps in
      let r = Runner.run_ref bench ~config in
      Metrics.observe (steps_hist t) (float_of_int r.Engine.steps);
      ( Json.obj
          [
            ("ok", "true");
            ("op", Json.quote "run");
            ("workload", Json.quote workload);
            ("threshold", string_of_int threshold);
            ("steps", string_of_int r.Engine.steps);
            ("cycles", Json.number r.Engine.counters.Perf_model.cycles);
            ( "regions",
              string_of_int r.Engine.counters.Perf_model.regions_formed );
            ("outputs", outputs_field r.Engine.outputs);
            ("error", error_field r.Engine.error);
          ],
        Some r.Engine.counters.Perf_model.cache_peak_instrs )

let exec_translate t ~program ~threshold ~seed ~max_steps =
  match Tpdbt_isa.Assembler.assemble program with
  | Error msg ->
      (Protocol.error_reply ~kind:"invalid" ("assembly rejected: " ^ msg), None)
  | Ok prog -> (
      let config = engine_config t ~threshold ~max_steps in
      let engine = Engine.create ~config ~seed prog in
      match Engine.run engine with
      | exception e ->
          (* The engine's guest-reachable paths return typed errors;
             an escaped exception is a bug, reported — never fatal to
             the daemon. *)
          ( Protocol.error_reply ~kind:"internal" (Printexc.to_string e),
            None )
      | r ->
          Metrics.observe (steps_hist t) (float_of_int r.Engine.steps);
          ( Json.obj
              [
                ("ok", "true");
                ("op", Json.quote "translate");
                ("threshold", string_of_int threshold);
                ("steps", string_of_int r.Engine.steps);
                ( "blocks",
                  string_of_int r.Engine.counters.Perf_model.blocks_translated
                );
                ( "regions",
                  string_of_int r.Engine.counters.Perf_model.regions_formed );
                ("cycles", Json.number r.Engine.counters.Perf_model.cycles);
                ("outputs", outputs_field r.Engine.outputs);
                ("error", error_field r.Engine.error);
                ( "profile",
                  Json.quote (Profile_io.to_string r.Engine.snapshot) );
              ],
            Some r.Engine.counters.Perf_model.cache_peak_instrs ))

let exec_sweep t job ~benches ~max_steps ~return_results =
  let unknown = List.filter (fun n -> Suite.find n = None) benches in
  if unknown <> [] then
    Protocol.error_reply ~kind:"invalid"
      ("unknown benchmark: " ^ String.concat ", " unknown)
  else begin
    let selected =
      match benches with
      | [] -> Suite.all
      | names -> List.filter_map Suite.find names
    in
    let names = List.map (fun (b : Spec.t) -> b.Spec.name) selected in
    let journal_id =
      match job.job_journal with
      | Some id -> id
      | None -> job.job_id
    in
    journal_append t (Journal.Sweep_begin { id = journal_id; benches = names });
    let max_steps = effective_max_steps t max_steps in
    (* With [snapshot_every] armed, each benchmark periodically
       publishes its mid-run state into the store; the matching journal
       ref lets a restarted daemon see that its orphaned sweep will
       resume mid-run rather than re-run. *)
    let on_snapshot_saved bench =
      journal_append t (Journal.Snapshot_ref { id = journal_id; bench })
    in
    let store =
      Option.map
        (fun dir -> Checkpoint.store ~on_snapshot_saved ~dir ())
        t.config.checkpoint_dir
    in
    let sweep, supervision =
      Runner.run_sweep ?max_steps ?deadline:t.config.deadline
        ~snapshot_every:t.config.snapshot_every ~jobs:t.config.jobs
        ~policy:Tpdbt_parallel.Supervisor.default_policy ?store
        ?progress:t.on_progress ?run_task:t.run_task selected
    in
    journal_append t (Journal.Sweep_end { id = journal_id });
    let poisoned =
      List.map
        (fun ((b : Spec.t), reason) -> (b.Spec.name, reason))
        supervision.Runner.poisoned
    in
    let row name =
      match List.assoc_opt name poisoned with
      | Some reason ->
          Json.obj
            [
              ("bench", Json.quote name);
              ("status", Json.quote "poisoned");
              ("reason", Json.quote reason);
            ]
      | None -> (
          match
            List.find_opt
              (fun (d : Runner.data) ->
                String.equal d.Runner.bench.Spec.name name)
              sweep.Runner.data
          with
          | Some d ->
              Json.obj
                (("bench", Json.quote name)
                 :: ("status", Json.quote "ok")
                 ::
                 (if return_results then
                    [
                      ( "result",
                        Json.quote (Checkpoint.data_to_string d) );
                    ]
                  else []))
          | None -> (
              match
                List.find_opt
                  (fun { Runner.failed; _ } ->
                    String.equal failed.Spec.name name)
                  sweep.Runner.failures
              with
              | Some { Runner.error; _ } ->
                  Json.obj
                    [
                      ("bench", Json.quote name);
                      ("status", Json.quote "failed");
                      ("error", Json.quote (Error.to_string error));
                    ]
              | None ->
                  Json.obj
                    [
                      ("bench", Json.quote name);
                      ("status", Json.quote "missing");
                    ]))
    in
    Json.obj
      [
        ("ok", "true");
        ("op", Json.quote "sweep");
        ("benches", Json.arr (List.map row names));
        ( "poisoned",
          Json.arr (List.map (fun (n, _) -> Json.quote n) poisoned) );
        ( "corrupt_checkpoints",
          Json.arr
            (List.map (fun (n, _) -> Json.quote n) supervision.Runner.corrupt)
        );
      ]
  end

(* ---- the state machine ------------------------------------------------- *)

type offer = Reply of string | Enqueued of int

let status_reply t =
  refresh_gauges t;
  Json.obj
    [
      ("ok", "true");
      ("op", Json.quote "status");
      ("state", Json.quote (if t.draining then "draining" else "accepting"));
      ("queue", string_of_int (Queue.length t.queue));
      ("queue_limit", string_of_int t.config.queue_limit);
      ("queue_peak", string_of_int t.peak);
      ("max_frame", string_of_int t.config.max_frame);
      ("jobs", string_of_int t.config.jobs);
      ("served", string_of_int (cval t "serve.replies"));
      ("executed", string_of_int (cval t "serve.executed"));
      ("invalid", string_of_int (cval t "serve.invalid"));
      ("overloaded", string_of_int (cval t "serve.overloaded"));
      ("disconnects", string_of_int (cval t "serve.disconnects"));
      ("dropped", string_of_int (cval t "serve.dropped"));
      ("recovered", string_of_int (cval t "serve.recovered"));
      ("journal_records", string_of_int (cval t "serve.journal.records"));
      ("journal_torn", string_of_int (cval t "serve.journal.torn"));
      ("cache_entries", string_of_int (Warm_cache.entries t.warm));
      ("cache_used", string_of_int (Warm_cache.used t.warm));
      ("cache_capacity", string_of_int (Warm_cache.capacity t.warm));
      ("cache_hits", string_of_int (Warm_cache.hits t.warm));
      ("cache_misses", string_of_int (Warm_cache.misses t.warm));
      ("cache_evictions", string_of_int (Warm_cache.evictions t.warm));
    ]

let metrics_reply t =
  refresh_gauges t;
  (* Mirror the warm cache's own counts into the registry so the
     exposition is complete without double counting. *)
  let sync name v =
    let cur = cval t name in
    if v > cur then Metrics.add (c t name) (v - cur)
  in
  sync "serve.cache.hits" (Warm_cache.hits t.warm);
  sync "serve.cache.misses" (Warm_cache.misses t.warm);
  sync "serve.cache.evictions" (Warm_cache.evictions t.warm);
  Json.obj
    [
      ("ok", "true");
      ("op", Json.quote "metrics");
      ("content_type", Json.quote Openmetrics.content_type);
      ("body", Json.quote (Openmetrics.render t.reg));
    ]

let reply t payload =
  incr t "serve.replies";
  Reply payload

let drain t =
  if not t.draining then begin
    t.draining <- true;
    incr t "serve.drains"
  end

let offer t ~client payload =
  match Protocol.parse_request payload with
  | Error msg ->
      incr t "serve.invalid";
      reply t (Protocol.error_reply ~kind:"invalid" msg)
  | Ok req -> (
      incr t "serve.requests";
      match req with
      | Protocol.Ping -> reply t (Protocol.ping_reply ~ready:(not t.draining))
      | Protocol.Status -> reply t (status_reply t)
      | Protocol.Metrics -> reply t (metrics_reply t)
      | Protocol.Drain ->
          drain t;
          reply t
            (Json.obj
               [
                 ("ok", "true");
                 ("op", Json.quote "drain");
                 ("state", Json.quote "draining");
                 ("queue", string_of_int (Queue.length t.queue));
               ])
      | Protocol.Translate _ | Protocol.Run _ | Protocol.Sweep _ ->
          if t.draining then begin
            incr t "serve.rejected_draining";
            reply t (Protocol.draining_reply ())
          end
          else if Queue.length t.queue >= t.config.queue_limit then begin
            incr t "serve.overloaded";
            reply t
              (Protocol.overloaded_reply ~queue:(Queue.length t.queue)
                 ~limit:t.config.queue_limit)
          end
          else begin
            let id = t.next_id in
            t.next_id <- id + 1;
            Queue.add
              {
                job_id = id;
                job_client = Some client;
                job_req = req;
                job_journal = None;
              }
              t.queue;
            t.peak <- max t.peak (Queue.length t.queue);
            refresh_gauges t;
            Enqueued id
          end)

type stepped = {
  job : int;
  client : int option;
  reply : string;
  delivered : bool;
}

let execute t job =
  t.now <- t.now + 1;
  incr t "serve.executed";
  let cached_or run req =
    match Protocol.cache_key req with
    | None -> fst (run ())
    | Some key -> (
        match Warm_cache.find t.warm ~now:t.now key with
        | Some hit -> hit
        | None ->
            let payload, size = run () in
            (match size with
            | Some size -> Warm_cache.add t.warm ~now:t.now ~key ~size payload
            | None -> ());
            payload)
  in
  match job.job_req with
  | Protocol.Run { workload; threshold; max_steps } ->
      incr t "serve.runs";
      cached_or
        (fun () -> exec_run t ~workload ~threshold ~max_steps)
        job.job_req
  | Protocol.Translate { program; threshold; seed; max_steps } ->
      incr t "serve.translates";
      cached_or
        (fun () -> exec_translate t ~program ~threshold ~seed ~max_steps)
        job.job_req
  | Protocol.Sweep { benches; max_steps; return_results } ->
      incr t "serve.sweeps";
      exec_sweep t job ~benches ~max_steps ~return_results
  | Protocol.Ping | Protocol.Status | Protocol.Metrics | Protocol.Drain ->
      (* Unreachable: cheap ops are never enqueued. *)
      Protocol.error_reply ~kind:"internal" "cheap op in the queue"

let step t =
  match Queue.take_opt t.queue with
  | None -> None
  | Some job ->
      let payload = execute t job in
      incr t "serve.replies";
      let delivered =
        match job.job_client with
        | None -> false
        | Some client -> not (Hashtbl.mem t.dead client)
      in
      if not delivered then incr t "serve.dropped";
      refresh_gauges t;
      Some { job = job.job_id; client = job.job_client; reply = payload; delivered }

let disconnect t ~client =
  if not (Hashtbl.mem t.dead client) then begin
    Hashtbl.replace t.dead client ();
    incr t "serve.disconnects"
  end

let draining t = t.draining
let idle t = Queue.is_empty t.queue
let pending t = Queue.length t.queue
let queue_peak t = t.peak
let recovered t = t.recovered
let recovered_snapshots t = t.recovered_snapshots
let metrics t = t.reg

let close t =
  (match t.journal with
  | Some j ->
      if t.draining && idle t then Journal.append j Journal.Drained;
      Journal.close j
  | None -> ());
  refresh_gauges t
