(* The workloads: their set-up, their measured operations, and the
   extra traced operations that give a traced run spans for every
   layer. *)

module Spec = Tpdbt_workloads.Spec
module Suite = Tpdbt_workloads.Suite
module Engine = Tpdbt_dbt.Engine
module Machine = Tpdbt_vm.Machine
module Runner = Tpdbt_experiments.Runner
module Checkpoint = Tpdbt_experiments.Checkpoint
module Figures = Tpdbt_experiments.Figures
module Table = Tpdbt_experiments.Table
module Pool = Tpdbt_parallel.Pool
module Json = Tpdbt_telemetry.Json

type workload = Sweep | Sweep_par | Durable | Resume | Serve

let workloads =
  [
    ("sweep", Sweep);
    ("sweep-par", Sweep_par);
    ("durable", Durable);
    ("resume", Resume);
    ("serve", Serve);
  ]

let workload_name w = fst (List.find (fun (_, w') -> w' = w) workloads)

type options = {
  workload : workload;
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;
}

let now = Unix.gettimeofday

(* ---- scratch space ---------------------------------------------------- *)

let out_dir = "_ledger"

let scratch =
  Filename.concat out_dir (Printf.sprintf "tmp-%d" (Unix.getpid ()))

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let mkdir path = if not (Sys.file_exists path) then Sys.mkdir path 0o755

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir = Filename.concat scratch (Printf.sprintf "d%d" !n) in
    mkdir dir;
    dir

(* ---- state of one run -------------------------------------------------- *)

type env = {
  opts : options;
  gate : Gate.t;
  jobs : int;
  mutable store : string;  (** the resume workload's checkpoint store *)
  mutable replay : Spec.t list;
      (** the first measured operation's benchmarks, which the gate runs
          again stage by stage against the interpreter *)
  mutable load_net : float list;
      (** traced resume: each [Checkpoint.load] minus the
          [Runner.assemble] of the same data, seconds *)
  mutable serve_status : (float * float * float) option;
      (** final status of a traced daemon: cache hits, cache misses,
          journal records *)
  mutable sent : string list;  (** request texts, for the parse timing *)
  mutable next_trace : int;
  mutable own : int list;  (** trace ids of the workload's own operations *)
}

let create opts =
  {
    opts;
    gate = Gate.create ();
    jobs = Pool.default_jobs ();
    store = "";
    replay = [];
    load_net = [];
    serve_status = None;
    sent = [];
    next_trace = 0;
    own = [];
  }

let next_trace env =
  env.next_trace <- env.next_trace + 1;
  env.next_trace

(* The trace id of the [i]th measured operation: a traced run traces
   every other one, so traced and untraced operations see the same
   conditions and their medians give the tracing overhead. *)
let own_trace env i =
  if env.opts.trace && i mod 2 = 0 then begin
    let t = next_trace env in
    env.own <- t :: env.own;
    t
  end
  else 0

(* One measured operation. *)
type sample = {
  secs : float;  (** scaled to the reference speed ({!Meter}) *)
  raw : float;  (** seconds as measured *)
  meter : float;  (** the host-speed reading taken just before *)
  rss : float;
      (** peak resident set (MiB) of the working process during the
          operation: the ledger, or the daemon for served requests *)
  cls : string;
  traced : bool;
  ok : bool;
}

(* ---- in-process operations -------------------------------------------- *)

(* What an operation produced; [check] runs the gate after timing. *)
type outcome = {
  data : Runner.data list;
  figures : (string * Table.t) list;
  loads : float list;  (** traced resume: per-benchmark load seconds *)
  check : unit -> bool;
}

let benchmark_span ?snapshots b =
  Trace.span "experiments.benchmark" (fun () ->
      fst (Pipeline.benchmark ?snapshots b))

let traced_outcome env data =
  {
    data;
    figures = Trace.span "experiments.figures" (fun () -> Figures.all data);
    loads = [];
    check = (fun () -> List.for_all (Gate.data env.gate) data);
  }

let untraced_outcome env ~benches (s : Runner.sweep) =
  {
    data = s.Runner.data;
    figures = Figures.all s.Runner.data;
    loads = [];
    check = (fun () -> Gate.sweep env.gate ~benches s);
  }

(* A user regenerating the figures at -j 1. *)
let sweep_op env ~traced benches =
  if traced then traced_outcome env (List.map benchmark_span benches)
  else
    untraced_outcome env ~benches
      (Runner.run_many ~max_steps:Inputs.max_steps benches)

let pool_attrs (_, (st : Pool.stats), task_max) =
  let jobs = float_of_int st.Pool.jobs in
  [
    ("speedup", Pool.speedup st);
    ("idle_s", Float.max 0.0 ((jobs *. st.Pool.elapsed) -. st.Pool.busy));
    ("task_max_s", task_max);
    ("overhead_s", st.Pool.elapsed -. task_max);
  ]

(* The same at -j <cores>; traced, the pool maps the stage-by-stage
   pipeline and its statistics ride on the [parallel.map] span. *)
let sweep_par_op env ~traced benches =
  if traced then begin
    let data, _, _ =
      Trace.span "parallel.map" ~attrs:pool_attrs (fun () ->
          let ctx = Trace.current () in
          let task_max = ref 0.0 in
          let on_event = function
            | Pool.Finish { seconds; _ } ->
                task_max := Float.max !task_max seconds
            | Pool.Start _ | Pool.Steal _ -> ()
          in
          let results, stats =
            Pool.map ~jobs:env.jobs ~on_event
              (fun b -> Trace.within ctx (fun () -> benchmark_span b))
              (Array.of_list benches)
          in
          (Array.to_list results, stats, !task_max))
    in
    traced_outcome env data
  end
  else
    untraced_outcome env ~benches
      (Runner.run_many_par ~jobs:env.jobs ~max_steps:Inputs.max_steps benches)

(* A crash-safe sweep into a fresh store, snapshotting mid-run.  The
   gate reads back every file the sweep left, then deletes the store. *)
let durable_op env ~traced benches =
  let dir = fresh_dir () in
  let stored () =
    let ok =
      List.for_all
        (fun b ->
          Gate.text env.gate b (Proc.read_file (Checkpoint.path ~dir b)))
        benches
    in
    rm_rf dir;
    ok
  in
  let o =
    if traced then
      traced_outcome env
        (List.map
           (fun b ->
             ignore
               (Trace.span "persist.ckpt_lookup" (fun () ->
                    Checkpoint.load ~dir b));
             benchmark_span ~snapshots:dir b)
           benches)
    else
      untraced_outcome env ~benches
        (Checkpoint.run_many ~max_steps:Inputs.max_steps
           ~snapshot_every:Inputs.snapshot_every ~dir benches)
  in
  { o with check = (fun () -> o.check () && stored ()) }

(* Figures regenerated from a finished store: no engine work at all. *)
let resume_op env ~traced benches =
  let dir = env.store in
  if traced then begin
    let loaded =
      List.map
        (fun b ->
          Trace.timed "persist.ckpt_load" (fun () -> Checkpoint.load ~dir b))
        benches
    in
    if List.exists (fun (d, _) -> Option.is_none d) loaded then
      failwith "a finished checkpoint did not load";
    {
      (traced_outcome env (List.filter_map fst loaded)) with
      loads = List.map snd loaded;
    }
  end
  else begin
    let reran = ref 0 in
    let s =
      Checkpoint.run_many ~max_steps:Inputs.max_steps
        ~progress:(fun _ status -> if status = Runner.Started then incr reran)
        ~dir benches
    in
    let o = untraced_outcome env ~benches s in
    let check () =
      (!reran = 0 || Gate.fail env.gate "resume re-ran %d benchmarks" !reran)
      && o.check ()
    in
    { o with check }
  end

let operation = function
  | Sweep -> sweep_op
  | Sweep_par -> sweep_par_op
  | Durable -> durable_op
  | Resume -> resume_op
  | Serve -> invalid_arg "Ops.operation: serve is not in-process"

(* The cores an operation keeps busy, for the host-speed reading. *)
let meter_domains env = function Sweep_par -> env.jobs | _ -> 1

(* Time [f] after a host-speed reading on [domains] domains and then
   [prepare] (untimed): the scaled seconds, the measured seconds, the
   reading and [f]'s result. *)
let metered ~domains ?(prepare = ignore) f =
  let meter = Meter.read ~domains in
  prepare ();
  let t0 = now () in
  let r = f () in
  let raw = now () -. t0 in
  (Meter.scale ~domains ~meter raw, raw, meter, r)

(* Time one operation ([trace > 0] runs it traced, under a root span of
   that trace id), then run the gate on what it produced. *)
let run_op env kind ?(trace = 0) ?(root = "ledger.op") benches =
  let body () = operation kind env ~traced:(trace > 0) benches in
  (* each operation starts from a collected heap, as in a fresh tpdbt
     process, rather than amid the garbage of the previous one (or of
     the host-speed reading) *)
  let prepare () =
    Gc.compact ();
    Proc.reset_peak "self"
  in
  let secs, raw, meter, result =
    metered ~domains:(meter_domains env kind) ~prepare (fun () ->
        match
          if trace > 0 then fst (Trace.root ~trace root body) else body ()
        with
        | o -> Ok o
        | exception e -> Error (Printexc.to_string e))
  in
  let rss = Proc.peak_rss_mb "self" in
  let ok =
    match result with
    | Ok o -> o.check ()
    | Error msg -> Gate.fail env.gate "%s: %s" (workload_name kind) msg
  in
  ( (if ok then Result.to_option result else None),
    {
      secs;
      raw;
      meter;
      rss;
      cls = workload_name kind;
      traced = trace > 0;
      ok;
    } )

(* Layers a traced operation does not call, timed in isolation on the
   same data so that every layer of the ledger is measured: the
   interpreter on the stage inputs, the offline analyses, checkpoint
   encoding, and (resume) the assembly share of each load. *)
let isolate env (o : outcome) =
  let analyse (d : Runner.data) =
    let program, ref_input, train_input = Spec.build d.Runner.bench in
    List.iter
      (fun (input : Spec.input) ->
        let m =
          Machine.create ~seed:input.Spec.seed (Spec.apply_input program input)
        in
        Trace.span "vm.interp"
          ~attrs:(fun () -> [ ("instrs", float_of_int (Machine.steps m)) ])
          (fun () -> ignore (Machine.run ~max_steps:Inputs.max_steps m)))
      [ ref_input; train_input ];
    let avep = d.Runner.avep.Engine.snapshot in
    List.iter
      (fun (r : Runner.threshold_run) ->
        let inip = r.Runner.result.Engine.snapshot in
        ignore
          (Trace.span "profiles.compare" (fun () ->
               Tpdbt_profiles.Metrics.compare_snapshots ~inip ~avep));
        ignore
          (Trace.span "profiles.navep" (fun () ->
               Tpdbt_profiles.Navep.build ~inip ~avep)))
      d.Runner.runs;
    ignore
      (Trace.span "profiles.offline_regions" (fun () ->
           Tpdbt_profiles.Offline_regions.train_cp_lp
             ~train:d.Runner.train.Engine.snapshot ~avep));
    ignore
      (Trace.span "persist.ckpt_encode" (fun () -> Checkpoint.data_to_string d))
  in
  let load_share (d : Runner.data) load =
    let raw =
      List.map
        (fun (r : Runner.threshold_run) ->
          (r.Runner.label, r.Runner.scaled, r.Runner.result))
        d.Runner.runs
    in
    let _, assemble =
      Trace.timed "experiments.assemble" (fun () ->
          Runner.assemble d.Runner.bench d.Runner.avep d.Runner.train raw)
    in
    env.load_net <- (load -. assemble) :: env.load_net
  in
  ignore
    (Trace.root ~trace:(next_trace env) "ledger.isolated" (fun () ->
         List.iter analyse o.data;
         if o.loads <> [] then List.iter2 load_share o.data o.loads))

(* ---- in-process set-up and measurement --------------------------------- *)

(* [tpdbt sweep --checkpoint dir] over [members], as a user runs it;
   false if it failed. *)
let tpdbt_sweep env ~jobs dir members =
  let status =
    Proc.tpdbt
      ([ "sweep"; "--jobs"; string_of_int jobs; "--checkpoint"; dir ]
      @ [ "--max-steps"; string_of_int Inputs.max_steps ]
      @ List.concat_map (fun b -> [ "-b"; b.Spec.name ]) members)
  in
  status = 0 || Gate.fail env.gate "tpdbt sweep exited %d" status

(* The finished store the resume workload reads, written once per run
   at -j <cores>; the gate checks every file it leaves.  Not part of the
   timed set-up: the sweep workloads time the same work. *)
let write_store env members =
  let dir = fresh_dir () in
  if tpdbt_sweep env ~jobs:env.jobs dir members then
    List.iter
      (fun b ->
        ignore (Gate.text env.gate b (Proc.read_file (Checkpoint.path ~dir b))))
      members;
  dir

(* The benchmarks a resume store holds: every member, or at smoke size
   the warm-up pair and the pairs the two measured operations draw. *)
let store_members env =
  if env.opts.smoke then
    let ahead = Inputs.create env.opts.seed in
    Inputs.warm_up @ List.concat (List.init 2 (fun _ -> Inputs.pair ahead))
  else Suite.all

(* Set-up: one warm-up operation on the warm-up pair, whose figure
   tables the gate compares with the golden digest.  For resume it is
   preceded by a user regenerating the figures from the finished store
   in a fresh [tpdbt] process.  Returns the seconds it took, scaled to
   the reference speed. *)
let setup_inprocess env kind =
  let regenerate_secs =
    if kind <> Resume then 0.0
    else begin
      let members = store_members env in
      if env.store = "" then env.store <- write_store env members;
      let secs, _, _, _ =
        metered ~domains:1 (fun () -> tpdbt_sweep env ~jobs:1 env.store members)
      in
      secs
    end
  in
  let outcome, sample = run_op env kind Inputs.warm_up in
  Option.iter (fun o -> ignore (Gate.figures env.gate o.figures)) outcome;
  regenerate_secs +. sample.secs

let isolated_ops = 10

(* Operations until [--seconds] of them have been timed ([--smoke]: two). *)
let measure_inprocess env kind inputs =
  let samples = ref [] and busy = ref 0.0 and i = ref 0 in
  let finished () =
    if env.opts.smoke then !i >= 2 else !busy >= env.opts.seconds
  in
  while not (finished ()) do
    incr i;
    let trace = own_trace env !i in
    let benches = Inputs.pair inputs in
    if !i = 1 then env.replay <- benches;
    let outcome, s = run_op env kind ~trace benches in
    (* the isolated timings of a few operations are enough for their
       medians, and resume runs hundreds *)
    if trace > 0 && List.length env.own <= isolated_ops then
      Option.iter (isolate env) outcome;
    busy := !busy +. s.raw;
    samples := s :: !samples
  done;
  List.rev !samples

(* ---- served operations ------------------------------------------------- *)

let status_counts daemon =
  let num doc k = Option.bind (Json.member k doc) Json.as_number in
  match Proc.request daemon {|{"op":"status"}|} with
  | Error _ -> None
  | Ok text -> (
      match Json.parse text with
      | Error _ -> None
      | Ok doc -> (
          match
            ( num doc "cache_hits",
              num doc "cache_misses",
              num doc "journal_records" )
          with
          | Some h, Some m, Some j -> Some (h, m, j)
          | _ -> None))

(* One request on its own connection, as [tpdbt request] sends it,
   after a host-speed reading unless [read_meter] is false (the set-up
   takes one reading for all its requests). *)
let serve_request env daemon ?(trace = 0) ?(read_meter = true) req =
  let payload = Inputs.payload req in
  let cls = Inputs.class_name (Inputs.request_class req) in
  let request () = Proc.request daemon payload in
  let send () =
    if trace > 0 then fst (Trace.root ~trace ("serve." ^ cls) request)
    else request ()
  in
  let pid = string_of_int daemon.Proc.pid in
  let prepare () = Proc.reset_peak pid in
  let secs, raw, meter, reply =
    if read_meter then metered ~domains:1 ~prepare send
    else begin
      prepare ();
      let t0 = now () in
      let reply = send () in
      let raw = now () -. t0 in
      (raw, raw, nan, reply)
    end
  in
  let rss = Proc.peak_rss_mb pid in
  if List.length env.sent < 200 then env.sent <- payload :: env.sent;
  let ok =
    match reply with
    | Ok text -> Gate.reply env.gate req text
    | Error msg -> Gate.fail env.gate "%s: %s" cls msg
  in
  (reply, { secs; raw; meter; rss; cls; traced = trace > 0; ok })

(* Set-up: start a daemon and send it the warm-up requests; the gate
   checks the figure tables of the warm-up sweep.  Returns the daemon
   and the seconds it took, scaled to the reference speed. *)
let setup_serve env =
  let dir = fresh_dir () in
  let secs, _, _, (daemon, replies) =
    metered ~domains:1 (fun () ->
        let daemon = Proc.start ~dir in
        ( daemon,
          List.map
            (fun r -> (r, serve_request env daemon ~read_meter:false r))
            Inputs.warm_up_requests ))
  in
  List.iter
    (function
      | Inputs.Sweep_req benches, (Ok text, { ok = true; _ }) -> (
          match Gate.served_data benches text with
          | Some data -> ignore (Gate.figures env.gate (Figures.all data))
          | None -> ignore (Gate.fail env.gate "warm-up sweep did not parse"))
      | _ -> ())
    replies;
  (daemon, secs)

(* Requests until [--seconds] of them have been timed ([--smoke]: 20). *)
let measure_serve env daemon inputs =
  let samples = ref [] and busy = ref 0.0 and i = ref 0 in
  let finished () =
    if env.opts.smoke then !i >= 20 else !busy >= env.opts.seconds
  in
  while not (finished ()) do
    incr i;
    let trace = own_trace env !i in
    let _, s = serve_request env daemon ~trace (Inputs.request inputs) in
    busy := !busy +. s.raw;
    samples := s :: !samples
  done;
  List.rev !samples

(* ---- traced runs: the other workloads' layers -------------------------- *)

(* One traced block of the request mix against a fresh daemon, so every
   request class has spans.  A serving run keeps the cache and journal
   counts of its own measured daemon. *)
let serve_probe env =
  let daemon = Proc.start ~dir:(fresh_dir ()) in
  Fun.protect
    ~finally:(fun () -> Proc.stop daemon)
    (fun () ->
      let inputs = Inputs.create env.opts.seed in
      List.iter
        (fun _ ->
          let trace = next_trace env in
          ignore (serve_request env daemon ~trace (Inputs.request inputs)))
        Inputs.mix;
      if env.serve_status = None then env.serve_status <- status_counts daemon)

(* Time the protocol parser on the request texts the run sent. *)
let parse_timing env =
  let calls = 50 in
  let parse text =
    Trace.span "serve.parse"
      ~attrs:(fun () -> [ ("calls", float_of_int calls) ])
      (fun () ->
        for _ = 1 to calls do
          ignore (Tpdbt_serve.Protocol.parse_request text)
        done)
  in
  ignore
    (Trace.root ~trace:(next_trace env) "ledger.isolated" (fun () ->
         List.iter parse env.sent))

(* One traced operation of every other in-process workload on [pair]
   and a served block of requests, so that a traced run has spans for
   every layer. *)
let probe_layers env pair =
  let own = env.opts.workload in
  List.iter
    (fun kind ->
      if kind <> own then begin
        if kind = Resume then env.store <- write_store env pair;
        let trace = next_trace env in
        let outcome, _ = run_op env kind ~trace ~root:"ledger.probe" pair in
        Option.iter (isolate env) outcome
      end)
    [ Sweep; Sweep_par; Durable; Resume ];
  serve_probe env;
  parse_timing env
