module Engine = Tpdbt_dbt.Engine
module Error = Tpdbt_dbt.Error
module Perf_model = Tpdbt_dbt.Perf_model
module Spec = Tpdbt_workloads.Spec
module Fault = Tpdbt_faults.Fault
module Plan = Tpdbt_faults.Plan
module Prng = Tpdbt_vm.Prng

type outcome =
  | Recovered
  | Degraded
  | Failed of Error.t
  | Uncaught of string

type trial = {
  index : int;
  plan : Plan.t;
  outcome : outcome;
  report : Fault.report option;
  counters : Perf_model.counters option;
}

type t = {
  bench : Spec.t;
  threshold : int;
  seed : int64;
  clean : Engine.result;
  trials : trial list;
}

let outcome_name = function
  | Recovered -> "recovered"
  | Degraded -> "degraded"
  | Failed _ -> "failed"
  | Uncaught _ -> "uncaught"

let classify (clean : Engine.result) (r : Engine.result) =
  let c = r.Engine.counters in
  match r.Engine.error with
  | Some e when Error.fatal e -> Failed e
  | _ ->
      if
        c.Perf_model.corrupted_entries > 0
        && c.Perf_model.shadow_divergences = 0
      then
        (* Silently corrupted translated code executed and the shadow
           oracle never flagged it: wrong results may have been produced
           with no signal at all.  As bad as an escaped exception. *)
        Uncaught "silent corruption executed undetected"
      else if
        r.Engine.outputs = clean.Engine.outputs
        && r.Engine.steps = clean.Engine.steps
      then Recovered
      else Degraded

let run ?(jobs = 1) ?(threshold = 20) ?(trials = 8) ?(arms = 4)
    ?(kinds = Fault.all_kinds) ?(shadow_sample = 0) ~seed bench =
  let config = Engine.config ~threshold ~shadow_sample () in
  let clean = Runner.run_ref bench ~config in
  (match clean.Engine.error with
  | Some e when Error.fatal e -> raise (Error.Error e)
  | _ -> ());
  let prng = Prng.create ~seed in
  (* Every plan is built up front on the calling domain, drawing seeds
     in trial order — the campaign stays a pure function of its inputs
     at every job count, and workers only ever run engines. *)
  let plan_seeds =
    let rec draw n acc =
      if n = 0 then List.rev acc
      else draw (n - 1) (Prng.next_int64 prng :: acc)
    in
    draw trials []
  in
  let tasks =
    List.mapi
      (fun index plan_seed ->
        ( index,
          Plan.make ~kinds ~count:arms
            ~horizon:(max 1 clean.Engine.steps)
            ~seed:plan_seed () ))
      plan_seeds
  in
  let run_trial (index, plan) =
    let config = Engine.config ~threshold ~shadow_sample ~faults:plan () in
    match Runner.run_ref bench ~config with
    | result ->
        {
          index;
          plan;
          outcome = classify clean result;
          report = result.Engine.faults;
          counters = Some result.Engine.counters;
        }
    | exception e ->
        {
          index;
          plan;
          outcome = Uncaught (Printexc.to_string e);
          report = None;
          counters = None;
        }
  in
  let trials, _ =
    Tpdbt_parallel.Pool.map ~jobs run_trial (Array.of_list tasks)
  in
  let trials = Array.to_list trials in
  { bench; threshold; seed; clean; trials }

type tally = { recovered : int; degraded : int; failed : int; uncaught : int }

let tally t =
  List.fold_left
    (fun acc tr ->
      match tr.outcome with
      | Recovered -> { acc with recovered = acc.recovered + 1 }
      | Degraded -> { acc with degraded = acc.degraded + 1 }
      | Failed _ -> { acc with failed = acc.failed + 1 }
      | Uncaught _ -> { acc with uncaught = acc.uncaught + 1 })
    { recovered = 0; degraded = 0; failed = 0; uncaught = 0 }
    t.trials

let ok t = (tally t).uncaught = 0

(* ---- chaos harness ----------------------------------------------------- *)

module Sup = Tpdbt_parallel.Supervisor
module Suite = Tpdbt_workloads.Suite
module Json = Tpdbt_telemetry.Json

type chaos_fault = Stall | Crash | Bitflip | Panic | Kill | Truncate

let chaos_fault_name = function
  | Stall -> "stall"
  | Crash -> "crash"
  | Bitflip -> "bitflip"
  | Panic -> "panic"
  | Kill -> "kill"
  | Truncate -> "truncate"

type chaos = {
  chaos_seed : int64;
  chaos_benches : string list;
  injected_faults : (string * chaos_fault) list;
  poisoned_benches : string list;
  retried : int;
  worker_crashes : int;
  corrupt_checkpoints : string list;
  resumed_from_snapshot : string list;
  survivors : string list;
  mismatched : string list;
}

let victims_of fault c =
  List.filter_map
    (fun (n, f) -> if f = fault then Some n else None)
    c.injected_faults

let chaos_ok c =
  let sort = List.sort String.compare in
  c.mismatched = []
  && sort c.poisoned_benches = sort (victims_of Stall c)
  && sort c.corrupt_checkpoints
     = sort (victims_of Bitflip c @ victims_of Truncate c)
  && sort c.resumed_from_snapshot = sort (victims_of Kill c)
  && c.worker_crashes >= List.length (victims_of Crash c)
  && c.retried >= List.length (victims_of Panic c)

(* Everything scheduling-dependent (degraded flag, busy/elapsed times,
   job count) is deliberately absent: the summary must be byte-identical
   across -j 1/2/4 and across repeated same-seed runs. *)
let chaos_to_json c =
  Json.obj
    [
      ("seed", Json.quote (Printf.sprintf "0x%Lx" c.chaos_seed));
      ("benches", Json.arr (List.map Json.quote c.chaos_benches));
      ( "faults",
        Json.obj
          (List.map
             (fun (n, f) -> (n, Json.quote (chaos_fault_name f)))
             c.injected_faults) );
      ("poisoned", Json.arr (List.map Json.quote c.poisoned_benches));
      ("retried", string_of_int c.retried);
      ("crashes", string_of_int c.worker_crashes);
      ("corrupt", Json.arr (List.map Json.quote c.corrupt_checkpoints));
      ( "resumed_from_snapshot",
        Json.arr (List.map Json.quote c.resumed_from_snapshot) );
      ("survivors", Json.arr (List.map Json.quote c.survivors));
      ("mismatched", Json.arr (List.map Json.quote c.mismatched));
      ("ok", if chaos_ok c then "true" else "false");
    ]

let render_chaos ppf c =
  Format.fprintf ppf "@[<v>chaos sweep: seed 0x%Lx, %d benchmarks@,"
    c.chaos_seed
    (List.length c.chaos_benches);
  List.iter
    (fun (n, f) ->
      Format.fprintf ppf "  fault: %s <- %s@," n (chaos_fault_name f))
    c.injected_faults;
  Format.fprintf ppf
    "  retried %d, worker crashes %d@,\
    \  poisoned: %s@,\
    \  corrupt checkpoints: %s@,\
    \  resumed from mid-run snapshot: %s@,\
    \  survivors byte-identical to fault-free run: %d/%d@,"
    c.retried c.worker_crashes
    (match c.poisoned_benches with
    | [] -> "none"
    | l -> String.concat ", " l)
    (match c.corrupt_checkpoints with
    | [] -> "none"
    | l -> String.concat ", " l)
    (match c.resumed_from_snapshot with
    | [] -> "none"
    | l -> String.concat ", " l)
    (List.length c.survivors)
    (List.length c.chaos_benches - List.length c.poisoned_benches);
  List.iter
    (fun n -> Format.fprintf ppf "  MISMATCH: %s@," n)
    c.mismatched;
  Format.fprintf ppf "verdict: %s@]"
    (if chaos_ok c then "survived" else "FAILED")

let chaos_write_file file s =
  let oc = open_out_bin file in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

(* The stall victim's step budget: far below any suite benchmark's
   instruction count, so its runs deterministically die with
   [Deadline_exceeded] on every attempt until the breaker opens. *)
let stall_deadline = 1_000

let chaos ?(jobs = 1) ?benches ?thresholds ?max_steps ?progress ~dir ~seed ()
    =
  let benches =
    match benches with
    | Some l -> l
    | None ->
        List.filter_map Suite.find [ "gzip"; "swim"; "mgrid"; "art"; "mcf" ]
  in
  let names = List.map (fun (b : Spec.t) -> b.Spec.name) benches in
  let n = List.length benches in
  (* Seeded fault plan: shuffle the benchmarks, then deal the fault
     kinds in a fixed order to the first few victims.  Pure function of
     [(benches, seed)]. *)
  let prng = Prng.create ~seed in
  let order = Array.of_list names in
  for i = n - 1 downto 1 do
    let j = Prng.below prng (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  (* One extra draw after the shuffle seeds the kill point's jitter;
     taken unconditionally so the shuffle itself is unchanged whether
     or not a kill victim gets dealt. *)
  let kill_jitter = Prng.below prng 1_000_000 in
  let injected_faults =
    List.filteri
      (fun k _ -> k < n)
      [ Stall; Crash; Bitflip; Panic; Kill; Truncate ]
    |> List.mapi (fun k f -> (order.(k), f))
  in
  let fault_of name =
    List.find_map
      (fun (v, f) -> if String.equal v name then Some f else None)
      injected_faults
  in
  (* Reference: the fault-free sequential sweep the survivors must
     match byte for byte. *)
  let reference, _ = Runner.run_sweep ?thresholds ?max_steps benches in
  if reference.Runner.failures <> [] then
    invalid_arg "Campaign.chaos: a benchmark fails even without faults";
  let reference_text =
    List.map
      (fun (d : Runner.data) ->
        (d.Runner.bench.Spec.name, Checkpoint.data_to_string d))
      reference.Runner.data
  in
  (* The harness owns [dir]: stale checkpoints would make the resume
     scan depend on previous runs. *)
  if Sys.file_exists dir then
    Array.iter
      (fun f ->
        if Filename.check_suffix f ".ckpt" then
          Sys.remove (Filename.concat dir f))
      (Sys.readdir dir);
  let stall_run bench =
    Runner.run_benchmark_result ?thresholds ?max_steps
      ~deadline:stall_deadline bench
  in
  (* The kill victim's suspension point: a seeded guest-instruction
     count strictly inside its first (avep) stage, so the run is
     interrupted at an arbitrary mid-run instruction — never at a
     stage boundary, never past the end. *)
  let kill_deadline name =
    match
      List.find_map
        (fun (d : Runner.data) ->
          if String.equal d.Runner.bench.Spec.name name then
            Some d.Runner.avep.Engine.steps
          else None)
        reference.Runner.data
    with
    | Some steps when steps >= 4 ->
        (steps / 4) + (kill_jitter mod max 1 (steps / 2))
    | Some _ | None -> 1
  in
  (* Pass 1: tasks panic and workers crash on their first attempt, the
     stall victim never fits its deadline, and the kill victim is
     suspended mid-run. *)
  let store = Checkpoint.store ?thresholds ~dir () in
  let sweep ~run_task =
    Runner.run_sweep ?thresholds ?max_steps ~jobs ~policy:Sup.default_policy
      ~store ?progress ~run_task benches
  in
  let _sweep1, sup1 =
    sweep ~run_task:(fun ~attempt (bench : Spec.t) run ->
        match fault_of bench.Spec.name with
        | Some Panic when attempt = 1 -> failwith "chaos: injected task panic"
        | Some Crash when attempt = 1 -> raise Sup.Crash_worker
        | Some Stall -> stall_run bench
        | Some Kill ->
            (* Killed at a seeded guest instruction: the run suspends
               there, publishes its mid-run snapshot into the store and
               is parked — the supervisor neither retries nor poisons
               it. *)
            Runner.run_benchmark_result ?thresholds ?max_steps
              ~deadline:(kill_deadline bench.Spec.name)
              ~suspend_on_deadline:true ~on_snapshot:store.Runner.save_suspended
              bench
        | _ -> run ())
  in
  (* Damage the checkpoint victims' files.  Pass 1 never re-reads a file
     it saved, so damaging them now is the same as damaging them as
     they were written. *)
  List.iter
    (fun (b : Spec.t) ->
      let file = Checkpoint.path ~dir b in
      let damage f =
        let text = Tpdbt_durable.Durable.read_file file in
        chaos_write_file file (f text (String.length text))
      in
      match fault_of b.Spec.name with
      | Some Bitflip ->
          damage (fun text len ->
              let bytes = Bytes.of_string text in
              let i = len / 2 in
              Bytes.set bytes i
                (Char.chr (Char.code (Bytes.get bytes i) lxor 0x40));
              Bytes.to_string bytes)
      | Some Truncate -> damage (fun text len -> String.sub text 0 (len / 2))
      | Some Stall | Some Crash | Some Panic | Some Kill | None -> ())
    benches;
  (* Pass 2: resume from the damaged store.  Only the stall is a
     persistent fault; panicking and crashing tasks already recovered
     in pass 1 and resume from their checkpoints, the kill victim
     continues from its mid-run snapshot, and the damaged checkpoints
     are classified corrupt and re-run cleanly. *)
  let resumed_from_snapshot =
    List.filter_map
      (fun (b : Spec.t) ->
        if Option.is_some (Checkpoint.load_suspended ?thresholds ~dir b) then
          Some b.Spec.name
        else None)
      benches
  in
  let sweep2, sup2 =
    sweep ~run_task:(fun ~attempt:_ (bench : Spec.t) run ->
        match fault_of bench.Spec.name with
        | Some Stall -> stall_run bench
        | _ -> run ())
  in
  let poisoned_benches =
    List.map
      (fun ((b : Spec.t), _reason) -> b.Spec.name)
      sup2.Runner.poisoned
  in
  let corrupt_checkpoints = List.map fst sup2.Runner.corrupt in
  let survivors, mismatched =
    List.fold_left
      (fun (ok, bad) name ->
        if List.mem name poisoned_benches then (ok, bad)
        else
          let got =
            List.find_map
              (fun (d : Runner.data) ->
                if String.equal d.Runner.bench.Spec.name name then
                  Some (Checkpoint.data_to_string d)
                else None)
              sweep2.Runner.data
          in
          match (got, List.assoc_opt name reference_text) with
          | Some g, Some r when String.equal g r -> (name :: ok, bad)
          | _ -> (ok, name :: bad))
      ([], []) names
  in
  {
    chaos_seed = seed;
    chaos_benches = names;
    injected_faults;
    poisoned_benches;
    retried = sup1.Runner.sup.Sup.retries + sup2.Runner.sup.Sup.retries;
    worker_crashes = sup1.Runner.sup.Sup.crashes + sup2.Runner.sup.Sup.crashes;
    corrupt_checkpoints;
    resumed_from_snapshot;
    survivors = List.rev survivors;
    mismatched = List.rev mismatched;
  }

let render ppf t =
  let n = List.length t.trials in
  Format.fprintf ppf
    "@[<v>fault campaign: %s (threshold %d, seed 0x%Lx, %d trials)@,\
     clean run: %d steps, %d outputs@,"
    t.bench.Spec.name t.threshold t.seed n t.clean.Engine.steps
    (List.length t.clean.Engine.outputs);
  List.iter
    (fun tr ->
      let injected, armed =
        match tr.report with
        | Some r -> (Fault.injected r, Plan.count tr.plan)
        | None -> (0, Plan.count tr.plan)
      in
      Format.fprintf ppf "  trial %d: %-9s injected %d/%d" tr.index
        (outcome_name tr.outcome) injected armed;
      (match tr.counters with
      | Some c ->
          Format.fprintf ppf "  retries %d dissolves %d retranslated %d"
            c.Perf_model.retrans_retries c.Perf_model.fault_dissolves
            c.Perf_model.blocks_retranslated;
          if c.Perf_model.corrupted_entries > 0 then
            Format.fprintf ppf " corrupted %d divergences %d quarantined %d"
              c.Perf_model.corrupted_entries c.Perf_model.shadow_divergences
              c.Perf_model.regions_quarantined
      | None -> ());
      (match tr.outcome with
      | Failed e -> Format.fprintf ppf "  [%s]" (Error.to_string e)
      | Uncaught msg -> Format.fprintf ppf "  [uncaught: %s]" msg
      | Recovered | Degraded -> ());
      Format.fprintf ppf "@,")
    t.trials;
  let { recovered; degraded; failed; uncaught } = tally t in
  let injected_total =
    List.fold_left
      (fun acc tr ->
        match tr.report with Some r -> acc + Fault.injected r | None -> acc)
      0 t.trials
  in
  let armed_total =
    List.fold_left (fun acc tr -> acc + Plan.count tr.plan) 0 t.trials
  in
  Format.fprintf ppf
    "outcomes: %d recovered, %d degraded, %d failed, %d uncaught (%d shots \
     landed / %d arms)@]"
    recovered degraded failed uncaught injected_total armed_total
