(* tpdbt — command-line driver for the two-phase DBT reproduction.

   Subcommands: asm, dis, check, run, dbt, bench, sweep, profile,
   perfdiff, analyze, report, ablate, trace, faults, cache, chaos,
   fuzz, serve, request, snapshot. *)

open Cmdliner

(* Exit-code taxonomy, uniform across subcommands (see README):
   0 success; 1 usage (bad invocation, unknown benchmark/fault/file);
   2 validation or corruption (malformed or damaged input, failed
   self-check); 3 regression or divergence (everything ran, the
   answer is bad). *)
let exit_usage = 1
let exit_invalid = 2
let exit_regression = 3

let read_file = Tpdbt_durable.Durable.read_file

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

(* Every output directory goes through here before any work starts:
   DIR is made if missing, and one that cannot be made (its parent is
   missing, say) or is not a directory is a usage error. *)
let ensure_dir dir =
  match Sys.is_directory dir with
  | true -> ()
  | false ->
      Printf.eprintf "error: %s is not a directory\n%!" dir;
      exit exit_usage
  | exception Sys_error _ -> (
      try Sys.mkdir dir 0o755
      with Sys_error msg ->
        Printf.eprintf "error: cannot make directory: %s\n%!" msg;
        exit exit_usage)

let ensure_parent file = ensure_dir (Filename.dirname file)

(* A suite benchmark by name; an unknown name is a usage error. *)
let suite_bench name =
  match Tpdbt_workloads.Suite.find name with
  | Some b -> b
  | None ->
      prerr_endline ("unknown benchmark: " ^ name);
      exit exit_usage

(* A table as DIR/ID.csv, DIR already made by [ensure_dir]; a file that
   cannot be written is a usage error. *)
let write_table_csv ~dir id table =
  try
    write_file
      (Filename.concat dir (id ^ ".csv"))
      (Tpdbt_experiments.Table.to_csv table)
  with Sys_error msg ->
    Printf.eprintf "cannot write CSV: %s\n%!" msg;
    exit exit_usage

let or_die = function
  | Ok v -> v
  | Error msg ->
      prerr_endline ("error: " ^ msg);
      exit exit_invalid

(* Same, for operations whose failures are typed engine errors. *)
let or_die_err = function
  | Ok v -> v
  | Error e ->
      prerr_endline ("error: " ^ Tpdbt_dbt.Error.to_string e);
      exit exit_invalid

let warn_error = function
  | None -> ()
  | Some e ->
      let label = if Tpdbt_dbt.Error.fatal e then "error" else "note" in
      Format.eprintf "%s: %s@." label (Tpdbt_dbt.Error.to_string e)

(* ------------------------------------------------------------------ *)
(* asm                                                                  *)
(* ------------------------------------------------------------------ *)

let asm_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.s")
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"OUT" ~doc:"Output binary path.")
  in
  let run file output =
    let program = or_die (Tpdbt_isa.Assembler.assemble (read_file file)) in
    let out =
      match output with
      | Some o -> o
      | None -> Filename.remove_extension file ^ ".g32"
    in
    ensure_parent out;
    Tpdbt_isa.Encode.write_file out program;
    Printf.printf "assembled %d instructions -> %s\n"
      (Tpdbt_isa.Program.length program)
      out
  in
  Cmd.v
    (Cmd.info "asm" ~doc:"Assemble G32 assembly text into a binary image.")
    Term.(const run $ file $ output)

(* ------------------------------------------------------------------ *)
(* dis                                                                  *)
(* ------------------------------------------------------------------ *)

let dis_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.g32")
  in
  let run file =
    let program = or_die (Tpdbt_isa.Encode.read_file file) in
    print_string (Tpdbt_isa.Disasm.disassemble program)
  in
  Cmd.v
    (Cmd.info "dis" ~doc:"Disassemble a G32 binary image.")
    Term.(const run $ file)

(* ------------------------------------------------------------------ *)
(* check                                                                *)
(* ------------------------------------------------------------------ *)

let check_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")
  in
  let run file =
    let program =
      if Filename.check_suffix file ".s" then
        or_die (Tpdbt_isa.Assembler.assemble (read_file file))
      else or_die (Tpdbt_isa.Encode.read_file file)
    in
    match Tpdbt_isa.Check.check program with
    | [] -> print_endline "clean: no issues found"
    | issues ->
        List.iter
          (fun issue -> Format.printf "%a@." Tpdbt_isa.Check.pp_issue issue)
          issues;
        exit exit_invalid
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Statically check a guest program (unreachable code, \
          read-before-write, missing halt, bad rnd bounds).")
    Term.(const run $ file)

(* ------------------------------------------------------------------ *)
(* shared run options                                                   *)
(* ------------------------------------------------------------------ *)

let seed_arg =
  Arg.(
    value & opt int64 1L
    & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed for the guest rnd stream.")

let max_steps_arg =
  Arg.(
    value
    & opt int 200_000_000
    & info [ "max-steps" ] ~docv:"N" ~doc:"Guest instruction budget.")

let load_program file =
  if Filename.check_suffix file ".s" then
    or_die (Tpdbt_isa.Assembler.assemble (read_file file))
  else or_die (Tpdbt_isa.Encode.read_file file)

(* ------------------------------------------------------------------ *)
(* run (plain interpreter)                                              *)
(* ------------------------------------------------------------------ *)

let run_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")
  in
  let run file seed max_steps =
    let program = load_program file in
    let machine = Tpdbt_vm.Machine.create ~seed program in
    (match Tpdbt_vm.Machine.run ~max_steps machine with
    | Ok () -> ()
    | Error trap ->
        Format.eprintf "trap: %a@." Tpdbt_vm.Machine.pp_trap trap);
    Printf.printf "steps: %d\n" (Tpdbt_vm.Machine.steps machine);
    List.iter
      (fun v -> Printf.printf "out: %d\n" v)
      (Tpdbt_vm.Machine.outputs machine)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Interpret a guest program directly (no DBT).")
    Term.(const run $ file $ seed_arg $ max_steps_arg)

(* ------------------------------------------------------------------ *)
(* dbt (two-phase translator)                                           *)
(* ------------------------------------------------------------------ *)

let policy_arg =
  let parse s =
    match Tpdbt_dbt.Code_cache.policy_of_name s with
    | Some p -> Ok p
    | None -> Error (`Msg ("unknown eviction policy: " ^ s))
  in
  let print ppf p =
    Format.pp_print_string ppf (Tpdbt_dbt.Code_cache.policy_name p)
  in
  Arg.conv (parse, print)

(* Checked here, once, so a count the runtime cannot spawn is a usage
   error before any work runs. *)
let jobs_arg =
  let max = Tpdbt_parallel.Supervisor.max_jobs in
  let parse s =
    match int_of_string_opt s with
    | Some j when j >= 1 && j <= max -> Ok j
    | Some _ | None ->
        Error
          (`Msg
             (Printf.sprintf "invalid value '%s', expected 1 to %d" s max))
  in
  Arg.(
    value
    & opt (conv (parse, Format.pp_print_int))
        (Tpdbt_parallel.Supervisor.default_jobs ())
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          (Printf.sprintf
             "Worker domains for independent runs, from 1 to %d (default: \
              the machine's recommended domain count).  1 runs sequentially \
              in-process; any value produces byte-identical results."
             max))

let shadow_arg =
  Arg.(
    value & opt int 0
    & info [ "shadow" ] ~docv:"N"
        ~doc:
          "Shadow-execution oracle sampling period: replay every Nth region \
           entry on the cold path and compare architectural state \
           (0 = off).")

let dbt_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")
  in
  let threshold =
    Arg.(
      value & opt int 1000
      & info [ "threshold"; "t" ] ~docv:"T"
          ~doc:"Retranslation threshold (0 = profiling only).")
  in
  let show_regions =
    Arg.(value & flag & info [ "regions" ] ~doc:"Print formed regions.")
  in
  let dot =
    Arg.(
      value & flag
      & info [ "dot" ]
          ~doc:"Print the CFG and every region as Graphviz digraphs.")
  in
  let cache_capacity =
    Arg.(
      value
      & opt (some int) None
      & info [ "cache-capacity" ] ~docv:"INSTRS"
          ~doc:
            "Bound the code cache to this many translated guest \
             instructions (default: unbounded).")
  in
  let policy =
    Arg.(
      value
      & opt policy_arg Tpdbt_dbt.Code_cache.Lru
      & info [ "policy" ] ~docv:"POLICY"
          ~doc:
            "Eviction policy for a bounded cache: flush_all, lru or \
             hot_protect.")
  in
  let snapshot_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "snapshot" ] ~docv:"FILE"
          ~doc:
            "Write mid-run execution snapshots to FILE (rewritten at each \
             trigger).  Required with $(b,--snapshot-every) or \
             $(b,--suspend-after).")
  in
  let snapshot_every =
    Arg.(
      value & opt int 0
      & info [ "snapshot-every" ] ~docv:"N"
          ~doc:
            "Snapshot every N guest instructions and keep running — a \
             crash loses at most N instructions of work (0 = off).")
  in
  let suspend_after =
    Arg.(
      value
      & opt (some int) None
      & info [ "suspend-after" ] ~docv:"N"
          ~doc:
            "Suspend the run at guest instruction N, write the snapshot \
             and exit 0; continue later with $(b,--resume-run).")
  in
  let resume_run =
    Arg.(
      value
      & opt (some file) None
      & info [ "resume-run" ] ~docv:"FILE"
          ~doc:
            "Resume from a snapshot written by $(b,--snapshot)/\
             $(b,--suspend-after) instead of starting fresh.  The engine \
             flags must match the original run (digest-checked); \
             $(b,--seed) is ignored — the PRNG state lives in the \
             snapshot.  The completed run is byte-identical to an \
             uninterrupted one.")
  in
  let run file threshold seed max_steps show_regions dot cache_capacity policy
      shadow_sample snapshot_file snapshot_every suspend_after resume_run =
    let module Engine = Tpdbt_dbt.Engine in
    let module Snap = Tpdbt_dbt.Exec_snapshot in
    let program = load_program file in
    let config =
      {
        (Tpdbt_dbt.Engine.config ~threshold ?cache_capacity
           ~cache_policy:policy ~shadow_sample ~snapshot_every
           ?deadline:suspend_after
           ~suspend_on_deadline:(suspend_after <> None) ())
        with
        max_steps;
      }
    in
    if snapshot_file = None && (snapshot_every > 0 || suspend_after <> None)
    then begin
      prerr_endline
        "--snapshot FILE is required with --snapshot-every/--suspend-after";
      exit exit_usage
    end;
    Option.iter ensure_parent snapshot_file;
    let engine =
      match resume_run with
      | None -> Engine.create ~config ~seed program
      | Some snap_file ->
          let parsed =
            or_die
              (Tpdbt_durable.Durable.to_result ~what:"snapshot"
                 (Snap.of_string (read_file snap_file)))
          in
          or_die
            (Result.map_error
               (fun msg -> "snapshot rejected: " ^ msg)
               (Snap.restore ~config ~program parsed))
    in
    let write_snapshot steps =
      match snapshot_file with
      | None -> ()
      | Some f ->
          Tpdbt_durable.Durable.atomic_write f
            (Snap.to_string ~config ~program (Engine.capture engine));
          Printf.eprintf "snapshot: %d steps -> %s\n%!" steps f
    in
    let rec go () =
      let r = Tpdbt_dbt.Engine.run engine in
      match r.Tpdbt_dbt.Engine.error with
      | Some (Tpdbt_dbt.Error.Suspended { steps; deadline }) ->
          write_snapshot steps;
          if deadline then begin
            Printf.printf "suspended after %d guest instructions%s\n" steps
              (match snapshot_file with
              | Some f -> " -> " ^ f
              | None -> "");
            exit 0
          end
          else go ()
      | _ -> r
    in
    let r = go () in
    let c = r.Tpdbt_dbt.Engine.counters in
    warn_error r.Tpdbt_dbt.Engine.error;
    Printf.printf "steps:              %d\n" r.Tpdbt_dbt.Engine.steps;
    Printf.printf "cycles:             %.0f\n" c.Tpdbt_dbt.Perf_model.cycles;
    Printf.printf "profiling ops:      %d\n" r.Tpdbt_dbt.Engine.profiling_ops;
    Printf.printf "blocks translated:  %d\n"
      c.Tpdbt_dbt.Perf_model.blocks_translated;
    Printf.printf "regions formed:     %d (in %d rounds)\n"
      c.Tpdbt_dbt.Perf_model.regions_formed
      c.Tpdbt_dbt.Perf_model.optimization_rounds;
    Printf.printf "region entries:     %d\n"
      c.Tpdbt_dbt.Perf_model.region_entries;
    Printf.printf "loop-backs:         %d\n" c.Tpdbt_dbt.Perf_model.loop_backs;
    Printf.printf "completions:        %d\n"
      c.Tpdbt_dbt.Perf_model.region_completions;
    Printf.printf "side exits:         %d\n" c.Tpdbt_dbt.Perf_model.side_exits;
    Printf.printf "cache peak:         %d instrs\n"
      c.Tpdbt_dbt.Perf_model.cache_peak_instrs;
    if cache_capacity <> None then
      Printf.printf "cache evictions:    %d (%d instrs, %d flushes)\n"
        c.Tpdbt_dbt.Perf_model.cache_evictions
        c.Tpdbt_dbt.Perf_model.cache_evicted_instrs
        c.Tpdbt_dbt.Perf_model.cache_flushes;
    if shadow_sample > 0 then
      Printf.printf "shadow replays:     %d (%d divergences, %d quarantined)\n"
        c.Tpdbt_dbt.Perf_model.shadow_replays
        c.Tpdbt_dbt.Perf_model.shadow_divergences
        c.Tpdbt_dbt.Perf_model.regions_quarantined;
    List.iter
      (fun v -> Printf.printf "out: %d\n" v)
      r.Tpdbt_dbt.Engine.outputs;
    if show_regions then
      List.iter
        (fun region -> Format.printf "%a@." Tpdbt_dbt.Region.pp region)
        r.Tpdbt_dbt.Engine.snapshot.Tpdbt_dbt.Snapshot.regions;
    if dot then begin
      let snap = r.Tpdbt_dbt.Engine.snapshot in
      print_string
        (Tpdbt_dbt.Dot.block_map ~use:snap.Tpdbt_dbt.Snapshot.use
           ~taken:snap.Tpdbt_dbt.Snapshot.taken
           snap.Tpdbt_dbt.Snapshot.block_map);
      List.iter
        (fun region -> print_string (Tpdbt_dbt.Dot.region region))
        snap.Tpdbt_dbt.Snapshot.regions
    end
  in
  Cmd.v
    (Cmd.info "dbt"
       ~doc:
         "Run a guest program under the two-phase translator.  With \
          $(b,--suspend-after)/$(b,--snapshot-every) the run can be \
          suspended mid-flight at guest-instruction granularity and \
          continued with $(b,--resume-run), byte-identical to an \
          uninterrupted run.")
    Term.(
      const run $ file $ threshold $ seed_arg $ max_steps_arg $ show_regions
      $ dot $ cache_capacity $ policy $ shadow_arg $ snapshot_file
      $ snapshot_every $ suspend_after $ resume_run)

(* ------------------------------------------------------------------ *)
(* bench (suite inspection)                                             *)
(* ------------------------------------------------------------------ *)

let bench_cmd =
  let name_arg =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"NAME")
  in
  let dump_asm =
    Arg.(value & flag & info [ "dump-asm" ] ~doc:"Print the generated assembly.")
  in
  let run name dump_asm =
    match name with
    | None ->
        List.iter print_endline Tpdbt_workloads.Suite.names
    | Some name ->
        let bench = suite_bench name in
        if dump_asm then print_string (Tpdbt_workloads.Spec.source bench)
        else begin
          let program, _, _ = Tpdbt_workloads.Spec.build bench in
          let bmap = Tpdbt_dbt.Block_map.build program in
          print_string (Tpdbt_workloads.Spec.describe bench);
          Printf.printf "  => %d instructions, %d basic blocks\n"
            (Tpdbt_isa.Program.length program)
            (Tpdbt_dbt.Block_map.block_count bmap)
        end
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:"List the synthetic SPEC2000 suite or inspect one benchmark.")
    Term.(const run $ name_arg $ dump_asm)

(* ------------------------------------------------------------------ *)
(* sweep (the paper's experiments)                                      *)
(* ------------------------------------------------------------------ *)

(* An optional budget override, unlike [max_steps_arg] whose default
   (the engine's own 200M) is always applied. *)
let budget_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-steps" ] ~docv:"N"
        ~doc:
          "Cap every constituent run at N guest instructions (default: the \
           engine's 200M budget).  A capped run is kept as a partial \
           result, not an error.")

let sweep_cmd =
  let benches =
    Arg.(
      value & opt_all string []
      & info [ "bench"; "b" ] ~docv:"NAME"
          ~doc:"Benchmark to include (repeatable; default: all 26).")
  in
  let figures =
    Arg.(
      value & opt_all string []
      & info [ "figure"; "f" ] ~docv:"ID"
          ~doc:"Figure to print, e.g. fig8 (repeatable; default: all).")
  in
  let csv_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"DIR" ~doc:"Also write each table as CSV into DIR.")
  in
  let checkpoint_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"DIR"
          ~doc:
            "Checkpoint each completed benchmark into DIR and resume from \
             any checkpoints already there — a killed sweep restarted with \
             the same DIR re-runs only what it hadn't finished.")
  in
  let supervise =
    Arg.(
      value & flag
      & info [ "supervise" ]
          ~doc:
            "Run the sweep under the supervisor: per-task deadlines, bounded \
             retry with deterministic backoff, circuit breakers and graceful \
             degradation when worker domains die.  Failing benchmarks are \
             quarantined instead of just skipped.")
  in
  let deadline =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline" ] ~docv:"N"
          ~doc:
            "Fail any constituent run that executes more than N guest \
             instructions with a fatal deadline error (default: no \
             deadline).  The benchmark fails on its single attempt, or, \
             with $(b,--supervise), is retried and then quarantined.  With \
             $(b,--snapshot-every) armed, the blown deadline instead \
             suspends the run resumably.")
  in
  let retries =
    Arg.(
      value
      & opt (some int) None
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "With $(b,--supervise): total attempts per benchmark before it \
             is quarantined (default: 4).")
  in
  let snapshot_every =
    Arg.(
      value & opt int 0
      & info [ "snapshot-every" ] ~docv:"N"
          ~doc:
            "With $(b,--checkpoint): snapshot each benchmark's mid-run \
             state into its checkpoint slot every N guest instructions of \
             each pass over an input (the reference stages run as one \
             pass, training as another), so a killed sweep loses at most \
             N instructions per pass (0 = off).  With $(b,--deadline), a \
             blown deadline suspends the run resumably instead of failing \
             it.")
  in
  let resume_run =
    Arg.(
      value & flag
      & info [ "resume-run" ]
          ~doc:
            "With $(b,--checkpoint): continue suspended benchmarks from \
             their mid-run snapshots instead of re-running them from \
             scratch.  Results are byte-identical either way.")
  in
  let run benches figures csv_dir checkpoint_dir jobs max_steps supervise
      deadline retries snapshot_every resume_run =
    let module Runner = Tpdbt_experiments.Runner in
    let module Sup = Tpdbt_parallel.Supervisor in
    let selected =
      match benches with
      | [] -> Tpdbt_workloads.Suite.all
      | names -> List.map suite_bench names
    in
    let progress n = function
      | Runner.Started -> Printf.eprintf "running %s...\n%!" n
      | status -> Printf.eprintf "%s: %s\n%!" n (Runner.status_name status)
    in
    if (snapshot_every > 0 || resume_run) && checkpoint_dir = None then begin
      prerr_endline "--snapshot-every/--resume-run require --checkpoint DIR";
      exit exit_usage
    end;
    if retries <> None && not supervise then begin
      prerr_endline "--retries requires --supervise";
      exit exit_usage
    end;
    Option.iter ensure_dir csv_dir;
    Option.iter ensure_dir checkpoint_dir;
    (* With snapshots armed, a blown deadline parks the benchmark
       resumably instead of failing it. *)
    let suspend_on_deadline = snapshot_every > 0 && deadline <> None in
    let on_snapshot_saved name = Printf.eprintf "snapshot: %s\n%!" name in
    let policy =
      match (supervise, retries) with
      | false, _ -> Sup.one_attempt
      | true, None -> Sup.default_policy
      | true, Some n -> { Sup.default_policy with Sup.max_attempts = max 1 n }
    in
    let store =
      Option.map
        (fun dir ->
          Tpdbt_experiments.Checkpoint.store ~resume_suspended:resume_run
            ~on_snapshot_saved ~dir ())
        checkpoint_dir
    in
    let sweep, supervision =
      Runner.run_sweep ?max_steps ?deadline ~snapshot_every
        ~suspend_on_deadline ~jobs ~policy ?store ~progress selected
    in
    let s = supervision.Runner.sup in
    if jobs > 1 || s.Sup.retries > 0 || s.Sup.poisoned > 0 then
      Printf.eprintf
        "sweep: %d jobs, %d tasks, %d attempts, %d retries, %d poisoned, %d \
         crashes%s\n\
         %!"
        s.Sup.jobs s.Sup.tasks s.Sup.attempts s.Sup.retries s.Sup.poisoned
        s.Sup.crashes
        (if s.Sup.degraded then " (pool degraded)" else "");
    List.iter
      (fun (name, reason) ->
        Printf.eprintf "corrupt checkpoint %s: %s (re-ran)\n%!" name reason)
      supervision.Runner.corrupt;
    List.iter
      (fun ((b : Tpdbt_workloads.Spec.t), reason) ->
        Printf.eprintf "quarantined %s: %s\n%!" b.Tpdbt_workloads.Spec.name
          reason)
      supervision.Runner.poisoned;
    let suspended, fatal =
      List.partition Runner.suspended_failure sweep.Runner.failures
    in
    List.iter
      (fun { Runner.failed; error } ->
        Printf.eprintf "failed %s: %s\n%!" failed.Tpdbt_workloads.Spec.name
          (Tpdbt_dbt.Error.to_string error))
      fatal;
    List.iter
      (fun { Runner.failed; _ } ->
        Printf.eprintf
          "suspended %s: mid-run snapshot saved; rerun with --resume-run to \
           continue\n\
           %!"
          failed.Tpdbt_workloads.Spec.name)
      suspended;
    let tables = Tpdbt_experiments.Figures.all sweep.Runner.data in
    let tables =
      match figures with
      | [] -> tables
      | wanted -> List.filter (fun (id, _) -> List.mem id wanted) tables
    in
    List.iter
      (fun (id, table) ->
        print_endline id;
        Tpdbt_experiments.Table.print ~precision:3 table;
        print_newline ();
        Option.iter (fun dir -> write_table_csv ~dir id table) csv_dir)
      tables;
    if fatal <> [] then exit exit_regression
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Run the paper's threshold sweep and print the figures' tables \
          (Figures 8-18).  Benchmarks run in parallel across worker domains \
          ($(b,--jobs)); output is byte-identical at every job count.  \
          Benchmarks that fail with a typed error are reported and skipped; \
          the rest of the sweep still runs.  With $(b,--supervise), failing \
          benchmarks are retried with deterministic backoff and quarantined \
          by a circuit breaker, and worker-domain crashes degrade the pool \
          instead of killing the sweep.  With $(b,--checkpoint) and \
          $(b,--snapshot-every), benchmarks snapshot mid-run and a killed \
          sweep restarted with $(b,--resume-run) continues each from its \
          exact guest instruction.")
    Term.(
      const run $ benches $ figures $ csv_dir $ checkpoint_dir $ jobs_arg
      $ budget_arg $ supervise $ deadline $ retries $ snapshot_every
      $ resume_run)

(* ------------------------------------------------------------------ *)
(* profile / analyze (the paper's collect-then-analyse workflow)        *)
(* ------------------------------------------------------------------ *)

let profile_cmd =
  let module Tel = Tpdbt_telemetry in
  let workload =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"WORKLOAD"
          ~doc:
            "Suite benchmark name (see $(b,tpdbt bench)) or a guest program \
             file (.s or .g32).")
  in
  let threshold =
    Arg.(
      value & opt int 0
      & info [ "threshold"; "t" ] ~docv:"T"
          ~doc:
            "Retranslation threshold; 0 collects an AVEP-style full-run \
             profile.")
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"OUT"
          ~doc:
            "Path for the profile snapshot (.prof); default \
             $(b,OUT_DIR/NAME.prof).")
  in
  let out_dir =
    Arg.(
      value & opt string "profile-out"
      & info [ "out-dir" ] ~docv:"DIR"
          ~doc:"Directory for the emitted files (created if missing).")
  in
  let run workload threshold seed max_steps output out_dir =
    ensure_dir out_dir;
    Option.iter ensure_parent output;
    let name = Filename.remove_extension (Filename.basename workload) in
    let config = { (Tpdbt_dbt.Engine.config ~threshold ()) with max_steps } in
    (* The profiler and the attribution tables consume only the span
       and cost events — a few per optimisation round, not one per
       guest step — so keep exactly those and stream everything else
       straight into the metrics registry.  Unlike [trace], nothing
       here buffers the full event stream, so long runs never
       truncate. *)
    let metrics = Tel.Metrics.create () in
    let span_events = ref [] in
    let keep =
      Tel.Sink.of_fun (fun ~step event ->
          match event with
          | Tel.Event.Span_begin _ | Tel.Event.Span_end _
          | Tel.Event.Stage_cost _ | Tel.Event.Region_cost _ ->
              span_events := { Tel.Event.step; event } :: !span_events
          | _ -> ())
    in
    let collector = Tel.Sink.collect ~into:metrics in
    let sink = Tel.Sink.tee [ keep; collector ] in
    let result =
      match Tpdbt_workloads.Suite.find workload with
      | Some bench -> Tpdbt_experiments.Runner.run_ref ~sink bench ~config
      | None ->
          if not (Sys.file_exists workload) then begin
            prerr_endline
              ("unknown workload (neither a suite benchmark nor a file): "
             ^ workload);
            exit exit_usage
          end;
          let program = load_program workload in
          let config = { config with Tpdbt_dbt.Engine.sink } in
          let engine = Tpdbt_dbt.Engine.create ~config ~seed program in
          Tpdbt_dbt.Engine.run engine
    in
    sink.Tel.Sink.close ();
    Tpdbt_dbt.Perf_model.record result.Tpdbt_dbt.Engine.counters metrics;
    warn_error result.Tpdbt_dbt.Engine.error;
    let events = List.rev !span_events in
    (* Every export is re-checked through its own strict parser before
       it is reported as written — a malformed artefact is a bug here,
       not in the consumer. *)
    let profiler = Tel.Profiler.of_events events in
    let profile_json = Tel.Profiler.to_json profiler in
    (match Tel.Json.validate profile_json with
    | Ok () -> ()
    | Error msg ->
        prerr_endline ("internal error: profile export " ^ msg);
        exit exit_invalid);
    let prom = Tel.Openmetrics.render metrics in
    (match Tel.Openmetrics.validate prom with
    | Ok () -> ()
    | Error msg ->
        prerr_endline ("internal error: openmetrics export " ^ msg);
        exit exit_invalid);
    let folded_path = Filename.concat out_dir (name ^ ".folded") in
    let json_path = Filename.concat out_dir (name ^ ".profile.json") in
    let prom_path = Filename.concat out_dir (name ^ ".metrics.prom") in
    let csv_path = Filename.concat out_dir (name ^ ".attribution.csv") in
    write_file folded_path (Tel.Profiler.to_folded profiler);
    write_file json_path profile_json;
    write_file prom_path prom;
    let attribution = Tel.Attribution.of_events events in
    write_file csv_path (Tel.Attribution.to_csv attribution);
    let prof_path =
      match output with
      | Some o -> o
      | None -> Filename.concat out_dir (name ^ ".prof")
    in
    Tpdbt_profiles.Profile_io.save prof_path result.Tpdbt_dbt.Engine.snapshot;
    if not (Tel.Attribution.is_empty attribution) then begin
      print_string (Tel.Attribution.render attribution);
      print_newline ()
    end;
    Printf.printf
      "profile written to %s (%d profiling operations, %d regions)\n\
       wrote %s\nwrote %s\nwrote %s\nwrote %s\n"
      prof_path result.Tpdbt_dbt.Engine.profiling_ops
      (List.length result.Tpdbt_dbt.Engine.snapshot.Tpdbt_dbt.Snapshot.regions)
      folded_path json_path prom_path csv_path
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run a workload under the profiler: write its profile snapshot \
          (INIP(T) or AVEP), a collapsed-stack file for flamegraphs, a JSON \
          span profile, an OpenMetrics exposition and a stage-attribution \
          CSV, and print the attribution table.")
    Term.(
      const run $ workload $ threshold $ seed_arg $ max_steps_arg $ output
      $ out_dir)

(* ------------------------------------------------------------------ *)
(* perfdiff (allocation gate)                                           *)
(* ------------------------------------------------------------------ *)

let perfdiff_cmd =
  let old_file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"OLD.json")
  in
  let new_file =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"NEW.json")
  in
  let tolerance =
    Arg.(
      value & opt float 5.0
      & info [ "tolerance" ] ~docv:"PCT"
          ~doc:"Allowed change per benchmark, in percent.")
  in
  let run old_file new_file tolerance =
    let module Perfdiff = Tpdbt_experiments.Perfdiff in
    match
      Perfdiff.of_strings ~tolerance:(tolerance /. 100.0) (read_file old_file)
        (read_file new_file)
    with
    | Error msg ->
        prerr_endline ("error: " ^ msg);
        exit exit_invalid
    | Ok report ->
        print_string (Perfdiff.render report);
        if Perfdiff.regressions report <> [] then exit exit_regression
  in
  Cmd.v
    (Cmd.info "perfdiff"
       ~doc:
         "Compare the alloc_per_instr (allocated words per guest \
          instruction) of two BENCH_perf.json files bench by bench and exit \
          3 on any rise beyond the tolerance.  Allocation per instruction \
          is a property of the compiled code, so it reads the same on every \
          run; $(b,make alloc-gate) holds it to the committed baseline at \
          1%.")
    Term.(const run $ old_file $ new_file $ tolerance)

(* Two profiles compared block by block must come from one program. *)
let require_same_program (file_a, a) (file_b, b) =
  if not (Tpdbt_profiles.Profile_io.same_program a b) then begin
    Printf.eprintf
      "error: %s and %s are profiles of different programs (their block maps \
       differ)\n"
      file_a file_b;
    exit exit_invalid
  end

let report_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"PROFILE.prof")
  in
  let avep_file =
    Arg.(
      value
      & opt (some file) None
      & info [ "avep" ] ~docv:"AVEP.prof"
          ~doc:"Average profile to compare region probabilities against.")
  in
  let run file avep_file =
    let snapshot = or_die_err (Tpdbt_profiles.Profile_io.load file) in
    let avep =
      Option.map
        (fun f ->
          let avep = or_die_err (Tpdbt_profiles.Profile_io.load f) in
          require_same_program (file, snapshot) (f, avep);
          avep)
        avep_file
    in
    print_string (Tpdbt_profiles.Report.render ?avep snapshot)
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Summarise a profile file: hottest blocks and region details.")
    Term.(const run $ file $ avep_file)

let analyze_cmd =
  let inip_file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"INIP.prof")
  in
  let avep_file =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"AVEP.prof")
  in
  let run inip_file avep_file =
    let inip = or_die_err (Tpdbt_profiles.Profile_io.load inip_file) in
    let avep = or_die_err (Tpdbt_profiles.Profile_io.load avep_file) in
    require_same_program (inip_file, inip) (avep_file, avep);
    if inip.Tpdbt_dbt.Snapshot.regions = [] then
      (* Two flat profiles: the train-vs-AVEP comparison. *)
      let f = Tpdbt_profiles.Metrics.compare_flat ~predicted:inip ~avep in
      Printf.printf "flat comparison: Sd.BP=%.4f bp_mismatch=%.3f (%d samples)\n"
        f.Tpdbt_profiles.Metrics.sd_bp f.Tpdbt_profiles.Metrics.bp_mismatch
        f.Tpdbt_profiles.Metrics.bp_samples
    else
      let c = Tpdbt_profiles.Metrics.compare_snapshots ~inip ~avep in
      Format.printf "%a@." Tpdbt_profiles.Metrics.pp_comparison c
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Off-line analysis: compare an initial profile against an average \
          profile (the paper's Sd and mismatch metrics).")
    Term.(const run $ inip_file $ avep_file)

(* ------------------------------------------------------------------ *)
(* trace (telemetry capture)                                            *)
(* ------------------------------------------------------------------ *)

let trace_cmd =
  let module Tel = Tpdbt_telemetry in
  let workload =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"WORKLOAD"
          ~doc:
            "Suite benchmark name (see $(b,tpdbt bench)) or a guest program \
             file (.s or .g32).")
  in
  let threshold =
    Arg.(
      value & opt int 50
      & info [ "threshold"; "t" ] ~docv:"T"
          ~doc:"Retranslation threshold for the traced run.")
  in
  let adaptive =
    Arg.(
      value & flag
      & info [ "adaptive" ]
          ~doc:"Enable adaptive region dissolution (paper \194\1675).")
  in
  let out_dir =
    Arg.(
      value & opt string "trace-out"
      & info [ "o"; "out-dir" ] ~docv:"DIR"
          ~doc:"Directory for the emitted files (created if missing).")
  in
  let max_events =
    Arg.(
      value & opt int 1_000_000
      & info [ "max-events" ] ~docv:"N"
          ~doc:
            "Cap on events kept in memory for the summary and the Chrome \
             trace; the JSONL log always streams the full run.")
  in
  let run workload threshold adaptive seed max_steps out_dir max_events =
    ensure_dir out_dir;
    let name =
      Filename.remove_extension (Filename.basename workload)
    in
    let events_path = Filename.concat out_dir (name ^ ".events.jsonl") in
    let trace_path = Filename.concat out_dir (name ^ ".trace.json") in
    let metrics_path = Filename.concat out_dir (name ^ ".metrics.json") in
    let events_oc = open_out events_path in
    let result, buffer, metrics =
      Fun.protect
        ~finally:(fun () -> close_out events_oc)
        (fun () ->
          let jsonl = Tel.Sink.jsonl events_oc in
          let config =
            {
              (Tpdbt_dbt.Engine.config ~threshold ~adaptive ()) with
              max_steps;
            }
          in
          match Tpdbt_workloads.Suite.find workload with
          | Some bench ->
              Tpdbt_experiments.Runner.run_traced ~limit:max_events
                ~extra_sinks:[ jsonl ] bench ~config
          | None ->
              if not (Sys.file_exists workload) then begin
                prerr_endline
                  ("unknown workload (neither a suite benchmark nor a file): "
                 ^ workload);
                exit exit_usage
              end;
              let program = load_program workload in
              let metrics = Tel.Metrics.create () in
              let mem_sink, buffer = Tel.Sink.memory ~limit:max_events () in
              let collector = Tel.Sink.collect ~into:metrics in
              let sink = Tel.Sink.tee [ mem_sink; collector; jsonl ] in
              let config = { config with Tpdbt_dbt.Engine.sink } in
              let engine = Tpdbt_dbt.Engine.create ~config ~seed program in
              let result = Tpdbt_dbt.Engine.run engine in
              sink.Tel.Sink.close ();
              Tpdbt_dbt.Perf_model.record
                result.Tpdbt_dbt.Engine.counters metrics;
              (result, buffer, metrics))
    in
    let events = Tel.Sink.contents buffer in
    if Tel.Sink.dropped buffer > 0 then
      Printf.eprintf
        "note: kept the first %d events in memory (%d more dropped); the \
         summary and Chrome trace are truncated, the JSONL log is complete\n"
        (List.length events)
        (Tel.Sink.dropped buffer);
    warn_error result.Tpdbt_dbt.Engine.error;
    let trace_json = Tel.Chrome_trace.to_json ~process_name:name events in
    (match Tel.Json.validate trace_json with
    | Ok () -> ()
    | Error msg ->
        prerr_endline ("internal error: trace export " ^ msg);
        exit exit_invalid);
    write_file trace_path trace_json;
    write_file metrics_path (Tel.Metrics.to_json metrics);
    print_string (Tel.Summary.render events);
    print_newline ();
    print_string (Tel.Metrics.render metrics);
    Printf.printf "\nwrote %s (%d events)\nwrote %s\nwrote %s\n" events_path
      (List.length events) trace_path metrics_path
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a workload with full telemetry: write a JSONL event log, a \
          Chrome trace_event file (chrome://tracing / Perfetto) and a \
          metrics dump, and print a run summary.")
    Term.(
      const run $ workload $ threshold $ adaptive $ seed_arg $ max_steps_arg
      $ out_dir $ max_events)

(* ------------------------------------------------------------------ *)
(* ablate (design-choice studies)                                       *)
(* ------------------------------------------------------------------ *)

let ablate_cmd =
  let studies =
    Arg.(
      value & opt_all string []
      & info [ "study"; "s" ] ~docv:"NAME"
          ~doc:
            "Study to run: region-formation, min-branch-prob, pool-trigger, \
             scheduling, adaptive (repeatable; default: all).")
  in
  let benches =
    Arg.(
      value & opt_all string []
      & info [ "bench"; "b" ] ~docv:"NAME"
          ~doc:"Benchmark to include (repeatable).")
  in
  let csv_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"DIR"
          ~doc:"Also write each study's table as DIR/ablation-STUDY.csv.")
  in
  let run studies benches csv_dir =
    List.iter (fun n -> ignore (suite_bench n)) benches;
    let benchmarks = match benches with [] -> None | l -> Some l in
    let all = Tpdbt_experiments.Ablations.all ?benchmarks () in
    List.iter
      (fun id ->
        if not (List.mem_assoc id all) then begin
          prerr_endline
            ("unknown study: " ^ id ^ " (one of: "
            ^ String.concat ", " (List.map fst all)
            ^ ")");
          exit exit_usage
        end)
      studies;
    let chosen =
      match studies with
      | [] -> all
      | wanted -> List.filter (fun (id, _) -> List.mem id wanted) all
    in
    Option.iter ensure_dir csv_dir;
    List.iter
      (fun (id, study) ->
        let table = study () in
        print_endline id;
        Tpdbt_experiments.Table.print ~precision:3 table;
        print_newline ();
        Option.iter
          (fun dir -> write_table_csv ~dir ("ablation-" ^ id) table)
          csv_dir)
      chosen
  in
  Cmd.v
    (Cmd.info "ablate"
       ~doc:"Run the ablation studies over the translator's design choices.")
    Term.(const run $ studies $ benches $ csv_dir)

(* ------------------------------------------------------------------ *)
(* faults (seeded fault-injection campaign)                             *)
(* ------------------------------------------------------------------ *)

let faults_cmd =
  let workload =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"WORKLOAD"
          ~doc:"Suite benchmark name (see $(b,tpdbt bench)).")
  in
  let threshold =
    Arg.(
      value & opt int 20
      & info [ "threshold"; "t" ] ~docv:"T"
          ~doc:"Retranslation threshold for the campaign runs.")
  in
  let trials =
    Arg.(
      value & opt int 8
      & info [ "trials"; "n" ] ~docv:"N" ~doc:"Number of faulty runs.")
  in
  let arms =
    Arg.(
      value & opt int 4
      & info [ "arms" ] ~docv:"N" ~doc:"Fault arms per trial plan.")
  in
  let kinds =
    Arg.(
      value & opt_all string []
      & info [ "kind"; "k" ] ~docv:"KIND"
          ~doc:
            "Fault kind to draw from: retranslate_fail, block_corrupt, \
             region_abort, guest_trap, silent_corruption, cache_thrash \
             (repeatable; default: all).")
  in
  let show_plans =
    Arg.(
      value & flag
      & info [ "plans" ] ~doc:"Also print each trial's fault plan.")
  in
  let run workload threshold trials arms kinds seed shadow_sample show_plans
      jobs =
    let module Campaign = Tpdbt_experiments.Campaign in
    let module Fault = Tpdbt_faults.Fault in
    let bench = suite_bench workload in
    let kinds =
      match kinds with
      | [] -> None
      | names ->
          Some
            (List.map
               (fun n ->
                 match Fault.kind_of_name n with
                 | Some k -> k
                 | None ->
                     prerr_endline ("unknown fault kind: " ^ n);
                     exit exit_usage)
               names)
    in
    let campaign =
      try
        Campaign.run ?kinds ~jobs ~threshold ~trials ~arms ~shadow_sample ~seed
          bench
      with Tpdbt_dbt.Error.Error e ->
        prerr_endline
          ("error: clean run failed: " ^ Tpdbt_dbt.Error.to_string e);
        exit exit_invalid
    in
    Format.printf "%a@." Campaign.render campaign;
    if show_plans then
      List.iter
        (fun tr ->
          Format.printf "trial %d plan: %a@." tr.Campaign.index
            Tpdbt_faults.Plan.pp tr.Campaign.plan)
        campaign.Campaign.trials;
    if not (Campaign.ok campaign) then exit exit_regression
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Run a seeded fault-injection campaign against a benchmark and \
          print the survival/recovery summary.  Exits non-zero if any \
          trial let an exception escape the engine or executed silently \
          corrupted code undetected (run with $(b,--shadow) to arm the \
          oracle).")
    Term.(
      const run $ workload $ threshold $ trials $ arms $ kinds $ seed_arg
      $ shadow_arg $ show_plans $ jobs_arg)

(* ------------------------------------------------------------------ *)
(* cache (bounded code-cache sweep)                                     *)
(* ------------------------------------------------------------------ *)

let cache_cmd =
  let module Runner = Tpdbt_experiments.Runner in
  let benches =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"WORKLOAD"
          ~doc:"Suite benchmark names (default: gzip).")
  in
  let threshold =
    Arg.(
      value & opt int 20
      & info [ "threshold"; "t" ] ~docv:"T"
          ~doc:"Retranslation threshold for the sweep runs.")
  in
  let fracs =
    Arg.(
      value
      & opt_all float []
      & info [ "frac" ] ~docv:"F"
          ~doc:
            "Cache capacity as a fraction of the benchmark's translated \
             footprint: finite and positive (repeatable; default: 0.125 \
             0.25 0.5 1.0).")
  in
  let policies =
    Arg.(
      value
      & opt_all policy_arg []
      & info [ "policy" ] ~docv:"POLICY"
          ~doc:
            "Eviction policy to sweep: flush_all, lru or hot_protect \
             (repeatable; default: all three).")
  in
  let expect_evictions =
    Arg.(
      value & flag
      & info [ "expect-evictions" ]
          ~doc:
            "Fail unless the sweep actually evicted something — guards a \
             smoke test against capacities that never bind.")
  in
  let csv =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE"
          ~doc:
            "Also write the table as CSV to FILE, or to \
             FILE/cache-sweep.csv when FILE is a directory.")
  in
  let run benches threshold fracs policies shadow_sample expect_evictions csv
      jobs max_steps =
    let benches = match benches with [] -> [ "gzip" ] | l -> l in
    let selected = List.map suite_bench benches in
    (* Accept a directory (the sweep command's --csv convention, and
       the name results/ holds) as well as a file path; either way its
       directory exists before the sweep runs. *)
    let csv =
      Option.map
        (fun path ->
          if Sys.file_exists path && Sys.is_directory path then
            Filename.concat path "cache-sweep.csv"
          else begin
            ensure_parent path;
            path
          end)
        csv
    in
    List.iter
      (fun f ->
        if not (Float.is_finite f && f > 0.0) then begin
          Printf.eprintf "invalid --frac %g: not a finite positive fraction\n%!"
            f;
          exit exit_usage
        end)
      fracs;
    let fracs = match fracs with [] -> None | l -> Some l in
    let policies = match policies with [] -> None | l -> Some l in
    let sweeps =
      List.map
        (fun bench ->
          Runner.run_cache_sweep ~jobs ~threshold ?fracs ?policies
            ~shadow_sample ?max_steps bench)
        selected
    in
    (* Invariant first: a bounded cache costs cycles, never behaviour.
       Only meaningful between runs that actually completed: a binding
       --max-steps cap cuts runs off mid-flight at (legitimately)
       slightly different points. *)
    let budget_limited (r : Tpdbt_dbt.Engine.result) =
      match r.Tpdbt_dbt.Engine.error with
      | Some (Tpdbt_dbt.Error.Limit_exceeded _) -> true
      | _ -> false
    in
    let violations = ref 0 in
    let evictions = ref 0 in
    List.iter
      (fun (s : Runner.cache_data) ->
        let base = s.Runner.baseline in
        List.iter
          (fun (p : Runner.cache_point) ->
            let r = p.Runner.bounded in
            let c = r.Tpdbt_dbt.Engine.counters in
            evictions := !evictions + c.Tpdbt_dbt.Perf_model.cache_evictions;
            warn_error r.Tpdbt_dbt.Engine.error;
            if
              (not (budget_limited base || budget_limited r))
              && (r.Tpdbt_dbt.Engine.outputs <> base.Tpdbt_dbt.Engine.outputs
                 || r.Tpdbt_dbt.Engine.steps <> base.Tpdbt_dbt.Engine.steps)
            then begin
              incr violations;
              Printf.eprintf
                "BEHAVIOUR DIVERGED: %s policy %s frac %g (capacity %d)\n%!"
                s.Runner.cache_bench.Tpdbt_workloads.Spec.name
                (Tpdbt_dbt.Code_cache.policy_name p.Runner.policy)
                p.Runner.frac p.Runner.capacity
            end)
          s.Runner.points;
        Printf.printf "%s: footprint %d instrs, baseline %.0f cycles\n"
          s.Runner.cache_bench.Tpdbt_workloads.Spec.name s.Runner.footprint
          s.Runner.baseline.Tpdbt_dbt.Engine.counters.Tpdbt_dbt.Perf_model
            .cycles)
      sweeps;
    let table = Tpdbt_experiments.Figures.cache_sweep sweeps in
    Tpdbt_experiments.Table.print ~precision:3 table;
    Option.iter
      (fun path ->
        try write_file path (Tpdbt_experiments.Table.to_csv table)
        with Sys_error msg ->
          Printf.eprintf "cannot write CSV: %s\n%!" msg;
          exit exit_usage)
      csv;
    Printf.printf "total evictions across sweep: %d\n" !evictions;
    if !violations > 0 then begin
      Printf.eprintf "%d sweep point(s) changed guest behaviour\n%!"
        !violations;
      exit exit_regression
    end;
    if expect_evictions && !evictions = 0 then begin
      prerr_endline "expected evictions, saw none (capacity never bound)";
      exit exit_regression
    end
  in
  Cmd.v
    (Cmd.info "cache"
       ~doc:
         "Sweep bounded code-cache capacities over eviction policies and \
          print cycles relative to an unbounded cache.  Exits non-zero if \
          any bounded run changes guest behaviour (outputs or step count) \
          relative to the unbounded baseline.")
    Term.(
      const run $ benches $ threshold $ fracs $ policies $ shadow_arg
      $ expect_evictions $ csv $ jobs_arg $ budget_arg)

(* ------------------------------------------------------------------ *)
(* chaos (supervised-sweep chaos harness)                               *)
(* ------------------------------------------------------------------ *)

let chaos_cmd =
  let module Campaign = Tpdbt_experiments.Campaign in
  let module Runner = Tpdbt_experiments.Runner in
  let benches =
    Arg.(
      value & opt_all string []
      & info [ "bench"; "b" ] ~docv:"NAME"
          ~doc:
            "Benchmark to include (repeatable; default: gzip swim mgrid \
             art mcf).  The first few, in seed-shuffled order, each receive \
             one fault: stall, worker crash, checkpoint bit-flip, task \
             panic, kill at a seeded mid-run guest instruction (resumed \
             from its snapshot), checkpoint truncation.")
  in
  let dir =
    Arg.(
      value & opt string "chaos-out"
      & info [ "dir" ] ~docv:"DIR"
          ~doc:
            "Checkpoint directory for the chaos sweep (created if missing; \
             existing *.ckpt files in it are deleted — the harness owns \
             the directory).")
  in
  let summary =
    Arg.(
      value
      & opt (some string) None
      & info [ "summary" ] ~docv:"FILE"
          ~doc:
            "Also write the deterministic JSON summary to FILE — \
             byte-identical across job counts and repeated same-seed runs.")
  in
  let chaos_steps =
    Arg.(
      value & opt int 200_000
      & info [ "max-steps" ] ~docv:"N"
          ~doc:
            "Cap every constituent run at N guest instructions; capped runs \
             are kept as partial results, so the harness stays fast while \
             still exercising every fault path.")
  in
  let serve_mode =
    Arg.(
      value & flag
      & info [ "serve" ]
          ~doc:
            "Attack the serving path instead of the batch sweep: drive the \
             $(b,tpdbt serve) state machine through framing/protocol \
             damage, overload, a client death, a worker crash, a stall, a \
             kill mid-sweep with a torn journal, recovery and drain — then \
             byte-diff every surviving benchmark against an offline run.")
  in
  let write_summary summary json =
    match summary with
    | None -> ()
    | Some file ->
        (match Tpdbt_telemetry.Json.validate json with
        | Ok () -> ()
        | Error msg ->
            prerr_endline ("internal error: chaos summary " ^ msg);
            exit exit_invalid);
        let oc = open_out file in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () ->
            output_string oc json;
            output_char oc '\n');
        Printf.printf "wrote %s\n" file
  in
  let run benches seed jobs dir summary max_steps serve_mode =
    let benches =
      match benches with [] -> None | names -> Some (List.map suite_bench names)
    in
    ensure_dir dir;
    Option.iter ensure_parent summary;
    if serve_mode then begin
      let module Chaos_serve = Tpdbt_serve.Chaos_serve in
      let c =
        try Chaos_serve.run ?benches ~max_steps ~dir ~seed ()
        with Invalid_argument msg ->
          prerr_endline ("error: " ^ msg);
          exit exit_invalid
      in
      Format.printf "%a@." Chaos_serve.render c;
      write_summary summary (Chaos_serve.to_json c);
      if not (Chaos_serve.ok c) then exit exit_regression
    end
    else begin
      let progress n = function
        | Runner.Started -> Printf.eprintf "running %s...\n%!" n
        | status -> Printf.eprintf "%s: %s\n%!" n (Runner.status_name status)
      in
      let c =
        try Campaign.chaos ~jobs ?benches ~max_steps ~progress ~dir ~seed ()
        with Invalid_argument msg ->
          prerr_endline ("error: " ^ msg);
          exit exit_invalid
      in
      Format.printf "%a@." Campaign.render_chaos c;
      write_summary summary (Campaign.chaos_to_json c);
      if not (Campaign.chaos_ok c) then exit exit_regression
    end
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Attack a supervised checkpointed sweep with injected faults — a \
          stalled workload, a worker-domain crash, a panicking task, a kill \
          at an arbitrary guest instruction (resumed from its mid-run \
          snapshot), and bit-flipped/truncated checkpoint files — then \
          resume and verify that every non-quarantined benchmark's results \
          are byte-identical to a fault-free sequential run.  With \
          $(b,--serve), attack the serving path instead.  Exits non-zero \
          unless the system survives with exactly the expected casualties.")
    Term.(
      const run $ benches $ seed_arg $ jobs_arg $ dir $ summary $ chaos_steps
      $ serve_mode)

(* ------------------------------------------------------------------ *)
(* fuzz (differential fuzzing)                                          *)
(* ------------------------------------------------------------------ *)

let fuzz_cmd =
  let module Driver = Tpdbt_fuzz.Driver in
  let module Oracle = Tpdbt_fuzz.Oracle in
  let budget =
    Arg.(
      value & opt int 100
      & info [ "budget" ] ~docv:"N"
          ~doc:"Number of generated programs to judge.")
  in
  let size =
    Arg.(
      value & opt int 48
      & info [ "size" ] ~docv:"N"
          ~doc:"Target main-line instruction count per generated program.")
  in
  let corpus =
    Arg.(
      value & opt string "fuzz-corpus"
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:
            "Directory shrunk reproducers are written to (created if \
             missing; files appear only when a case diverges).")
  in
  let summary =
    Arg.(
      value
      & opt (some string) None
      & info [ "summary" ] ~docv:"FILE"
          ~doc:
            "Also write the deterministic JSON summary to FILE — \
             byte-identical across job counts and repeated same-seed runs.")
  in
  let run budget size seed jobs corpus summary_file =
    if budget <= 0 || size <= 0 then begin
      prerr_endline "error: --budget and --size must be positive";
      exit exit_usage
    end;
    Option.iter ensure_parent summary_file;
    let config =
      {
        Driver.budget;
        size;
        seed;
        jobs = Some jobs;
        corpus_dir = Some corpus;
      }
    in
    let s = Driver.run config in
    let json = Driver.summary_json s in
    (match Tpdbt_telemetry.Json.validate json with
    | Ok () -> ()
    | Error msg ->
        prerr_endline ("internal error: fuzz summary " ^ msg);
        exit exit_invalid);
    Printf.printf
      "fuzz: %d cases (%d skipped), %d checks across %d arms, %d divergent\n"
      s.Driver.budget s.Driver.skipped s.Driver.checks
      (List.length Oracle.arm_labels)
      (List.length s.Driver.failures);
    List.iter
      (fun (f : Driver.failure) ->
        Printf.printf "case %d (guest seed %Ld): shrunk %d -> %d instrs\n"
          f.Driver.case f.Driver.guest_seed f.Driver.original_active
          f.Driver.shrunk_active;
        List.iter
          (fun (d : Oracle.divergence) ->
            Printf.printf "  [%s] %s: %s\n" d.Oracle.arm d.Oracle.kind
              d.Oracle.detail)
          f.Driver.divergences;
        List.iter (fun p -> Printf.printf "  wrote %s\n" p) f.Driver.saved)
      s.Driver.failures;
    (match summary_file with
    | None -> ()
    | Some file ->
        write_file file (json ^ "\n");
        Printf.printf "wrote %s\n" file);
    if s.Driver.failures <> [] then exit exit_regression
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: generate seeded random (terminating) guest \
          programs, run each through the pure interpreter and the two-phase \
          engine across a threshold/cache/policy/optimizer config matrix, \
          and compare end-state fingerprints plus perf-counter invariants.  \
          Any divergence is delta-debugged down to a minimal reproducer and \
          written to the corpus directory with its seed.  Same seed, same \
          campaign, byte for byte — at any $(b,--jobs).  Exits 3 on \
          divergence.")
    Term.(const run $ budget $ size $ seed_arg $ jobs_arg $ corpus $ summary)

(* ------------------------------------------------------------------ *)
(* serve / request (translation service)                                *)
(* ------------------------------------------------------------------ *)

let socket_arg =
  Arg.(
    value
    & opt string Tpdbt_serve.Daemon.default_options.Tpdbt_serve.Daemon.socket
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path the daemon listens on.")

let serve_cmd =
  let module Serve = Tpdbt_serve in
  let queue_limit =
    Arg.(
      value & opt int Serve.Server.default_config.Serve.Server.queue_limit
      & info [ "queue-limit" ] ~docv:"N"
          ~doc:
            "Admission bound: expensive requests beyond N queued jobs are \
             refused with an $(i,overloaded) reply instead of buffered.")
  in
  let deadline =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline" ] ~docv:"STEPS"
          ~doc:
            "Per-run guest-step deadline (supervisor budget) applied to \
             every engine run the daemon performs.")
  in
  let serve_steps =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-steps" ] ~docv:"N"
          ~doc:
            "Server-wide guest-instruction cap; a request's own max_steps \
             wins when smaller.")
  in
  let checkpoint =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"DIR"
          ~doc:
            "Checkpoint sweeps into DIR — also the recovery substrate a \
             restarted daemon resumes from.")
  in
  let journal =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "Crash-only session journal: in-flight sweeps of a killed \
             daemon are re-run on restart.")
  in
  let warm =
    Arg.(
      value & opt int Serve.Server.default_config.Serve.Server.warm_capacity
      & info [ "warm-capacity" ] ~docv:"INSTRS"
          ~doc:
            "Warm reply cache budget, in translated guest instructions \
             (shared across requests, LRU).")
  in
  let idle_timeout =
    Arg.(
      value
      & opt float Serve.Daemon.default_options.Serve.Daemon.idle_timeout
      & info [ "idle-timeout" ] ~docv:"SECONDS"
          ~doc:"Drop clients silent for this long.")
  in
  let snapshot_every =
    Arg.(
      value & opt int 0
      & info [ "snapshot-every" ] ~docv:"N"
          ~doc:
            "With $(b,--checkpoint): every N guest instructions each sweep \
             benchmark publishes a mid-run snapshot into the store (and a \
             breadcrumb into the journal), so a killed daemon's orphaned \
             sweeps resume from the exact guest instruction on restart.  \
             0 disables.")
  in
  let quiet =
    Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"No lifecycle logging.")
  in
  let run socket queue_limit jobs deadline max_steps checkpoint journal warm
      snapshot_every idle_timeout quiet =
    if snapshot_every > 0 && checkpoint = None then begin
      prerr_endline "error: --snapshot-every requires --checkpoint DIR";
      exit exit_usage
    end;
    Option.iter ensure_dir checkpoint;
    Option.iter ensure_parent journal;
    let options =
      {
        Serve.Daemon.socket;
        idle_timeout;
        server =
          {
            Serve.Server.default_config with
            Serve.Server.queue_limit;
            jobs;
            deadline;
            max_steps;
            warm_capacity = warm;
            checkpoint_dir = checkpoint;
            journal_path = journal;
            snapshot_every;
          };
      }
    in
    let log = if quiet then fun _ -> () else Printf.eprintf "serve: %s\n%!" in
    try Serve.Daemon.run ~log options
    with Unix.Unix_error (e, fn, arg) ->
      Printf.eprintf "error: %s %s: %s\n%!" fn arg (Unix.error_message e);
      exit exit_usage
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the fault-tolerant translation daemon on a Unix-domain \
          socket: bounded admission queue with explicit backpressure, \
          strict request validation, a shared warm translation cache, \
          per-request deadlines, health probes, OpenMetrics, graceful \
          drain on SIGTERM or a $(i,drain) request, and crash-only \
          journal recovery (see docs/serve.md for the protocol).")
    Term.(
      const run $ socket_arg $ queue_limit $ jobs_arg $ deadline
      $ serve_steps $ checkpoint $ journal $ warm $ snapshot_every
      $ idle_timeout $ quiet)

let request_cmd =
  let payload =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"JSON"
          ~doc:
            "The request object, e.g. '{\"op\":\"status\"}' or \
             '{\"op\":\"run\",\"workload\":\"gzip\",\"threshold\":20}'.")
  in
  let retries =
    Arg.(
      value & opt int 0
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Retry an $(i,overloaded) reply up to N times with \
             deterministic seeded exponential backoff (50 ms base, \
             jittered by $(b,--backoff)).  Only backpressure is retried; \
             $(i,invalid) and $(i,draining) refusals are final.")
  in
  let backoff =
    Arg.(
      value & opt int64 7L
      & info [ "backoff" ] ~docv:"SEED"
          ~doc:
            "Seed for the backoff jitter — the delay schedule is a pure \
             function of (retries, seed), so a retrying client is \
             reproducible while distinct seeds decorrelate a fleet.")
  in
  let overloaded reply =
    match Tpdbt_telemetry.Json.parse reply with
    | Ok doc ->
        Tpdbt_telemetry.Json.member "kind" doc
        = Some (Tpdbt_telemetry.Json.Str "overloaded")
    | Error _ -> false
  in
  let refused reply =
    match Tpdbt_telemetry.Json.parse reply with
    | Ok doc ->
        Tpdbt_telemetry.Json.member "ok" doc
        = Some (Tpdbt_telemetry.Json.Bool false)
    | Error _ -> false
  in
  let run socket payload retries backoff =
    (* Delay schedule is precomputed (pure in retries+seed); attempt k
       sleeps delays.(k) before resending, and the last reply — whatever
       it is — is the one printed and classified. *)
    let delays = Tpdbt_serve.Daemon.retry_delays ~retries ~seed:backoff in
    let rec attempt delays =
      match Tpdbt_serve.Daemon.request ~socket payload with
      | Error msg ->
          prerr_endline ("error: " ^ msg);
          exit exit_usage
      | Ok reply when overloaded reply -> (
          match delays with
          | d :: rest ->
              Printf.eprintf "overloaded; retrying in %.3fs\n%!" d;
              Unix.sleepf d;
              attempt rest
          | [] -> reply)
      | Ok reply -> reply
    in
    let reply = attempt delays in
    print_endline reply;
    if refused reply then exit exit_invalid
  in
  Cmd.v
    (Cmd.info "request"
       ~doc:
         "Send one JSON request to a running $(b,tpdbt serve) daemon and \
          print the reply.  With $(b,--retries), $(i,overloaded) \
          (backpressure) replies are retried on a deterministic seeded \
          backoff schedule before giving up.  Exit status: 0 — the daemon \
          answered ok; 1 — usage or transport failure (bad flags, connect \
          refused, connection dropped, framing damage); 2 — the daemon \
          refused the request ($(i,invalid), $(i,draining), or \
          $(i,overloaded) after retries were exhausted).")
    Term.(const run $ socket_arg $ payload $ retries $ backoff)

let snapshot_cmd =
  let module Snap = Tpdbt_dbt.Exec_snapshot in
  let module Checkpoint = Tpdbt_experiments.Checkpoint in
  let module Runner = Tpdbt_experiments.Runner in
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:
            "A mid-run engine snapshot ($(i,TPDBT-SNAP)), a group snapshot \
             ($(i,TPDBT-GROUP)) or a checkpoint store entry \
             ($(i,TPDBT-CKPT), finished or suspended).")
  in
  let print_snap_info (i : Snap.info) =
    Printf.printf "steps              %d\n" i.Snap.steps;
    Printf.printf "halted             %b\n" i.Snap.halted;
    Printf.printf "pc                 %d\n" i.Snap.pc;
    Printf.printf "blocks             %d (%d optimized)\n" i.Snap.blocks
      i.Snap.optimized_blocks;
    Printf.printf "regions            %d\n" i.Snap.regions;
    Printf.printf "candidate pool     %d\n" i.Snap.pool;
    Printf.printf "cache entries      %d\n" i.Snap.cache_entries;
    Printf.printf "quarantines        %d%s\n" i.Snap.quarantines
      (if i.Snap.degraded then " (degraded)" else "");
    Printf.printf "faults             %d pending, %d fired\n"
      i.Snap.pending_faults i.Snap.fired_faults;
    Printf.printf "cycles             %.1f\n" i.Snap.cycles;
    Printf.printf "config digest      %s\n" i.Snap.config_digest;
    Printf.printf "program digest     %s\n" i.Snap.program_digest
  in
  let classified what c = or_die (Tpdbt_durable.Durable.to_result ~what c) in
  (* A group: the shared guest once, then one line per member. *)
  let print_group_info (g : Snap.group_parsed) =
    let m = g.Snap.gp_image.Tpdbt_dbt.Engine.gi_machine in
    Printf.printf "steps              %d\n" m.Tpdbt_vm.Machine.im_steps;
    Printf.printf "halted             %b\n" m.Tpdbt_vm.Machine.im_halted;
    Printf.printf "pc                 %d\n" m.Tpdbt_vm.Machine.im_pc;
    Printf.printf "members            %d\n" (List.length g.Snap.gp_members);
    List.iter2
      (fun (label, config_digest) (at, image) ->
        let i =
          Snap.info
            {
              Snap.sn_config_digest = config_digest;
              sn_program_digest = g.Snap.gp_program_digest;
              sn_image = image;
            }
        in
        Printf.printf "member %-11s %s, %d regions, %.1f cycles\n" label
          (match at with
          | Tpdbt_dbt.Engine.At_dispatch -> "at a dispatch point"
          | Tpdbt_dbt.Engine.In_region { region; slot } ->
              Printf.sprintf "in region %d at slot %d" region slot
          | Tpdbt_dbt.Engine.Stopped { steps; _ } ->
              Printf.sprintf "stopped at step %d" steps)
          i.Snap.regions i.Snap.cycles)
      g.Snap.gp_members g.Snap.gp_image.Tpdbt_dbt.Engine.gi_members
  in
  let print_embedded text =
    if Snap.is_group text then
      print_group_info
        (classified "embedded group snapshot" (Snap.group_of_string text))
    else
      print_snap_info
        (Snap.info (classified "embedded snapshot" (Snap.of_string text)))
  in
  let run file =
    let text =
      try read_file file
      with Sys_error msg ->
        prerr_endline ("error: " ^ msg);
        exit exit_usage
    in
    if String.starts_with ~prefix:"TPDBT-SNAP" text then begin
      Printf.printf "file               %s\n" file;
      Printf.printf "kind               engine snapshot\n";
      print_snap_info (Snap.info (classified "snapshot" (Snap.of_string text)))
    end
    else if Snap.is_group text then begin
      Printf.printf "file               %s\n" file;
      Printf.printf "kind               group snapshot\n";
      print_group_info (classified "group snapshot" (Snap.group_of_string text))
    end
    else if String.starts_with ~prefix:"TPDBT-CKPT" text then begin
      (* Checkpoints reference the benchmark by name, and the name is
         read only from a payload whose frame has verified: a damaged
         file reports its damage, not a misleading unknown name. *)
      let name = classified "checkpoint" (Checkpoint.bench_name text) in
      let spec =
        match Tpdbt_workloads.Suite.find name with
        | Some spec -> spec
        | None ->
            or_die (Error "checkpoint names no benchmark known to the suite")
      in
      Printf.printf "file               %s\n" file;
      Printf.printf "bench              %s\n" name;
      (* No ~thresholds: accept whatever list the file was recorded
         under — info inspects, it does not resume. *)
      match classified "checkpoint" (Checkpoint.data_of_string spec text) with
      | Checkpoint.Finished data ->
          Printf.printf "kind               finished checkpoint\n";
          Printf.printf "thresholds         %d\n"
            (List.length data.Runner.runs);
          Printf.printf "avep steps         %d\n"
            data.Runner.avep.Tpdbt_dbt.Engine.steps
      | Checkpoint.Suspended partial ->
          Printf.printf "kind               suspended checkpoint\n";
          Printf.printf "stages done        %d\n"
            (List.length partial.Runner.p_done);
          Printf.printf "next stage         %s\n"
            (Runner.stage_label partial.Runner.p_next);
          print_embedded partial.Runner.p_snapshot
    end
    else begin
      prerr_endline
        "error: unrecognised file (expected TPDBT-SNAP, TPDBT-GROUP or \
         TPDBT-CKPT)";
      exit exit_invalid
    end
  in
  let info_cmd =
    Cmd.v
      (Cmd.info "info"
         ~doc:
           "Validate a snapshot or checkpoint file (magic, CRC, payload \
            grammar) and print what it holds.  Exits 2 on stale versions \
            or corruption — the same classification resume would apply.")
      Term.(const run $ file)
  in
  Cmd.group
    (Cmd.info "snapshot"
       ~doc:
         "Inspect serialized execution state: mid-run engine snapshots \
          ($(i,TPDBT-SNAP), see docs/snapshots.md) and checkpoint store \
          entries ($(i,TPDBT-CKPT), finished or suspended).")
    [ info_cmd ]

let () =
  let doc = "two-phase dynamic binary translator profile-accuracy testbed" in
  let info = Cmd.info "tpdbt" ~version:"1.0.0" ~doc in
  let code =
    Cmd.eval
      (Cmd.group info
         [
           asm_cmd; dis_cmd; check_cmd; run_cmd; dbt_cmd; bench_cmd; sweep_cmd;
           profile_cmd; perfdiff_cmd; analyze_cmd; report_cmd; ablate_cmd;
           trace_cmd; faults_cmd; cache_cmd; chaos_cmd; fuzz_cmd; serve_cmd;
           request_cmd; snapshot_cmd;
         ])
  in
  (* Fold cmdliner's CLI-error code (124) into the taxonomy's usage
     class; subcommand exits pass through untouched. *)
  exit (if code = Cmd.Exit.cli_error then exit_usage else code)
