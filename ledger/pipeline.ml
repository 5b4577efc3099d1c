(* One benchmark's share of a sweep, driven stage by stage through the
   public API — the same sequence [Runner.run_benchmark_result] runs,
   with each call wrapped in a span.  Its results are byte-identical to
   the runner's (the gate compares digests), which is what lets a traced
   operation stand in for an untraced one. *)

module Engine = Tpdbt_dbt.Engine
module Error = Tpdbt_dbt.Error
module Exec_snapshot = Tpdbt_dbt.Exec_snapshot
module Machine = Tpdbt_vm.Machine
module Spec = Tpdbt_workloads.Spec
module Suite = Tpdbt_workloads.Suite
module Runner = Tpdbt_experiments.Runner
module Checkpoint = Tpdbt_experiments.Checkpoint
module Perf_model = Tpdbt_dbt.Perf_model

(* The guest state a stage ended in, compared against the interpreter's
   after the same number of instructions. *)
type fingerprint = {
  fp_steps : int;
  fp_pc : int;
  fp_halted : bool;
  fp_regs : int list;
  fp_outputs : int list;
}

let fingerprint m =
  {
    fp_steps = Machine.steps m;
    fp_pc = Machine.pc m;
    fp_halted = Machine.halted m;
    fp_regs =
      List.init Tpdbt_isa.Reg.count (fun i ->
          Machine.reg m (Tpdbt_isa.Reg.of_int i));
    fp_outputs = Machine.outputs m;
  }

type stage_end = {
  stage : Runner.stage;
  input : Spec.input;
  program : Tpdbt_isa.Program.t;  (** with [input] applied *)
  state : fingerprint;
}

let stage_config stage =
  let base =
    match stage with
    | Runner.Avep | Runner.Train -> Engine.profiling_only
    | Runner.Threshold (_, t) -> Engine.config ~threshold:t ()
  in
  { base with Engine.max_steps = Inputs.max_steps }

(* Minor-heap words allocated by this domain while [f] runs; counted
   only on the main domain, where no other domain shares the heap
   counters. *)
let with_words f =
  if Domain.is_main_domain () then begin
    let w0 = Gc.minor_words () in
    let r = f () in
    (r, Gc.minor_words () -. w0)
  end
  else (f (), 0.0)

exception Stage_failed of string

(* [snapshots] is the checkpoint store of the durable workload: with it,
   every stage publishes mid-run snapshots there and the finished
   benchmark is saved there, as [Checkpoint.run_many] does. *)
let benchmark ?snapshots bench =
  let program, ref_input, train_input =
    Trace.span "workloads.build" (fun () -> Spec.build bench)
  in
  let stages =
    Runner.Avep :: Runner.Train
    :: List.map (fun (l, s) -> Runner.Threshold (l, s)) Suite.thresholds
  in
  let exec index done_ stage =
    let config =
      let c = stage_config stage in
      if snapshots = None then c
      else { c with Engine.snapshot_every = Inputs.snapshot_every }
    in
    let input = if stage = Runner.Train then train_input else ref_input in
    let aprogram = Spec.apply_input program input in
    let engine =
      Trace.span "dbt.create" (fun () ->
          Engine.create ~config ~seed:input.Spec.seed aprogram)
    in
    let name =
      match stage with
      | Runner.Avep | Runner.Train -> "dbt.profile"
      | Runner.Threshold _ -> "dbt.twophase"
    in
    let rec go cycles =
      let steps0 = Machine.steps (Engine.machine engine) in
      let r, _ =
        Trace.span name
          ~attrs:(fun ((r : Engine.result), words) ->
            [
              ("instrs", float_of_int (r.Engine.steps - steps0));
              ("cycles", r.Engine.counters.Perf_model.cycles -. cycles);
              ("words", words);
              ("stage", float_of_int index);
            ])
          (fun () -> with_words (fun () -> Engine.run engine))
      in
      (* copied now: the counters record is the engine's own *)
      let cycles = r.Engine.counters.Perf_model.cycles in
      match (r.Engine.error, snapshots) with
      | Some (Error.Suspended _), Some dir ->
          let image =
            Trace.span "persist.snap_capture" (fun () -> Engine.capture engine)
          in
          let text =
            Trace.span "persist.snap_encode"
              ~attrs:(fun s -> [ ("bytes", float_of_int (String.length s)) ])
              (fun () ->
                Exec_snapshot.to_string ~config ~program:aprogram image)
          in
          Trace.span "persist.snap_save" (fun () ->
              Checkpoint.save_suspended ~dir
                {
                  Runner.p_bench = bench;
                  p_thresholds = Suite.thresholds;
                  p_done = List.rev done_;
                  p_next = stage;
                  p_snapshot = text;
                });
          go cycles
      | Some e, _ when Error.fatal e || Engine.suspended r ->
          (* a suspension without a store to publish into cannot
             happen: only the durable workload arms the trigger *)
          raise (Stage_failed (bench.Spec.name ^ ": " ^ Error.to_string e))
      | _ ->
          ( r,
            {
              stage;
              input;
              program = aprogram;
              state = fingerprint (Engine.machine engine);
            } )
    in
    go 0.0
  in
  let rec loop index done_ ends = function
    | [] -> (List.rev done_, List.rev ends)
    | stage :: rest ->
        let r, e = exec index done_ stage in
        loop (index + 1) ((stage, r) :: done_) (e :: ends) rest
  in
  let results, ends = loop 0 [] [] stages in
  let data =
    match results with
    | (Runner.Avep, avep) :: (Runner.Train, train) :: rest ->
        let raw =
          List.map
            (function
              | Runner.Threshold (l, s), r -> (l, s, r)
              | (Runner.Avep | Runner.Train), _ -> assert false)
            rest
        in
        Trace.span "experiments.assemble" (fun () ->
            Runner.assemble bench avep train raw)
    | _ -> assert false
  in
  Option.iter
    (fun dir ->
      Trace.span "persist.ckpt_save" (fun () -> Checkpoint.save ~dir data))
    snapshots;
  (data, ends)
