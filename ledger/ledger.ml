(* The layered performance ledger.  One invocation sets up one workload,
   measures it for a fixed amount of operation time, checks every
   result, and prints its end-to-end metrics ([--trace 0]) or, from a
   traced run, its per-layer metrics ([--trace 1]).  README.md explains
   the workloads, the metrics and how to compare two commits.

     ledger.exe --workload W [--seed N] [--seconds S] [--trace 0|1] [--smoke]
     ledger.exe --print-golden

   Output goes to _ledger/ under the working directory: BENCH_<W>.json
   with the host stanza, sample counts and quartiles, and for a traced
   run <W>-seed<N>.spans.json.  Standard output lists the metrics as
   [name value unit] and ends with the result as one JSON object.  Exit
   status: 0 ok, 1 usage, 3 when the correctness gate fails. *)

module Spec = Tpdbt_workloads.Spec
module Suite = Tpdbt_workloads.Suite
module Runner = Tpdbt_experiments.Runner
module Checkpoint = Tpdbt_experiments.Checkpoint
module Figures = Tpdbt_experiments.Figures
module Json = Tpdbt_telemetry.Json
open Ops

let write_file path text =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc text;
      output_char oc '\n')

(* Set up [reps] times (the last set-up stays), then measure.  Returns
   the set-up seconds and the samples. *)
let measure env ~reps ~daemon =
  let setup = ref [] in
  let samples =
    match env.opts.workload with
    | Serve ->
        let rec start k =
          let d, secs = setup_serve env in
          daemon := Some d;
          setup := secs :: !setup;
          if k = 1 then d
          else begin
            Proc.stop d;
            daemon := None;
            start (k - 1)
          end
        in
        let d = start reps in
        let samples = measure_serve env d (Inputs.create env.opts.seed) in
        env.serve_status <- status_counts d;
        Proc.stop d;
        daemon := None;
        samples
    | kind ->
        for _ = 1 to reps do
          setup := setup_inprocess env kind :: !setup
        done;
        measure_inprocess env kind (Inputs.create env.opts.seed)
  in
  (List.rev !setup, samples)

let run opts =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  mkdir out_dir;
  mkdir scratch;
  let daemon = ref None in
  at_exit (fun () ->
      Option.iter Proc.kill !daemon;
      rm_rf scratch);
  let env = Ops.create opts in
  Meter.warm_up ~domains:(meter_domains env opts.workload);
  let name = workload_name opts.workload in
  let setup, samples =
    measure env ~reps:(if opts.smoke then 1 else 5) ~daemon
  in
  let metrics, self =
    if opts.trace then begin
      probe_layers env Inputs.warm_up;
      write_file
        (Filename.concat out_dir
           (Printf.sprintf "%s-seed%d.spans.json" name opts.seed))
        (Trace.to_chrome (Trace.all ()));
      ( Report.per_layer env ~samples (Report.behaviour Inputs.warm_up),
        Report.self_times env )
    end
    else (Report.end_to_end opts.workload ~setup ~samples, [])
  in
  Gate.finish env.gate env.replay;
  let metrics =
    List.map
      (fun (m : Report.metric) ->
        if Float.is_finite m.value then m
        else begin
          ignore (Gate.fail env.gate "metric %s was not measured" m.name);
          { m with value = 0.0 }
        end)
      metrics
  in
  List.iter (Printf.eprintf "gate: %s\n") (List.rev env.gate.Gate.errors);
  write_file
    (Filename.concat out_dir (Printf.sprintf "BENCH_%s.json" name))
    (Report.bench_json env ~setup ~samples ~metrics ~self);
  let correct = env.gate.Gate.errors = [] in
  let failed =
    match List.length (List.filter (fun s -> not s.ok) samples) with
    | 0 when not correct -> 1
    | n -> n
  in
  (* the median latency is printed with the number of samples it is
     taken over *)
  List.iter
    (fun (m : Report.metric) ->
      Printf.printf "%s %.17g %s%s\n" m.name m.value m.unit_
        (if m.name = "op_p50_ms" then
           Printf.sprintf " n=%d" (List.length samples)
         else ""))
    metrics;
  print_endline
    (Json.obj
       [
         ("correct", string_of_bool correct);
         ("attempted", string_of_int (List.length samples));
         ("failed", string_of_int failed);
         ("metrics", Report.metrics_json metrics);
       ]);
  if not correct then exit 3

(* Regenerate golden.txt: every suite member through the stage-by-stage
   pipeline (checked against the interpreter) and through the runner
   (which must agree byte for byte), then the figure tables of the
   warm-up pair. *)
let print_golden () =
  List.iter
    (fun b ->
      let data, ends = Pipeline.benchmark b in
      let text = Checkpoint.data_to_string data in
      let runner =
        Checkpoint.data_to_string
          (Runner.run_benchmark ~max_steps:Inputs.max_steps b)
      in
      if not (Gate.interpreter_agrees ends && text = runner) then begin
        Printf.eprintf "%s: pipeline, runner and interpreter disagree\n"
          b.Spec.name;
        exit 3
      end;
      Printf.printf "data %s %s\n%!" b.Spec.name (Gate.digest text))
    Suite.all;
  let s = Runner.run_many ~max_steps:Inputs.max_steps Inputs.warm_up in
  Printf.printf "figures warm-up %s\n"
    (Gate.figures_digest (Figures.all s.Runner.data))

let usage () =
  prerr_endline
    "usage: ledger.exe --workload W [--seed N] [--seconds S] [--trace 0|1] \
     [--smoke]\n\
    \       ledger.exe --print-golden\n\
     workloads: sweep sweep-par durable resume serve";
  exit 1

let () =
  let rec parse opts = function
    | [] -> opts
    | "--workload" :: w :: rest -> (
        match List.assoc_opt w workloads with
        | Some workload -> parse { opts with workload } rest
        | None -> usage ())
    | "--seed" :: n :: rest -> (
        match int_of_string_opt n with
        | Some seed -> parse { opts with seed } rest
        | None -> usage ())
    | "--seconds" :: s :: rest -> (
        match float_of_string_opt s with
        | Some seconds when seconds > 0.0 -> parse { opts with seconds } rest
        | _ -> usage ())
    | "--trace" :: (("0" | "1") as t) :: rest ->
        parse { opts with trace = t = "1" } rest
    | "--smoke" :: rest -> parse { opts with smoke = true } rest
    | _ -> usage ()
  in
  match List.tl (Array.to_list Sys.argv) with
  | [ "--print-golden" ] -> print_golden ()
  | args when List.mem "--workload" args ->
      run
        (parse
           {
             workload = Sweep;
             seed = 1;
             seconds = 15.0;
             trace = false;
             smoke = false;
           }
           args)
  | _ -> usage ()
