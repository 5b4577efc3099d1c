(* Phase detection: finding the change points the initial profile
   cannot see.

   Runs the phase-changing "mcf" benchmark, suspending it every 100k
   instructions to take a cumulative profile checkpoint, differences
   the checkpoints into window profiles, and reports where adjacent
   windows' branch behaviour diverges — the change points that make
   Mcf's initial prediction inaccurate at every threshold in the
   paper's Figure 9.

   Run with:  dune exec examples/phase_detector.exe [-- benchmark] *)

module Engine = Tpdbt_dbt.Engine
module Phases = Tpdbt_profiles.Phases

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "mcf" in
  let bench =
    match Tpdbt_workloads.Suite.find name with
    | Some b -> b
    | None ->
        Printf.eprintf "unknown benchmark %s\n" name;
        exit 1
  in
  let program, ref_input, _ = Tpdbt_workloads.Spec.build bench in
  let program = Tpdbt_workloads.Spec.apply_input program ref_input in
  let engine =
    Engine.create
      ~config:{ Engine.profiling_only with Engine.snapshot_every = 100_000 }
      ~seed:ref_input.Tpdbt_workloads.Spec.seed program
  in
  let result, series = Phases.series engine in
  Printf.printf "%s: %d guest instructions, %d checkpoints of 100k \
                 instructions\n\n"
    name result.Engine.steps (List.length series);
  let bmap = result.Engine.snapshot.Tpdbt_dbt.Snapshot.block_map in
  let points = Phases.change_points ~threshold:0.08 ~shift_threshold:0.3 bmap series in
  if points = [] then
    print_endline "no phase changes detected (stable benchmark)"
  else begin
    Printf.printf "detected phase changes (weighted distance > 0.08 or \
                   per-branch shift > 0.3):\n";
    List.iter
      (fun { Phases.steps; distance; shift } ->
        Printf.printf "  around instruction %9d   distance %.3f   max \
                       branch shift %.3f\n"
          steps distance shift)
      points;
    print_endline
      "\nEach point is a boundary where the program's branch behaviour \
       shifted.  An initial profile frozen before a point cannot predict \
       the average behaviour after it — the paper's explanation for Mcf \
       and Gzip (and its motivation for phase-aware, multi-phase \
       profiling)."
  end
