(* Region explorer: inspect what the optimisation phase builds.

   Runs the nested-loop shape of the paper's Figure 1 (an inner loop
   whose body also belongs to the outer loop) under the DBT, prints the
   discovered basic blocks, the regions the optimiser formed — including
   duplicated blocks — and the NAVEP normalisation that redistributes
   the average profile's frequencies over the duplicated copies.

   Run with:  dune exec examples/region_explorer.exe *)

let source =
  {|
.entry main
main:
    movi r1, 0
    movi r2, 5000       ; outer trip count
outer:
    movi r3, 0
    rnd r4, 11
    addi r4, r4, 15     ; inner trip in [15,25]
inner:
    addi r5, r5, 1      ; shared inner block (Fig 1's Load1)
    addi r3, r3, 1
    blt r3, r4, inner
    addi r1, r1, 1
    blt r1, r2, outer
    out r5
    halt
|}

let () =
  let program = Tpdbt_isa.Assembler.assemble_exn source in
  let bmap = Tpdbt_dbt.Block_map.build program in
  print_endline "discovered basic blocks:";
  List.iter
    (fun b -> Format.printf "  %a@." Tpdbt_dbt.Block_map.pp_block b)
    (Tpdbt_dbt.Block_map.blocks bmap);

  let config = Tpdbt_dbt.Engine.config ~threshold:40 () in
  let inip =
    Tpdbt_dbt.Engine.run (Tpdbt_dbt.Engine.create ~config ~seed:9L program)
  in
  let avep =
    Tpdbt_dbt.Engine.run
      (Tpdbt_dbt.Engine.create ~config:Tpdbt_dbt.Engine.profiling_only ~seed:9L
         program)
  in
  print_endline "\nregions formed by the optimisation phase:";
  List.iter
    (fun region ->
      Format.printf "  %a@." Tpdbt_dbt.Region.pp region;
      let prob slot = Tpdbt_dbt.Region.frozen_branch_prob region slot in
      match region.Tpdbt_dbt.Region.kind with
      | Tpdbt_dbt.Region.Loop ->
          Format.printf "    loop-back probability (frozen profile): %.4f@."
            (Tpdbt_profiles.Region_prob.loopback_probability
               (Tpdbt_dbt.Region.layout region) ~prob)
      | Tpdbt_dbt.Region.Trace ->
          Format.printf "    completion probability (frozen profile): %.4f@."
            (Tpdbt_profiles.Region_prob.completion_probability
               (Tpdbt_dbt.Region.layout region) ~prob))
    inip.Tpdbt_dbt.Engine.snapshot.Tpdbt_dbt.Snapshot.regions;

  print_endline "\nNAVEP: average-profile frequencies per block copy:";
  let navep =
    Tpdbt_profiles.Navep.build ~inip:inip.Tpdbt_dbt.Engine.snapshot
      ~avep:avep.Tpdbt_dbt.Engine.snapshot
  in
  List.iter
    (fun (c : Tpdbt_profiles.Navep.copy) ->
      let where =
        match c.Tpdbt_profiles.Navep.location with
        | Tpdbt_profiles.Navep.In_region { region; slot } ->
            Printf.sprintf "region %d slot %d" region slot
        | Tpdbt_profiles.Navep.Standalone -> "standalone"
      in
      let freq = Tpdbt_profiles.Navep.freq navep c.Tpdbt_profiles.Navep.node in
      if freq > 0.0 then
        Printf.printf "  B%-3d %-18s freq %12.1f\n" c.Tpdbt_profiles.Navep.block
          where freq)
    (Tpdbt_profiles.Navep.copies navep);
  print_endline
    "\nDuplicated blocks (same B id in several regions) split their AVEP\n\
     frequency between copies via the Markov flow equations — the paper's\n\
     Figure 3/4 normalisation.";
  let comparison =
    Tpdbt_profiles.Metrics.compare_snapshots
      ~inip:inip.Tpdbt_dbt.Engine.snapshot
      ~avep:avep.Tpdbt_dbt.Engine.snapshot
  in
  Format.printf "\nmetrics: %a@." Tpdbt_profiles.Metrics.pp_comparison
    comparison
