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

module Metrics = Tpdbt_profiles.Metrics

let () =
  let program = Tpdbt_isa.Assembler.assemble_exn source in
  let bmap = Tpdbt_dbt.Block_map.build program in
  print_endline "discovered basic blocks:";
  List.iter
    (fun b -> Format.printf "  %a@." Tpdbt_dbt.Block_map.pp_block b)
    (Tpdbt_dbt.Block_map.blocks bmap);

  let profile config =
    (Tpdbt_dbt.Engine.run (Tpdbt_dbt.Engine.create ~config ~seed:9L program))
      .Tpdbt_dbt.Engine.snapshot
  in
  let inip = profile (Tpdbt_dbt.Engine.config ~threshold:40 ()) in
  let avep = profile Tpdbt_dbt.Engine.profiling_only in
  print_endline "\nregions formed by the optimisation phase:";
  (* Each region's CP or LP row: its INIP side is the probability
     propagated through the region's frozen profile. *)
  List.iter
    (fun { Metrics.kind; region; inip = p; _ } ->
      match (kind, region, p) with
      | (Metrics.Cp | Metrics.Lp), Some region, Some p ->
          Format.printf "  %a@.    %s probability (frozen profile): %.4f@."
            Tpdbt_dbt.Region.pp region
            (if kind = Metrics.Lp then "loop-back" else "completion")
            p
      | Metrics.Bp, _, _ | _, None, _ | _, _, None -> ())
    (Metrics.rows ~inip ~avep);

  print_endline "\nNAVEP: average-profile frequencies per block copy:";
  let navep = Tpdbt_profiles.Navep.build ~inip ~avep in
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
  Format.printf "\nmetrics: %a@." Metrics.pp_comparison
    (Metrics.compare_snapshots ~inip ~avep)
