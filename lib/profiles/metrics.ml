module Snapshot = Tpdbt_dbt.Snapshot
module Region = Tpdbt_dbt.Region
module Block_map = Tpdbt_dbt.Block_map
module Stats = Tpdbt_numerics.Stats

type comparison = {
  sd_bp : float;
  sd_cp : float;
  sd_lp : float;
  bp_mismatch : float;
  lp_mismatch : float;
  bp_samples : int;
  cp_samples : int;
  lp_samples : int;
  navep_fallback : bool;
}

type flat = { sd_bp : float; bp_mismatch : float; bp_samples : int }

let bp_range p = if p < 0.3 then 0 else if p <= 0.7 then 1 else 2
let lp_range p = if p < 0.9 then 0 else if p <= 0.98 then 1 else 2

let is_cond bmap block =
  match (Block_map.block bmap block).Block_map.terminator with
  | Block_map.Cond _ -> true
  | Block_map.Goto _ | Block_map.Call_to _ | Block_map.Return | Block_map.Stop
  | Block_map.Fallthrough _ ->
      false

(* Branch-probability samples: one per NAVEP copy of a conditional block
   executed in both profiles. *)
let bp_samples_of navep ~inip ~avep =
  let bmap = inip.Snapshot.block_map in
  List.filter_map
    (fun (c : Navep.copy) ->
      if not (is_cond bmap c.Navep.block) then None
      else
        let actual = Snapshot.branch_prob avep c.Navep.block in
        let predicted =
          match c.Navep.location with
          | Navep.In_region { slot; _ } ->
              Option.bind (Navep.region_of_node navep c.Navep.node) (fun r ->
                  Region.frozen_branch_prob r slot)
          | Navep.Standalone -> Snapshot.branch_prob inip c.Navep.block
        in
        match (predicted, actual) with
        | Some predicted, Some actual ->
            let weight = Navep.freq navep c.Navep.node in
            if weight <= 0.0 then None
            else Some { Stats.predicted; actual; weight }
        | (None, _ | _, None) -> None)
    (Navep.copies navep)

(* Per-slot branch probabilities for region propagation. *)
let frozen_prob region slot = Region.frozen_branch_prob region slot

let avep_prob avep region slot =
  Snapshot.branch_prob avep region.Region.slots.(slot)

let compare_snapshots ~inip ~avep =
  let navep = Navep.build ~inip ~avep in
  let bp = bp_samples_of navep ~inip ~avep in
  let cp =
    List.filter_map
      (fun r ->
        if r.Region.kind <> Region.Trace || Region.slot_count r < 2 then None
        else begin
          let layout = Region.layout r in
          let ct =
            Region_prob.completion_probability layout ~prob:(frozen_prob r)
          in
          let cm =
            Region_prob.completion_probability layout ~prob:(avep_prob avep r)
          in
          let weight = Snapshot.block_freq avep (Region.entry_block r) in
          if weight <= 0.0 then None
          else Some { Stats.predicted = ct; actual = cm; weight }
        end)
      inip.Snapshot.regions
  in
  let lp =
    List.filter_map
      (fun r ->
        if r.Region.kind <> Region.Loop then None
        else begin
          let layout = Region.layout r in
          let lt =
            Region_prob.loopback_probability layout ~prob:(frozen_prob r)
          in
          let lm =
            Region_prob.loopback_probability layout ~prob:(avep_prob avep r)
          in
          let weight = Snapshot.block_freq avep (Region.entry_block r) in
          if weight <= 0.0 then None
          else Some { Stats.predicted = lt; actual = lm; weight }
        end)
      inip.Snapshot.regions
  in
  {
    sd_bp = Stats.weighted_sd bp;
    sd_cp = Stats.weighted_sd cp;
    sd_lp = Stats.weighted_sd lp;
    bp_mismatch = Stats.mismatch_rate ~ranges:bp_range bp;
    lp_mismatch = Stats.mismatch_rate ~ranges:lp_range lp;
    bp_samples = List.length bp;
    cp_samples = List.length cp;
    lp_samples = List.length lp;
    navep_fallback = Navep.used_fallback navep;
  }

let compare_flat ~predicted ~avep =
  let bmap = avep.Snapshot.block_map in
  let samples =
    List.filter_map
      (fun block ->
        if not (is_cond bmap block) then None
        else
          match
            (Snapshot.branch_prob predicted block, Snapshot.branch_prob avep block)
          with
          | Some p, Some a ->
              let weight = Snapshot.block_freq avep block in
              if weight <= 0.0 then None
              else Some { Stats.predicted = p; actual = a; weight }
          | (None, _ | _, None) -> None)
      (Snapshot.executed_blocks avep)
  in
  {
    sd_bp = Stats.weighted_sd samples;
    bp_mismatch = Stats.mismatch_rate ~ranges:bp_range samples;
    bp_samples = List.length samples;
  }

let pp_comparison ppf (c : comparison) =
  Format.fprintf ppf
    "Sd.BP=%.4f Sd.CP=%.4f Sd.LP=%.4f bp_mis=%.3f lp_mis=%.3f (bp=%d cp=%d \
     lp=%d%s)"
    c.sd_bp c.sd_cp c.sd_lp c.bp_mismatch c.lp_mismatch c.bp_samples
    c.cp_samples c.lp_samples
    (if c.navep_fallback then ", navep-fallback" else "")
