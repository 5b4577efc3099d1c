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

type kind = Bp | Cp | Lp

type row = {
  kind : kind;
  region : Region.t option;
  slot : int;
  block : int;
  inip : float option;
  avep : float option;
  weight : float;
}

let range kind p =
  match kind with
  | Bp | Cp -> if p < 0.3 then 0 else if p <= 0.7 then 1 else 2
  | Lp -> if p < 0.9 then 0 else if p <= 0.98 then 1 else 2

let trip_count_of_loopback lp =
  if lp >= 1.0 -. 1e-9 then 1e9 else 1.0 /. (1.0 -. lp)

let bp_row ~avep region slot block inip weight =
  {
    kind = Bp;
    region;
    slot;
    block;
    inip;
    avep = Snapshot.branch_prob avep block;
    weight;
  }

(* A trace's CP row or a loop's LP row, propagated through [layout]
   from the frozen profile and, given an AVEP, from its probabilities
   of the slots' blocks. *)
let region_row ~avep r layout =
  let kind, propagate =
    match r.Region.kind with
    | Region.Trace -> (Cp, Region_prob.completion_probability)
    | Region.Loop -> (Lp, Region_prob.loopback_probability)
  in
  let entry = Region.entry_block r in
  let of_avep avep =
    propagate layout ~prob:(fun slot ->
        Snapshot.branch_prob avep r.Region.slots.(slot))
  in
  {
    kind;
    region = Some r;
    slot = 0;
    block = entry;
    inip = Some (propagate layout ~prob:(Region.frozen_branch_prob r));
    avep = Option.map of_avep avep;
    weight =
      Option.fold ~none:0.0 ~some:(fun a -> Snapshot.block_freq a entry) avep;
  }

(* Every row of a comparison in {!rows}' order; returns the NAVEP the
   BP rows were read from. *)
let iter_rows ~inip ~avep f =
  let navep = Navep.build ~inip ~avep in
  let bmap = inip.Snapshot.block_map in
  List.iter
    (fun { Navep.node; block; location } ->
      if Block_map.is_cond bmap block then
        let weight = Navep.freq navep node in
        f
          (match location with
          | Navep.In_region { slot; _ } ->
              let region = Navep.region_of_node navep node in
              bp_row ~avep region slot block
                (Option.bind region (fun r -> Region.frozen_branch_prob r slot))
                weight
          | Navep.Standalone ->
              bp_row ~avep None (-1) block (Snapshot.branch_prob inip block)
                weight))
    (Navep.copies navep);
  (* NAVEP derived each region's layout; the propagations read the same
     one. *)
  List.iter
    (fun (r, layout) -> f (region_row ~avep:(Some avep) r layout))
    (Navep.region_layouts navep);
  navep

let rows ~inip ~avep =
  let acc = ref [] in
  ignore (iter_rows ~inip ~avep (fun row -> acc := row :: !acc));
  List.rev !acc

let region_rows snapshot =
  List.map
    (fun r -> region_row ~avep:None r (Region.layout r))
    snapshot.Snapshot.regions

(* A trace without side exits always completes: its CP is no sample. *)
let one_slot_trace row =
  match (row.kind, row.region) with
  | Cp, Some r -> Region.slot_count r < 2
  | (Bp | Cp | Lp), _ -> false

let add sums row =
  match (row.inip, row.avep) with
  | Some predicted, Some actual
    when not (row.weight <= 0.0 || one_slot_trace row) ->
      Stats.add sums ~predicted ~actual ~weight:row.weight
        ~mismatched:(range row.kind predicted <> range row.kind actual)
  | (Some _ | None), _ -> sums

let of_sums ~bp ~cp ~lp ~navep_fallback =
  {
    sd_bp = Stats.sd bp;
    sd_cp = Stats.sd cp;
    sd_lp = Stats.sd lp;
    bp_mismatch = Stats.mismatch_rate bp;
    lp_mismatch = Stats.mismatch_rate lp;
    bp_samples = Stats.count bp;
    cp_samples = Stats.count cp;
    lp_samples = Stats.count lp;
    navep_fallback;
  }

let compare_snapshots ~inip ~avep =
  let bp = ref Stats.empty and cp = ref Stats.empty and lp = ref Stats.empty in
  let navep =
    iter_rows ~inip ~avep (fun row ->
        let sums = match row.kind with Bp -> bp | Cp -> cp | Lp -> lp in
        sums := add !sums row)
  in
  of_sums ~bp:!bp ~cp:!cp ~lp:!lp ~navep_fallback:(Navep.used_fallback navep)

(* A block without a conditional branch has no AVEP probability, so its
   flat row is skipped like any row missing one. *)
let compare_flat ~predicted ~avep =
  let bp =
    List.fold_left
      (fun sums block ->
        add sums
          (bp_row ~avep None (-1) block
             (Snapshot.branch_prob predicted block)
             (Snapshot.block_freq avep block)))
      Stats.empty
      (Snapshot.executed_blocks avep)
  in
  of_sums ~bp ~cp:Stats.empty ~lp:Stats.empty ~navep_fallback:false

let pp_comparison ppf (c : comparison) =
  Format.fprintf ppf
    "Sd.BP=%.4f Sd.CP=%.4f Sd.LP=%.4f bp_mis=%.3f lp_mis=%.3f (bp=%d cp=%d \
     lp=%d%s)"
    c.sd_bp c.sd_cp c.sd_lp c.bp_mismatch c.lp_mismatch c.bp_samples
    c.cp_samples c.lp_samples
    (if c.navep_fallback then ", navep-fallback" else "")
