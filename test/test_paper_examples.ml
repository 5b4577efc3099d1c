(* Reconstructions of the paper's worked examples (Figures 5, 6, 7).

   Where the paper's printed arithmetic is internally inconsistent we
   assert the value its own formula produces and note the discrepancy:
   - Fig 7 prints "0.38*0.9 + 0.6*0.9 = 0.886"; the products sum to 0.882.
   - Fig 5's Sd.LP prints sqrt(0.076) = 0.27; its own numbers give
     sqrt(0.102) = 0.319. *)

module Region = Tpdbt_dbt.Region
module Region_prob = Tpdbt_profiles.Region_prob
module Stats = Tpdbt_numerics.Stats

let checkf eps msg = Alcotest.check (Alcotest.float eps) msg

let mk_region ?(kind = Region.Trace) ?(edges = []) ?(back_edges = []) n =
  {
    Region.id = 0;
    kind;
    slots = Array.init n (fun i -> i);
    edges;
    back_edges;
    frozen_use = Array.make n 0;
    frozen_taken = Array.make n 0;
  }

(* ---- Figure 6: completion probability of a hammock ----------------- *)

let test_fig6_completion () =
  (* b5 branches to b6 (0.4) and b7 (0.6); b6 reaches b8 with 0.8, b7
     with 0.9.  Completion probability = 0.4*0.8 + 0.6*0.9 = 0.86. *)
  let region =
    mk_region 4
      ~edges:
        [
          { Region.src = 0; dst = 1; role = Region.Taken };
          { Region.src = 0; dst = 2; role = Region.Not_taken };
          { Region.src = 1; dst = 3; role = Region.Taken };
          { Region.src = 2; dst = 3; role = Region.Taken };
        ]
  in
  let prob = function
    | 0 -> Some 0.4
    | 1 -> Some 0.8
    | 2 -> Some 0.9
    | _ -> None
  in
  checkf 1e-9 "Fig 6: CP = 0.86" 0.86
    (Region_prob.completion_probability (Region.layout region) ~prob)

(* ---- Figure 7: loop-back probability via the dummy node ------------ *)

let test_fig7_loopback () =
  (* Loop entry b5 branches 0.6 to b7 and 0.4 to b6; b6 reaches b8 with
     0.95 (so b8 has frequency 0.38); b7 and b8 branch back to the entry
     with probability 0.9 each.  The paper propagates to a dummy node:
     LP = 0.6*0.9 + 0.38*0.9 = 0.882 (printed as 0.886 — arithmetic slip
     in the paper). *)
  let region =
    mk_region ~kind:Region.Loop 4
      ~edges:
        [
          { Region.src = 0; dst = 1; role = Region.Taken };     (* b5->b7 *)
          { Region.src = 0; dst = 2; role = Region.Not_taken }; (* b5->b6 *)
          { Region.src = 2; dst = 3; role = Region.Taken };     (* b6->b8 *)
        ]
      ~back_edges:
        [
          { Region.src = 1; dst = 0; role = Region.Taken };
          { Region.src = 3; dst = 0; role = Region.Taken };
        ]
  in
  let prob = function
    | 0 -> Some 0.6
    | 1 -> Some 0.9
    | 2 -> Some 0.95
    | 3 -> Some 0.9
    | _ -> None
  in
  checkf 1e-9 "Fig 7: LP = 0.882" 0.882
    (Region_prob.loopback_probability (Region.layout region) ~prob)

(* ---- Figure 5: the three standard deviations ------------------------ *)

let test_fig5_sd_bp () =
  (* Six NAVEP copies; two predict perfectly, four deviate.  The paper:
     Sd.BP = sqrt((0.23^2*1000 + 0.077^2*44000 + 0.18^2*43000 +
                   0.68^2*6000) / 101000) = sqrt(0.0444) ~= 0.21. *)
  let samples =
    [
      { Stats.predicted = 0.88; actual = 0.65; weight = 1000.0 };
      { Stats.predicted = 0.977; actual = 0.90; weight = 44000.0 };
      { Stats.predicted = 0.88; actual = 0.70; weight = 43000.0 };
      { Stats.predicted = 0.88; actual = 0.20; weight = 6000.0 };
      (* zero-deviation copies contribute only weight *)
      { Stats.predicted = 0.5; actual = 0.5; weight = 1000.0 };
      { Stats.predicted = 0.9; actual = 0.9; weight = 6000.0 };
    ]
  in
  checkf 5e-3 "Fig 5: Sd.BP ~= 0.21" 0.2106 (Stats.weighted_sd samples)

let test_fig5_sd_cp () =
  (* The single non-loop region completes with probability 1 in both
     profiles: Sd.CP = 0. *)
  let samples = [ { Stats.predicted = 1.0; actual = 1.0; weight = 1000.0 } ] in
  checkf 1e-12 "Fig 5: Sd.CP = 0" 0.0 (Stats.weighted_sd samples)

let test_fig5_sd_lp () =
  (* Two loop regions.  Loop 1: INIP loop-back 0.977*0.88, AVEP
     0.90*0.70, weight 44000.  Loop 2: INIP 0.12, AVEP 0.80, weight
     6000.  The paper's own formula gives sqrt(0.102) = 0.319 (the
     printed intermediate 0.076 is inconsistent with its inputs). *)
  let lt1 = 0.977 *. 0.88 and lm1 = 0.90 *. 0.70 in
  let samples =
    [
      { Stats.predicted = lt1; actual = lm1; weight = 44000.0 };
      { Stats.predicted = 0.12; actual = 0.80; weight = 6000.0 };
    ]
  in
  checkf 5e-3 "Fig 5: Sd.LP = 0.319 by the formula" 0.3193
    (Stats.weighted_sd samples)

let test_fig5_loopback_products_from_regions () =
  (* The LP inputs above are products of chained branch probabilities;
     check the region propagation produces exactly those products for a
     two-block loop (entry -T-> latch -T-> entry). *)
  let region =
    mk_region ~kind:Region.Loop 2
      ~edges:[ { Region.src = 0; dst = 1; role = Region.Taken } ]
      ~back_edges:[ { Region.src = 1; dst = 0; role = Region.Taken } ]
  in
  let inip = function 0 -> Some 0.977 | 1 -> Some 0.88 | _ -> None in
  let avep = function 0 -> Some 0.90 | 1 -> Some 0.70 | _ -> None in
  checkf 1e-9 "INIP loop-back" (0.977 *. 0.88)
    (Region_prob.loopback_probability (Region.layout region) ~prob:inip);
  checkf 1e-9 "AVEP loop-back" (0.90 *. 0.70)
    (Region_prob.loopback_probability (Region.layout region) ~prob:avep)

(* ---- §2.1: the statistical interpretation of Sd.BP ------------------ *)

let test_sd_interpretation () =
  (* "When Sd.BP(T) is small, e.g. around 0.1 ... the majority of
     predicted branch probabilities are within 10%": a profile whose
     every prediction is off by exactly 0.1 has Sd.BP = 0.1. *)
  let samples =
    List.init 10 (fun i ->
        {
          Stats.predicted = (float_of_int i /. 20.0) +. 0.1;
          actual = float_of_int i /. 20.0;
          weight = float_of_int (1 + i);
        })
  in
  checkf 1e-9 "uniform 0.1 deviation" 0.1 (Stats.weighted_sd samples)

let suite =
  [
    ("fig 6 completion probability", `Quick, test_fig6_completion);
    ("fig 7 loop-back probability", `Quick, test_fig7_loopback);
    ("fig 5 Sd.BP", `Quick, test_fig5_sd_bp);
    ("fig 5 Sd.CP", `Quick, test_fig5_sd_cp);
    ("fig 5 Sd.LP", `Quick, test_fig5_sd_lp);
    ("fig 5 loop-back products", `Quick, test_fig5_loopback_products_from_regions);
    ("Sd interpretation", `Quick, test_sd_interpretation);
  ]
