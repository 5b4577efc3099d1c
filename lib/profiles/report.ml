module Snapshot = Tpdbt_dbt.Snapshot
module Region = Tpdbt_dbt.Region
module Block_map = Tpdbt_dbt.Block_map

let hottest_blocks ?(limit = 10) (snapshot : Snapshot.t) =
  let blocks =
    Snapshot.executed_blocks snapshot
    |> List.map (fun id ->
           (id, snapshot.Snapshot.use.(id), Snapshot.branch_prob snapshot id))
  in
  let sorted =
    List.sort (fun (_, a, _) (_, b, _) -> compare b a) blocks
  in
  List.filteri (fun i _ -> i < limit) sorted

let class_name = function
  | Region_prob.Low -> "low-trip (<10)"
  | Region_prob.Medium -> "medium-trip (10-50)"
  | Region_prob.High -> "high-trip (>50)"

let region_summary ?avep (snapshot : Snapshot.t) region =
  ignore snapshot;
  let buf = Buffer.create 256 in
  let members =
    Array.to_list region.Region.slots
    |> List.map (Printf.sprintf "B%d")
    |> String.concat " "
  in
  let frozen slot = Region.frozen_branch_prob region slot in
  let layout = Region.layout region in
  (match region.Region.kind with
  | Region.Trace ->
      let cp = Region_prob.completion_probability layout ~prob:frozen in
      Buffer.add_string buf
        (Printf.sprintf "trace region %d [%s]: completion probability %.4f"
           region.Region.id members cp);
      (match avep with
      | None -> ()
      | Some avep ->
          let avep_prob slot =
            Snapshot.branch_prob avep region.Region.slots.(slot)
          in
          let cm =
            Region_prob.completion_probability layout ~prob:avep_prob
          in
          Buffer.add_string buf
            (Printf.sprintf " (average profile: %.4f, |diff| %.4f)" cm
               (abs_float (cp -. cm))))
  | Region.Loop ->
      let lp = Region_prob.loopback_probability layout ~prob:frozen in
      Buffer.add_string buf
        (Printf.sprintf
           "loop region %d [%s]: loop-back probability %.4f, trip ~%.1f, %s"
           region.Region.id members lp
           (Region_prob.trip_count_of_loopback lp)
           (class_name (Region_prob.classify_loopback lp)));
      match avep with
      | None -> ()
      | Some avep ->
          let avep_prob slot =
            Snapshot.branch_prob avep region.Region.slots.(slot)
          in
          let lm = Region_prob.loopback_probability layout ~prob:avep_prob in
          let same =
            Region_prob.classify_loopback lp = Region_prob.classify_loopback lm
          in
          Buffer.add_string buf
            (Printf.sprintf " (average: %.4f, %s — class %s)" lm
               (class_name (Region_prob.classify_loopback lm))
               (if same then "match" else "MISMATCH")));
  Buffer.contents buf

let render ?avep (snapshot : Snapshot.t) =
  let buf = Buffer.create 1024 in
  let bmap = snapshot.Snapshot.block_map in
  let executed = Snapshot.executed_blocks snapshot in
  Buffer.add_string buf
    (Printf.sprintf
       "profile: %d/%d blocks executed, %d profiling operations, %d regions\n"
       (List.length executed)
       (Block_map.block_count bmap)
       (Snapshot.profiling_ops snapshot)
       (List.length snapshot.Snapshot.regions));
  Buffer.add_string buf "\nhottest blocks:\n";
  List.iter
    (fun (id, use, prob) ->
      let b = Block_map.block bmap id in
      Buffer.add_string buf
        (Printf.sprintf "  B%-4d pc %4d..%-4d use %10d%s\n" id
           b.Block_map.start_pc b.Block_map.end_pc use
           (match prob with
           | Some p -> Printf.sprintf "  taken %.4f" p
           | None -> "")))
    (hottest_blocks snapshot);
  if snapshot.Snapshot.regions <> [] then begin
    Buffer.add_string buf "\nregions:\n";
    List.iter
      (fun region ->
        Buffer.add_string buf "  ";
        Buffer.add_string buf (region_summary ?avep snapshot region);
        Buffer.add_char buf '\n')
      snapshot.Snapshot.regions
  end;
  Buffer.contents buf
