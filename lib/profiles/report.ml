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

let trip_class = Metrics.range Metrics.Lp

let class_name lp =
  match trip_class lp with
  | 0 -> "low-trip (<10)"
  | 1 -> "medium-trip (10-50)"
  | _ -> "high-trip (>50)"

let region_summary (row : Metrics.row) =
  let region, p =
    match (row.Metrics.kind, row.Metrics.region, row.Metrics.inip) with
    | (Metrics.Cp | Metrics.Lp), Some region, Some p -> (region, p)
    | Metrics.Bp, _, _ | _, None, _ | _, _, None ->
        invalid_arg "Report.region_summary: not a region's CP or LP row"
  in
  let members =
    Array.to_list region.Region.slots
    |> List.map (Printf.sprintf "B%d")
    |> String.concat " "
  in
  let average f = Option.fold ~none:"" ~some:f row.Metrics.avep in
  match row.Metrics.kind with
  | Metrics.Cp ->
      Printf.sprintf "trace region %d [%s]: completion probability %.4f%s"
        region.Region.id members p
        (average (fun a ->
             Printf.sprintf " (average profile: %.4f, |diff| %.4f)" a
               (abs_float (p -. a))))
  | Metrics.Lp | Metrics.Bp ->
      Printf.sprintf
        "loop region %d [%s]: loop-back probability %.4f, trip ~%.1f, %s%s"
        region.Region.id members p
        (Metrics.trip_count_of_loopback p)
        (class_name p)
        (average (fun a ->
             Printf.sprintf " (average: %.4f, %s — class %s)" a
               (class_name a)
               (if trip_class p = trip_class a then "match" else "MISMATCH")))

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
    let rows =
      match avep with
      | None -> Metrics.region_rows snapshot
      | Some avep -> Metrics.rows ~inip:snapshot ~avep
    in
    List.iter
      (fun (row : Metrics.row) ->
        if row.Metrics.kind <> Metrics.Bp then begin
          Buffer.add_string buf "  ";
          Buffer.add_string buf (region_summary row);
          Buffer.add_char buf '\n'
        end)
      rows
  end;
  Buffer.contents buf
