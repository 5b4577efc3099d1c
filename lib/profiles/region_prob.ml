module Region = Tpdbt_dbt.Region

let edge_probability role ~branch_prob =
  let p = match branch_prob with Some p -> p | None -> 0.5 in
  match role with
  | Region.Taken -> p
  | Region.Not_taken -> 1.0 -. p
  | Region.Always -> 1.0

(* Propagate frequency 1 from slot 0 through the region's forward edges
   (plus, with [with_dummy], the back edges redirected to a dummy node
   [slot_count]) and return every node's frequency.  A node's inflow
   sums its distinct predecessors in the order their first edge
   appears, each weighted by its edges' probabilities summed in edge
   order: the order a forward propagation over the graph of these
   edges sums in (the tests' reference, [Graph_ref.propagate_acyclic]).
   Slots are visited in the layout's topological order, so every
   predecessor is final when it is read. *)
let propagate (layout : Region.layout) ~prob ~with_dummy =
  let nslots = Array.length layout.order in
  let freq = Array.make (nslots + 1) 0.0 in
  let inflow preds =
    List.fold_left
      (fun acc { Region.from; roles } ->
        let branch_prob = prob from in
        let w =
          List.fold_left
            (fun w role -> w +. edge_probability role ~branch_prob)
            0.0 roles
        in
        acc +. (freq.(from) *. w))
      0.0 preds
  in
  Array.iter
    (fun slot ->
      freq.(slot) <- (if slot = 0 then 1.0 else inflow layout.preds.(slot)))
    layout.order;
  if with_dummy then freq.(nslots) <- inflow layout.back_preds;
  freq

let completion_probability (layout : Region.layout) ~prob =
  (propagate layout ~prob ~with_dummy:false).(layout.tail)

let loopback_probability (layout : Region.layout) ~prob =
  if layout.back_preds = [] then 0.0
  else (propagate layout ~prob ~with_dummy:true).(Array.length layout.order)
