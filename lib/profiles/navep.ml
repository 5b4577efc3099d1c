module Snapshot = Tpdbt_dbt.Snapshot
module Region = Tpdbt_dbt.Region
module Block_map = Tpdbt_dbt.Block_map
module Markov = Tpdbt_numerics.Markov

type location = In_region of { region : int; slot : int } | Standalone
type copy = { node : int; block : int; location : location }

(* Every table is an array indexed by node, block or region position.
   A region's copies are consecutive nodes, so its slot [s] is node
   [first_node.(r) + s]. *)
type t = {
  copies : copy array;
  freqs : float array;
  regions : Region.t array;  (* INIP's regions, in formation order *)
  layouts : Region.layout array;  (* region position -> its layout *)
  first_node : int array;  (* region position -> node of its slot 0 *)
  region_of : int array;  (* node -> region position, -1 if standalone *)
  standalone : int array;  (* block -> standalone node, -1 if none *)
  block_copies : int array array;  (* block -> its copies' nodes *)
  flow : Markov.flow;
  known : float option array;
  fallback : bool;
}

let role_index = function
  | Region.Taken -> 0
  | Region.Not_taken -> 1
  | Region.Always -> 2

(* CFG out-edges of a block with AVEP probabilities, as calls
   [f role successor probability]. *)
let iter_out_flow avep block f =
  let bmap = avep.Snapshot.block_map in
  match (Block_map.block bmap block).Block_map.terminator with
  | Block_map.Cond { taken; fallthrough } ->
      let p =
        match Snapshot.branch_prob avep block with Some p -> p | None -> 0.5
      in
      f Region.Taken taken p;
      f Region.Not_taken fallthrough (1.0 -. p)
  | Block_map.Goto dst | Block_map.Fallthrough dst -> f Region.Always dst 1.0
  | Block_map.Call_to { callee; retsite = _ } -> f Region.Always callee 1.0
  | Block_map.Return | Block_map.Stop -> ()

(* Growable edge list: (src, dst, probability) in the order added. *)
type edges = {
  mutable count : int;
  mutable esrc : int array;
  mutable edst : int array;
  mutable eprob : float array;
}

let push edges src dst p =
  let k = edges.count in
  if k = Array.length edges.esrc then begin
    let cap = max 16 (2 * k) in
    let extend a fill = Array.append a (Array.make (cap - k) fill) in
    edges.esrc <- extend edges.esrc 0;
    edges.edst <- extend edges.edst 0;
    edges.eprob <- extend edges.eprob 0.0
  end;
  edges.esrc.(k) <- src;
  edges.edst.(k) <- dst;
  edges.eprob.(k) <- p;
  edges.count <- k + 1

(* Each node's in-edges, one per source, with the probabilities of a
   source's parallel edges summed in the order they were added.  Edges
   are added copy by copy in node order, so a node's in-edges arrive
   with non-decreasing sources: parallel edges are adjacent, and the
   first-arrival order is the predecessor order a graph would record. *)
let in_edges nodes edges =
  let first = Array.make (nodes + 1) 0 in
  for k = 0 to edges.count - 1 do
    let d = edges.edst.(k) in
    first.(d + 1) <- first.(d + 1) + 1
  done;
  for node = 0 to nodes - 1 do
    first.(node + 1) <- first.(node + 1) + first.(node)
  done;
  let fill = Array.sub first 0 nodes in
  let src = Array.make edges.count 0 and prob = Array.make edges.count 0.0 in
  for k = 0 to edges.count - 1 do
    let d = edges.edst.(k) in
    src.(fill.(d)) <- edges.esrc.(k);
    prob.(fill.(d)) <- edges.eprob.(k);
    fill.(d) <- fill.(d) + 1
  done;
  (* Merge the parallel edges in place. *)
  let merged = Array.make (nodes + 1) 0 in
  let out = ref 0 in
  for node = 0 to nodes - 1 do
    merged.(node) <- !out;
    for k = first.(node) to first.(node + 1) - 1 do
      if !out > merged.(node) && src.(!out - 1) = src.(k) then
        prob.(!out - 1) <- prob.(!out - 1) +. prob.(k)
      else begin
        src.(!out) <- src.(k);
        prob.(!out) <- 0.0 +. prob.(k);
        incr out
      end
    done
  done;
  merged.(nodes) <- !out;
  {
    Markov.first = merged;
    src = Array.sub src 0 !out;
    prob = Array.sub prob 0 !out;
  }

let build ~inip ~avep =
  let nblocks = Block_map.block_count inip.Snapshot.block_map in
  let regions = Array.of_list inip.Snapshot.regions in
  let layouts = Array.map Region.layout regions in
  (* 1. Enumerate copies: each region's slots in formation order, then
     every block outside all regions. *)
  let in_region = Array.make nblocks false in
  Array.iter
    (fun r -> Array.iter (fun b -> in_region.(b) <- true) r.Region.slots)
    regions;
  let first_node = Array.make (Array.length regions) 0 in
  let copies_rev = ref [] and next = ref 0 in
  let add block location =
    copies_rev := { node = !next; block; location } :: !copies_rev;
    incr next
  in
  Array.iteri
    (fun ri r ->
      first_node.(ri) <- !next;
      Array.iteri
        (fun slot block -> add block (In_region { region = r.Region.id; slot }))
        r.Region.slots)
    regions;
  let region_copies = !next in
  let standalone = Array.make nblocks (-1) in
  for block = 0 to nblocks - 1 do
    if not in_region.(block) then begin
      standalone.(block) <- !next;
      add block Standalone
    end
  done;
  let copies = Array.of_list (List.rev !copies_rev) in
  let nodes = Array.length copies in
  let region_of = Array.make nodes (-1) in
  Array.iteri
    (fun ri r ->
      Array.fill region_of first_node.(ri) (Region.slot_count r) ri)
    regions;
  let ncopies = Array.make nblocks 0 in
  Array.iter (fun c -> ncopies.(c.block) <- ncopies.(c.block) + 1) copies;
  let block_copies = Array.map (fun k -> Array.make k 0) ncopies in
  Array.fill ncopies 0 nblocks 0;
  Array.iter
    (fun c ->
      block_copies.(c.block).(ncopies.(c.block)) <- c.node;
      ncopies.(c.block) <- ncopies.(c.block) + 1)
    copies;
  let is_entry node =
    node < region_copies && node = first_node.(region_of.(node))
  in
  (* 2. The region's own edge for each (copy, role): the layout's
     successor of the slot for that role, as a node. *)
  let internal = Array.make (3 * region_copies) (-1) in
  Array.iteri
    (fun ri l ->
      let base = first_node.(ri) in
      let record role dsts =
        Array.iteri
          (fun slot dst ->
            if dst >= 0 then
              internal.((3 * (base + slot)) + role_index role) <- base + dst)
          dsts
      in
      record Region.Taken l.Region.dst_taken;
      record Region.Not_taken l.Region.dst_not_taken;
      record Region.Always l.Region.dst_always)
    layouts;
  (* 3. The NAVEP flow edges, copy by copy: along the region's edge of
     the same role if there is one, otherwise to the successor block's
     entry copies (slot-0 region copies, or its standalone copy), or,
     when it only exists as non-entry region copies, split equally
     between all of them (documented approximation). *)
  let edges =
    { count = 0; esrc = [||]; edst = [||]; eprob = [||] }
  in
  let add_flow src dst p = if p > 0.0 then push edges src dst p in
  let route_external src succ p =
    if succ >= 0 && succ < nblocks then begin
      let targets = block_copies.(succ) in
      let entries =
        Array.fold_left (fun k n -> if is_entry n then k + 1 else k) 0 targets
      in
      let k = if entries > 0 then entries else Array.length targets in
      let share = p /. float_of_int k in
      Array.iter
        (fun n -> if entries = 0 || is_entry n then add_flow src n share)
        targets
    end
  in
  Array.iter
    (fun c ->
      iter_out_flow avep c.block (fun role succ p ->
          let dst =
            if c.node < region_copies then
              internal.((3 * c.node) + role_index role)
            else -1
          in
          if dst >= 0 then add_flow c.node dst p
          else route_external c.node succ p))
    copies;
  let flow = in_edges nodes edges in
  (* 4. Known constants: blocks with a single copy keep their AVEP
     frequency. *)
  let known =
    Array.map
      (fun c ->
        if Array.length block_copies.(c.block) = 1 then
          Some (Snapshot.block_freq avep c.block)
        else None)
      copies
  in
  let freqs, fallback =
    match Markov.solve flow ~known with
    | Ok solved -> (Array.map (fun f -> max 0.0 f) solved, false)
    | Error _ ->
        ( Array.map
            (fun c ->
              Snapshot.block_freq avep c.block
              /. float_of_int (Array.length block_copies.(c.block)))
            copies,
          true )
  in
  (* 5. Renormalise the copies of each duplicated block so they sum to
     the block's AVEP frequency: the solver fixes the split ratios, AVEP
     fixes the total (paper §3.1 invariant). *)
  Array.iteri
    (fun block cs ->
      if Array.length cs >= 2 then begin
        let total = Array.fold_left (fun acc n -> acc +. freqs.(n)) 0.0 cs in
        let target = Snapshot.block_freq avep block in
        if total > 1e-9 then
          Array.iter (fun n -> freqs.(n) <- freqs.(n) *. target /. total) cs
        else begin
          let k = float_of_int (Array.length cs) in
          Array.iter (fun n -> freqs.(n) <- target /. k) cs
        end
      end)
    block_copies;
  {
    copies;
    freqs;
    regions;
    layouts;
    first_node;
    region_of;
    standalone;
    block_copies;
    flow;
    known;
    fallback;
  }

let copies t = Array.to_list t.copies

let copies_of_block t block =
  if block < 0 || block >= Array.length t.block_copies then []
  else Array.to_list (Array.map (fun n -> t.copies.(n)) t.block_copies.(block))

let freq t node =
  if node < 0 || node >= Array.length t.freqs then 0.0 else t.freqs.(node)

let region_of_node t node =
  if node < 0 || node >= Array.length t.region_of || t.region_of.(node) < 0
  then None
  else Some t.regions.(t.region_of.(node))

let node_of_slot t ~region ~slot =
  let rec find ri =
    if ri = Array.length t.regions then None
    else if t.regions.(ri).Region.id <> region then find (ri + 1)
    else if slot < 0 || slot >= Region.slot_count t.regions.(ri) then None
    else Some (t.first_node.(ri) + slot)
  in
  find 0

let node_of_standalone t block =
  if block < 0 || block >= Array.length t.standalone || t.standalone.(block) < 0
  then None
  else Some t.standalone.(block)

let region_layouts t =
  Array.to_list (Array.map2 (fun r l -> (r, l)) t.regions t.layouts)

let used_fallback t = t.fallback
let system t = Markov.system t.flow ~known:t.known

let total_block_freq t block =
  if block < 0 || block >= Array.length t.block_copies then 0.0
  else
    Array.fold_left (fun acc n -> acc +. t.freqs.(n)) 0.0 t.block_copies.(block)
