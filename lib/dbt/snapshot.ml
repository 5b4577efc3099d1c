type t = {
  block_map : Block_map.t;
  use : int array;
  taken : int array;
  regions : Region.t list;
}

let branch_prob t block =
  if
    block < 0
    || block >= Array.length t.use
    || t.use.(block) <= 0
    || not (Block_map.is_cond t.block_map block)
  then None
  else Some (float_of_int t.taken.(block) /. float_of_int t.use.(block))

let block_freq t block =
  if block < 0 || block >= Array.length t.use then 0.0
  else float_of_int t.use.(block)

let profiling_ops t =
  let total = ref 0 in
  Array.iter (fun u -> total := !total + u) t.use;
  Array.iter (fun k -> total := !total + k) t.taken;
  !total

let executed_blocks t =
  let acc = ref [] in
  Array.iteri (fun id u -> if u > 0 then acc := id :: !acc) t.use;
  List.rev !acc

let find_region t id = List.find_opt (fun r -> r.Region.id = id) t.regions
