module Snapshot = Tpdbt_dbt.Snapshot
module Block_map = Tpdbt_dbt.Block_map
module Engine = Tpdbt_dbt.Engine

let series engine =
  let rec go acc =
    let result = Engine.run engine in
    match result.Engine.error with
    | Some (Tpdbt_dbt.Error.Suspended { deadline = false; _ }) ->
        go ((result.Engine.steps, result.Engine.snapshot) :: acc)
    | Some _ | None -> (result, List.rev acc)
  in
  go []

type window = {
  start_steps : int;
  end_steps : int;
  use : int array;
  taken : int array;
}

let windows series =
  match series with
  | [] -> []
  | (_, first) :: _ ->
      let n = Array.length first.Snapshot.use in
      let rec go prev_steps prev_use prev_taken acc = function
        | [] -> List.rev acc
        | (steps, snap) :: rest ->
            if steps <= prev_steps then
              invalid_arg "Phases.windows: steps not strictly increasing";
            if Array.length snap.Snapshot.use <> n then
              invalid_arg "Phases.windows: block count mismatch";
            let use = Array.init n (fun i -> snap.Snapshot.use.(i) - prev_use.(i)) in
            let taken =
              Array.init n (fun i -> snap.Snapshot.taken.(i) - prev_taken.(i))
            in
            let w = { start_steps = prev_steps; end_steps = steps; use; taken } in
            go steps snap.Snapshot.use snap.Snapshot.taken (w :: acc) rest
      in
      go 0 (Array.make n 0) (Array.make n 0) [] series

let window_branch_prob w block =
  if block < 0 || block >= Array.length w.use || w.use.(block) <= 0 then None
  else Some (float_of_int w.taken.(block) /. float_of_int w.use.(block))

let distance bmap a b =
  let n = min (Array.length a.use) (Array.length b.use) in
  let num = ref 0.0 and den = ref 0.0 in
  for block = 0 to n - 1 do
    if Block_map.is_cond bmap block then
      match (window_branch_prob a block, window_branch_prob b block) with
      | Some pa, Some pb ->
          let weight = float_of_int (a.use.(block) + b.use.(block)) in
          num := !num +. (abs_float (pa -. pb) *. weight);
          den := !den +. weight
      | (None, _ | _, None) -> ()
  done;
  if !den <= 0.0 then 0.0 else !num /. !den

let max_shift ?(min_executions = 16) bmap a b =
  let n = min (Array.length a.use) (Array.length b.use) in
  let worst = ref 0.0 in
  for block = 0 to n - 1 do
    if
      Block_map.is_cond bmap block
      && a.use.(block) >= min_executions
      && b.use.(block) >= min_executions
    then
      match (window_branch_prob a block, window_branch_prob b block) with
      | Some pa, Some pb -> worst := max !worst (abs_float (pa -. pb))
      | (None, _ | _, None) -> ()
  done;
  !worst

type change_point = { steps : int; distance : float; shift : float }

let change_points ?(threshold = 0.1) ?(shift_threshold = 0.3) bmap series =
  let ws = windows series in
  let rec scan acc = function
    | a :: (b :: _ as rest) ->
        let d = distance bmap a b in
        let s = max_shift bmap a b in
        let acc =
          if d > threshold || s > shift_threshold then
            { steps = b.start_steps; distance = d; shift = s } :: acc
          else acc
        in
        scan acc rest
    | [ _ ] | [] -> List.rev acc
  in
  scan [] ws
