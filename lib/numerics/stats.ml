type sums = { count : int; weight : float; squares : float; mismatched : float }

let empty = { count = 0; weight = 0.0; squares = 0.0; mismatched = 0.0 }

let add s ~predicted ~actual ~weight ~mismatched =
  let d = predicted -. actual in
  {
    count = s.count + 1;
    weight = s.weight +. weight;
    squares = s.squares +. (d *. d *. weight);
    mismatched = (if mismatched then s.mismatched +. weight else s.mismatched);
  }

let count s = s.count

let sd s = if s.weight <= 0.0 then 0.0 else sqrt (s.squares /. s.weight)

let mismatch_rate s =
  if s.weight <= 0.0 then 0.0 else s.mismatched /. s.weight

let mean = function
  | [] -> None
  | l -> Some (List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l))
