(* Order statistics over float samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between the closest ranks (numpy's default);
   [nan] on an empty sample. *)
let quantile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = p *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor pos) in
    let hi = min (lo + 1) (n - 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

let sum xs = List.fold_left ( +. ) 0.0 xs

let mean = function
  | [] -> nan
  | xs -> sum xs /. float_of_int (List.length xs)

(* Ranks starting at 1; tied values share the average of their ranks. *)
let ranks values =
  let n = Array.length values in
  let order = Array.init n Fun.id in
  Array.sort (fun i j -> Float.compare values.(i) values.(j)) order;
  let r = Array.make n 0.0 in
  let i = ref 0 in
  while !i < n do
    let j = ref !i in
    while !j + 1 < n && values.(order.(!j + 1)) = values.(order.(!i)) do
      incr j
    done;
    let avg = float_of_int (!i + !j + 2) /. 2.0 in
    for k = !i to !j do
      r.(order.(k)) <- avg
    done;
    i := !j + 1
  done;
  r

(* Spearman's rank correlation of [(x, y)] pairs: Pearson's r of the
   ranks.  [nan] with fewer than two pairs or a constant side. *)
let spearman pairs =
  let xs = ranks (Array.of_list (List.map fst pairs))
  and ys = ranks (Array.of_list (List.map snd pairs)) in
  let n = float_of_int (Array.length xs) in
  if n < 2.0 then nan
  else
    let mx = Array.fold_left ( +. ) 0.0 xs /. n
    and my = Array.fold_left ( +. ) 0.0 ys /. n in
    let sxy = ref 0.0 and sxx = ref 0.0 and syy = ref 0.0 in
    Array.iteri
      (fun i x ->
        let dx = x -. mx and dy = ys.(i) -. my in
        sxy := !sxy +. (dx *. dy);
        sxx := !sxx +. (dx *. dx);
        syy := !syy +. (dy *. dy))
      xs;
    if !sxx = 0.0 || !syy = 0.0 then nan else !sxy /. sqrt (!sxx *. !syy)
