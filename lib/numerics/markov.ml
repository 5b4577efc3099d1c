type flow = { first : int array; src : int array; prob : float array }
type system = {
  unknowns : int array;
  rows : Linear_solver.row array;
  rhs : float array;
}

let system flow ~known =
  let nodes = Array.length flow.first - 1 in
  let index = Array.make nodes (-1) in
  let count = ref 0 in
  for node = 0 to nodes - 1 do
    if Option.is_none known.(node) then begin
      index.(node) <- !count;
      incr count
    end
  done;
  let unknowns = Array.make !count 0 in
  Array.iteri (fun node i -> if i >= 0 then unknowns.(i) <- node) index;
  let rhs = Array.make !count 0.0 in
  (* Row i:  x_i - sum_{p unknown} prob(p,node_i) x_p
             = sum_{p known} freq(p) * prob(p,node_i),
     built in the order of the node's in-edges. *)
  let row i node =
    let lo = flow.first.(node) and hi = flow.first.(node + 1) in
    let cols = Array.make (hi - lo + 1) i in
    let vals = Array.make (hi - lo + 1) 1.0 in
    let len = ref 1 in
    for e = lo to hi - 1 do
      let p = flow.src.(e) and w = flow.prob.(e) in
      match known.(p) with
      | Some freq -> rhs.(i) <- rhs.(i) +. (freq *. w)
      | None ->
          let j = index.(p) in
          if j = i then vals.(0) <- vals.(0) +. (-.w)
          else begin
            cols.(!len) <- j;
            vals.(!len) <- 0.0 +. (-.w);
            incr len
          end
    done;
    {
      Linear_solver.cols = Array.sub cols 0 !len;
      vals = Array.sub vals 0 !len;
    }
  in
  let rows = Array.mapi row unknowns in
  { unknowns; rows; rhs }

let solve flow ~known =
  let sys = system flow ~known in
  let freqs = Array.map (function Some f -> f | None -> 0.0) known in
  if Array.length sys.unknowns = 0 then Ok freqs
  else
    match Linear_solver.sparse_gauss sys.rows sys.rhs with
    | Error _ as e -> e
    | Ok x ->
        Array.iteri (fun i node -> freqs.(node) <- x.(i)) sys.unknowns;
        Ok freqs
