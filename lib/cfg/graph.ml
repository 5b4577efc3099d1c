type t = {
  succs : (int, int list ref) Hashtbl.t;
  preds : (int, int list ref) Hashtbl.t;
  mutable nodes_rev : int list;
}

let create () =
  { succs = Hashtbl.create 16; preds = Hashtbl.create 16; nodes_rev = [] }

let mem_node t n = Hashtbl.mem t.succs n

let add_node t n =
  if not (mem_node t n) then begin
    Hashtbl.replace t.succs n (ref []);
    Hashtbl.replace t.preds n (ref []);
    t.nodes_rev <- n :: t.nodes_rev
  end

let adjacency table n = match Hashtbl.find_opt table n with
  | Some l -> !l
  | None -> []

let mem_edge t a b = List.mem b (adjacency t.succs a)

let add_edge t a b =
  add_node t a;
  add_node t b;
  if not (mem_edge t a b) then begin
    let sa = Hashtbl.find t.succs a and pb = Hashtbl.find t.preds b in
    sa := b :: !sa;
    pb := a :: !pb
  end

let of_edges edges =
  let t = create () in
  List.iter (fun (a, b) -> add_edge t a b) edges;
  t

let succs t n = List.rev (adjacency t.succs n)
let preds t n = List.rev (adjacency t.preds n)
let nodes t = List.rev t.nodes_rev
