type role = Taken | Not_taken | Always
type edge = { src : int; dst : int; role : role }
type kind = Trace | Loop

type t = {
  id : int;
  kind : kind;
  slots : int array;
  edges : edge list;
  back_edges : edge list;
  frozen_use : int array;
  frozen_taken : int array;
}

type pred = { from : int; roles : role list }

type layout = {
  dst_taken : int array;
  dst_not_taken : int array;
  dst_always : int array;
  has_succ : bool array;
  has_back : bool array;
  preds : pred list array;
  back_preds : pred list;
  tail : int;
  order : int array;
}

let entry_block r = r.slots.(0)
let slot_count r = Array.length r.slots

let slots_of_block r block =
  let acc = ref [] in
  Array.iteri (fun slot b -> if b = block then acc := slot :: !acc) r.slots;
  List.rev !acc

let frozen_branch_prob r slot =
  let use = r.frozen_use.(slot) in
  if use <= 0 then None
  else Some (float_of_int r.frozen_taken.(slot) /. float_of_int use)

(* The derivation takes time linear in the region's size, whatever a
   damaged file puts in it, and allocates little beyond the tables it
   returns: the engine runs it at every region commit, under the CI gate
   on allocation per guest instruction.  Hence the edge-list walks
   below are top-level functions taking every table they touch, not
   closures. *)

let rec in_range n = function
  | [] -> true
  | e :: rest ->
      e.src >= 0 && e.src < n && e.dst >= 0 && e.dst < n && in_range n rest

let rec mark_src marks = function
  | [] -> ()
  | e :: rest ->
      marks.(e.src) <- true;
      mark_src marks rest

let rec count_src counts = function
  | [] -> ()
  | e :: rest ->
      counts.(e.src) <- counts.(e.src) + 1;
      count_src counts rest

(* [counts.(d + 1)] counts the edges into slot [d]. *)
let rec count_dst counts = function
  | [] -> ()
  | e :: rest ->
      counts.(e.dst + 1) <- counts.(e.dst + 1) + 1;
      count_dst counts rest

(* The last slot, from [s] down, that no forward edge leaves; slot 0 at
   worst. *)
let rec last_sink outdeg s =
  if s > 0 && outdeg.(s) > 0 then last_sink outdeg (s - 1) else s

(* The first target per (source, role), over forward then back edges. *)
let rec mark_first taken not_taken always = function
  | [] -> ()
  | e :: rest ->
      let cell =
        match e.role with
        | Taken -> taken
        | Not_taken -> not_taken
        | Always -> always
      in
      if cell.(e.src) < 0 then cell.(e.src) <- e.dst;
      mark_first taken not_taken always rest

(* [place first into edges]: with [first.(d)] the index in [into] where
   the edges into slot [d] begin, store them there in edge order,
   leaving [first.(d)] where the next slot's begin. *)
let rec place first into = function
  | [] -> ()
  | e :: rest ->
      into.(first.(e.dst)) <- e;
      first.(e.dst) <- first.(e.dst) + 1;
      place first into rest

(* The forward edges grouped by target, in edge order: [first] has
   [n + 1] entries, and the edges into slot [d] are
   [into.(first.(d))] up to [into.(first.(d + 1) - 1)]. *)
let by_target n edges =
  let first = Array.make (n + 1) 0 in
  count_dst first edges;
  for d = 1 to n do
    first.(d) <- first.(d) + first.(d - 1)
  done;
  let into = Array.make first.(n) (List.hd edges) in
  place first into edges;
  for d = n downto 1 do
    first.(d) <- first.(d - 1)
  done;
  first.(0) <- 0;
  (first, into)

(* The distinct sources of [edges.(lo)] up to [edges.(hi - 1)], in the
   order of their first edge, each with its edges' roles in edge order.
   [roles] is indexed by slot and holds [] before and after. *)
let group roles edges lo hi =
  for i = hi - 1 downto lo do
    let e = edges.(i) in
    roles.(e.src) <- e.role :: roles.(e.src)
  done;
  let rev = ref [] in
  for i = lo to hi - 1 do
    let from = edges.(i).src in
    match roles.(from) with
    | [] -> ()
    | r ->
        rev := { from; roles = r } :: !rev;
        roles.(from) <- []
  done;
  List.rev !rev

(* A topological order of the forward edges, filled into [order] from
   the back: a slot is placed once every forward edge out of it leads
   to a placed slot ([outdeg] counts the edges not yet so).  Returns
   the number of slots placed, [n] unless the edges contain a cycle. *)
let place_sinks_first n first into outdeg order =
  let placed = ref 0 in
  for s = n - 1 downto 0 do
    if outdeg.(s) = 0 then begin
      order.(n - 1 - !placed) <- s;
      incr placed
    end
  done;
  let next = ref 0 in
  while !next < !placed do
    let v = order.(n - 1 - !next) in
    for i = first.(v) to first.(v + 1) - 1 do
      let u = into.(i).src in
      outdeg.(u) <- outdeg.(u) - 1;
      if outdeg.(u) = 0 then begin
        order.(n - 1 - !placed) <- u;
        incr placed
      end
    done;
    incr next
  done;
  !placed

(* Slot 0 has no forward edge in and every later slot has one. *)
let rec only_source first d =
  d = Array.length first - 1
  || (first.(d + 1) > first.(d)) = (d > 0) && only_source first (d + 1)

(* The checks run in the order region.mli lists their reasons. *)
let validate r =
  let n = Array.length r.slots in
  if n = 0 then Error "region has no slots"
  else if Array.length r.frozen_use <> n || Array.length r.frozen_taken <> n
  then Error "frozen counter arrays do not match slot count"
  else if not (in_range n r.edges && in_range n r.back_edges) then
    Error "edge slot out of range"
  else if List.exists (fun e -> e.dst <> 0) r.back_edges then
    Error "back edge not targeting slot 0"
  else if (r.kind = Loop) <> (r.back_edges <> []) then
    Error "kind/back-edge mismatch"
  else
    let first, into =
      if r.edges = [] then (Array.make (n + 1) 0, [||]) else by_target n r.edges
    in
    let outdeg = Array.make n 0 in
    count_src outdeg r.edges;
    let has_back = Array.make n false in
    mark_src has_back r.back_edges;
    let has_succ = Array.copy has_back in
    mark_src has_succ r.edges;
    let tail = last_sink outdeg (n - 1) in
    let order = Array.make n 0 in
    if place_sinks_first n first into outdeg order < n then
      Error "forward edges contain a cycle"
    else if not (only_source first 0) then
      (* Acyclic: every slot is reachable from a source, so from slot 0
         exactly when slot 0 is the only source. *)
      Error "not all slots reachable from entry"
    else begin
      let dst_taken = Array.make n (-1)
      and dst_not_taken = Array.make n (-1)
      and dst_always = Array.make n (-1) in
      mark_first dst_taken dst_not_taken dst_always r.edges;
      mark_first dst_taken dst_not_taken dst_always r.back_edges;
      let roles = Array.make n [] in
      let preds = Array.make n [] in
      for d = 0 to n - 1 do
        preds.(d) <- group roles into first.(d) first.(d + 1)
      done;
      let back = Array.of_list r.back_edges in
      Ok
        {
          dst_taken;
          dst_not_taken;
          dst_always;
          has_succ;
          has_back;
          preds;
          back_preds = group roles back 0 (Array.length back);
          tail;
          order;
        }
    end

let layout r =
  match validate r with
  | Ok l -> l
  | Error reason ->
      invalid_arg (Printf.sprintf "Region.layout: region %d: %s" r.id reason)

let pp_role ppf = function
  | Taken -> Format.pp_print_string ppf "T"
  | Not_taken -> Format.pp_print_string ppf "N"
  | Always -> Format.pp_print_string ppf "A"

let pp ppf r =
  let kind = match r.kind with Trace -> "trace" | Loop -> "loop" in
  Format.fprintf ppf "region %d (%s): slots" r.id kind;
  Array.iteri (fun slot b -> Format.fprintf ppf " %d:B%d" slot b) r.slots;
  Format.fprintf ppf "; edges";
  List.iter
    (fun e -> Format.fprintf ppf " %d-%a->%d" e.src pp_role e.role e.dst)
    (r.edges @ r.back_edges)
