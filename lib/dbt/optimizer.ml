module Instr = Tpdbt_isa.Instr

type block_result = {
  ops_before : int;
  ops_after : int;
  cycles : int;
  issue_span : int;
}

(* ------------------------------------------------------------------ *)
(* Constant propagation / folding                                      *)
(* ------------------------------------------------------------------ *)

let wrap32 v = ((v land 0xFFFFFFFF) lxor 0x80000000) - 0x80000000

let eval_const op a b =
  match op with
  | Instr.Add -> Some (wrap32 (a + b))
  | Instr.Sub -> Some (wrap32 (a - b))
  | Instr.Mul -> Some (wrap32 (a * b))
  | Instr.Div -> if b = 0 then None else Some (wrap32 (a / b))
  | Instr.Rem -> if b = 0 then None else Some (wrap32 (a mod b))
  | Instr.And -> Some (a land b)
  | Instr.Or -> Some (a lor b)
  | Instr.Xor -> Some (wrap32 (a lxor b))
  | Instr.Shl -> Some (wrap32 (a lsl (b land 31)))
  | Instr.Shr -> Some (a asr (b land 31))

let const_fold ops =
  let consts : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let subst operand =
    match operand with
    | Ir.Imm _ -> operand
    | Ir.Reg r -> (
        match Hashtbl.find_opt consts r with
        | Some v -> Ir.Imm v
        | None -> operand)
  in
  let kill r = Hashtbl.remove consts r in
  List.map
    (fun op ->
      match op with
      | Ir.Move (dst, src) -> (
          let src = subst src in
          match src with
          | Ir.Imm v ->
              Hashtbl.replace consts dst v;
              Ir.Move (dst, src)
          | Ir.Reg _ ->
              kill dst;
              Ir.Move (dst, src))
      | Ir.Arith (bop, dst, a, b) -> (
          let a = subst a and b = subst b in
          match (a, b) with
          | Ir.Imm va, Ir.Imm vb -> (
              match eval_const bop va vb with
              | Some v ->
                  Hashtbl.replace consts dst v;
                  Ir.Move (dst, Ir.Imm v)
              | None ->
                  kill dst;
                  Ir.Arith (bop, dst, a, b))
          | (Ir.Imm _ | Ir.Reg _), (Ir.Imm _ | Ir.Reg _) ->
              kill dst;
              Ir.Arith (bop, dst, a, b))
      | Ir.Load (dst, base, off) ->
          let base = subst base in
          kill dst;
          Ir.Load (dst, base, off)
      | Ir.Store (src, base, off) -> Ir.Store (subst src, subst base, off)
      | Ir.Rnd (dst, bound) ->
          kill dst;
          Ir.Rnd (dst, bound)
      | Ir.Out src -> Ir.Out (subst src)
      | Ir.Branch -> Ir.Branch)
    ops

(* ------------------------------------------------------------------ *)
(* Dead definition elimination                                         *)
(* ------------------------------------------------------------------ *)

let dead_def_elim ops =
  (* Backward scan.  [pending_overwrite] holds registers whose next
     access (looking backwards means: later in program order) is a
     redefinition with no use in between — a def of such a register is
     dead within the block. *)
  let pending = Hashtbl.create 8 in
  let keep_rev =
    List.fold_left
      (fun acc op ->
        let dead =
          (not (Ir.has_side_effect op))
          && (match Ir.defs op with
             | [ dst ] -> Hashtbl.mem pending dst
             | [] | _ :: _ :: _ -> false)
        in
        if dead then acc
        else begin
          List.iter (fun d -> Hashtbl.replace pending d ()) (Ir.defs op);
          List.iter (fun u -> Hashtbl.remove pending u) (Ir.uses op);
          op :: acc
        end)
      []
      (List.rev ops)
  in
  keep_rev

(* ------------------------------------------------------------------ *)
(* List scheduling                                                     *)
(* ------------------------------------------------------------------ *)

let issue_width = 2

(* Returns (finish, issue_span): [finish] includes trailing result
   latencies, [issue_span] is the cycle after the last issue. *)
let schedule_internal ops =
  let ops = Array.of_list ops in
  let n = Array.length ops in
  if n = 0 then (0, 0)
  else begin
    (* Dependence edges i -> j (i before j) with latency of i. *)
    let preds = Array.make n [] in
    let last_def = Hashtbl.create 8 in
    let last_uses = Hashtbl.create 8 in
    let last_mem = ref (-1) in
    let last_effect = ref (-1) in
    for j = 0 to n - 1 do
      let op = ops.(j) in
      let add_dep i lat = if i >= 0 && i <> j then preds.(j) <- (i, lat) :: preds.(j) in
      (* RAW: use after def. *)
      List.iter
        (fun u ->
          match Hashtbl.find_opt last_def u with
          | Some i -> add_dep i (Ir.latency ops.(i))
          | None -> ())
        (Ir.uses op);
      (* WAW and WAR: zero-latency ordering edges. *)
      List.iter
        (fun d ->
          (match Hashtbl.find_opt last_def d with
          | Some i -> add_dep i 1
          | None -> ());
          match Hashtbl.find_opt last_uses d with
          | Some users -> List.iter (fun i -> add_dep i 1) users
          | None -> ())
        (Ir.defs op);
      (* Memory ops stay ordered with each other; side effects too. *)
      if Ir.touches_memory op then begin
        add_dep !last_mem 1;
        last_mem := j
      end;
      if Ir.has_side_effect op then begin
        add_dep !last_effect 1;
        last_effect := j
      end;
      (* Branch must come last: depend on everything earlier. *)
      (match op with
      | Ir.Branch ->
          for i = 0 to j - 1 do
            add_dep i 1
          done
      | Ir.Arith _ | Ir.Move _ | Ir.Load _ | Ir.Store _ | Ir.Rnd _ | Ir.Out _
        ->
          ());
      List.iter
        (fun d -> Hashtbl.replace last_def d j)
        (Ir.defs op);
      List.iter
        (fun u ->
          let existing =
            match Hashtbl.find_opt last_uses u with Some l -> l | None -> []
          in
          Hashtbl.replace last_uses u (j :: existing))
        (Ir.uses op)
    done;
    (* earliest.(j): first cycle op j may issue. *)
    let earliest = Array.make n 0 in
    for j = 0 to n - 1 do
      List.iter
        (fun (i, lat) -> earliest.(j) <- max earliest.(j) (earliest.(i) + lat))
        preds.(j)
    done;
    (* Greedy issue respecting width: ops in dependence-consistent order
       (original order is one), each placed at the first cycle >= its
       earliest with a free issue slot; track per-cycle usage. *)
    let usage = Hashtbl.create 16 in
    let finish = ref 0 in
    let issue_span = ref 0 in
    let place = Array.make n 0 in
    for j = 0 to n - 1 do
      (* Recompute the dependence-ready time using actual placements. *)
      let ready =
        List.fold_left
          (fun acc (i, lat) -> max acc (place.(i) + lat))
          0 preds.(j)
      in
      let rec find cycle =
        let used =
          match Hashtbl.find_opt usage cycle with Some u -> u | None -> 0
        in
        if used < issue_width then cycle else find (cycle + 1)
      in
      let cycle = find ready in
      let used =
        match Hashtbl.find_opt usage cycle with Some u -> u | None -> 0
      in
      Hashtbl.replace usage cycle (used + 1);
      place.(j) <- cycle;
      issue_span := max !issue_span (cycle + 1);
      finish := max !finish (cycle + Ir.latency ops.(j))
    done;
    (!finish, !issue_span)
  end

let schedule_cycles ops = fst (schedule_internal ops)

let optimize_block instrs =
  let lowered = Ir.lower_block instrs in
  let ops_before = List.length lowered in
  let optimized = dead_def_elim (const_fold lowered) in
  let ops_after = List.length optimized in
  let cycles, issue_span = schedule_internal optimized in
  { ops_before; ops_after; cycles; issue_span }

(* A slot with a region-internal successor pays only its issue span when
   the region is trace scheduled: the latency drain of its last results
   is hidden by the successor's independent instructions.  Every other
   slot (the trace tail, side-exit-only slots, and any slot of a region
   scheduled block by block) pays the full schedule. *)
let slot_cycles r ~pipelined ~has_succ =
  if pipelined && has_succ then r.issue_span else r.cycles
