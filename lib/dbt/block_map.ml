module Instr = Tpdbt_isa.Instr
module Program = Tpdbt_isa.Program

type terminator =
  | Cond of { taken : int; fallthrough : int }
  | Goto of int
  | Call_to of { callee : int; retsite : int }
  | Return
  | Stop
  | Fallthrough of int

type block = {
  id : int;
  start_pc : int;
  end_pc : int;
  size : int;
  terminator : terminator;
}

type t = {
  blocks : block array;
  id_of_pc : int array;  (** pc -> containing block id *)
  entry_block : int;
}

let leaders (p : Program.t) =
  let n = Array.length p.Program.code in
  let is_leader = Array.make n false in
  is_leader.(p.Program.entry) <- true;
  Array.iteri
    (fun pc instr ->
      match instr with
      | Instr.Br (_, _, _, t) ->
          is_leader.(t) <- true;
          if pc + 1 < n then is_leader.(pc + 1) <- true
      | Instr.Jmp t ->
          is_leader.(t) <- true;
          if pc + 1 < n then is_leader.(pc + 1) <- true
      | Instr.Call t ->
          is_leader.(t) <- true;
          if pc + 1 < n then is_leader.(pc + 1) <- true
      | Instr.Ret | Instr.Halt -> if pc + 1 < n then is_leader.(pc + 1) <- true
      | Instr.Movi _ | Instr.Mov _ | Instr.Binop _ | Instr.Binopi _
      | Instr.Load _ | Instr.Store _ | Instr.Rnd _ | Instr.Out _ | Instr.Nop
        ->
          ())
    p.Program.code;
  is_leader

let build (p : Program.t) =
  let n = Array.length p.Program.code in
  let is_leader = leaders p in
  (* Block start pcs in ascending order; instruction 0 starts a block even
     if nothing branches to it (it may be dead, which is harmless). *)
  is_leader.(0) <- true;
  let starts = ref [] in
  for pc = n - 1 downto 0 do
    if is_leader.(pc) then starts := pc :: !starts
  done;
  let starts = Array.of_list !starts in
  let nblocks = Array.length starts in
  let id_of_start = Hashtbl.create 64 in
  Array.iteri (fun id start -> Hashtbl.replace id_of_start start id) starts;
  let block_of_start start = Hashtbl.find id_of_start start in
  let blocks =
    Array.mapi
      (fun id start ->
        let next_start = if id + 1 < nblocks then starts.(id + 1) else n in
        (* The block runs up to the terminator or the instruction before
           the next leader, whichever comes first. *)
        let rec find_end pc =
          if pc >= next_start - 1 then next_start - 1
          else if Instr.is_terminator p.Program.code.(pc) then pc
          else find_end (pc + 1)
        in
        let end_pc = find_end start in
        let terminator =
          (match p.Program.code.(end_pc) with
          | (Instr.Br _ | Instr.Call _) when end_pc + 1 >= n ->
              invalid_arg
                "Block_map.build: branch/call at end of code needs a \
                 fall-through instruction"
          | _ -> ());
          match p.Program.code.(end_pc) with
          | Instr.Br (_, _, _, t) ->
              Cond
                {
                  taken = block_of_start t;
                  fallthrough = block_of_start (end_pc + 1);
                }
          | Instr.Jmp t -> Goto (block_of_start t)
          | Instr.Call t ->
              Call_to
                {
                  callee = block_of_start t;
                  retsite = block_of_start (end_pc + 1);
                }
          | Instr.Ret -> Return
          | Instr.Halt -> Stop
          | Instr.Movi _ | Instr.Mov _ | Instr.Binop _ | Instr.Binopi _
          | Instr.Load _ | Instr.Store _ | Instr.Rnd _ | Instr.Out _
          | Instr.Nop ->
              (* Cut by the next leader; falling off the end of the code
                 array stops the machine. *)
              if end_pc + 1 >= n then Stop
              else Fallthrough (block_of_start (end_pc + 1))
        in
        { id; start_pc = start; end_pc; size = end_pc - start + 1; terminator })
      starts
  in
  let id_of_pc = Array.make n 0 in
  Array.iter
    (fun b ->
      for pc = b.start_pc to b.end_pc do
        id_of_pc.(pc) <- b.id
      done)
    blocks;
  { blocks; id_of_pc; entry_block = block_of_start p.Program.entry }

(* The one program shape [build] rejects: a taken-or-not branch (or a
   call, whose return site is the next pc) as the very last instruction
   has no fall-through block to point at.  [Program.make] accepts such
   images — the interpreter handles them by halting off the end — so a
   decoded or generated program must be vetted here before engine
   construction, with the refusal as a typed error. *)
let build_result (p : Program.t) =
  let n = Array.length p.Program.code in
  match p.Program.code.(n - 1) with
  | Instr.Br _ | Instr.Call _ ->
      Error
        (Error.Invalid_program
           (Printf.sprintf
              "branch/call at end of code (pc %d) needs a fall-through \
               instruction"
              (n - 1)))
  | _ -> Ok (build p)

let of_blocks ~entry_block blocks =
  let arr = Array.of_list blocks in
  let n = Array.length arr in
  let ok = ref true in
  let reason = ref "" in
  let fail msg =
    ok := false;
    if !reason = "" then reason := msg
  in
  if n = 0 then fail "no blocks";
  Array.iteri
    (fun i b ->
      if b.id <> i then fail "ids not contiguous";
      if b.size <> b.end_pc - b.start_pc + 1 || b.size <= 0 then
        fail "bad block extent";
      if i > 0 && b.start_pc <> arr.(i - 1).end_pc + 1 then
        fail "blocks not contiguous in pc")
    arr;
  if n > 0 && arr.(0).start_pc <> 0 then fail "first block must start at 0";
  let names id =
    if id < 0 || id >= n then
      fail (Printf.sprintf "terminator names block %d outside [0,%d)" id n)
  in
  Array.iter
    (fun blk ->
      match blk.terminator with
      | Cond { taken = a; fallthrough = b }
      | Call_to { callee = a; retsite = b } ->
          names a;
          names b
      | Goto a | Fallthrough a -> names a
      | Return | Stop -> ())
    arr;
  if entry_block < 0 || entry_block >= n then fail "entry block out of range";
  if not !ok then Error ("Block_map.of_blocks: " ^ !reason)
  else begin
    let code_len = arr.(n - 1).end_pc + 1 in
    let id_of_pc = Array.make code_len 0 in
    Array.iter
      (fun b ->
        for pc = b.start_pc to b.end_pc do
          id_of_pc.(pc) <- b.id
        done)
      arr;
    Ok { blocks = arr; id_of_pc; entry_block }
  end

let block_count t = Array.length t.blocks

let block t id =
  if id < 0 || id >= Array.length t.blocks then
    invalid_arg (Printf.sprintf "Block_map.block: bad id %d" id)
  else t.blocks.(id)

let block_opt t id =
  if id < 0 || id >= Array.length t.blocks then None else Some t.blocks.(id)

let blocks t = Array.to_list t.blocks

let block_at t pc =
  if pc < 0 || pc >= Array.length t.id_of_pc then None
  else
    let id = t.id_of_pc.(pc) in
    if t.blocks.(id).start_pc = pc then Some id else None

(* Allocation-free [block_at] for the dispatch loop. *)
let id_at t pc =
  if pc < 0 || pc >= Array.length t.id_of_pc then -1
  else
    let id = t.id_of_pc.(pc) in
    if t.blocks.(id).start_pc = pc then id else -1

let block_containing t pc =
  if pc < 0 || pc >= Array.length t.id_of_pc then None
  else Some t.id_of_pc.(pc)

let successors t id =
  match (block t id).terminator with
  | Cond { taken; fallthrough } ->
      if taken = fallthrough then [ taken ] else [ taken; fallthrough ]
  | Goto b | Fallthrough b -> [ b ]
  | Call_to { callee; retsite = _ } -> [ callee ]
  | Return | Stop -> []

let entry_block t = t.entry_block

let pp_terminator ppf = function
  | Cond { taken; fallthrough } ->
      Format.fprintf ppf "cond(taken->B%d, fall->B%d)" taken fallthrough
  | Goto b -> Format.fprintf ppf "goto B%d" b
  | Call_to { callee; retsite } ->
      Format.fprintf ppf "call B%d (ret site B%d)" callee retsite
  | Return -> Format.pp_print_string ppf "return"
  | Stop -> Format.pp_print_string ppf "halt"
  | Fallthrough b -> Format.fprintf ppf "fallthrough B%d" b

let pp_block ppf b =
  Format.fprintf ppf "B%d [%d..%d] %a" b.id b.start_pc b.end_pc pp_terminator
    b.terminator
