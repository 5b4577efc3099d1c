module Instr = Tpdbt_isa.Instr
module Program = Tpdbt_isa.Program
module Reg = Tpdbt_isa.Reg

type trap =
  | Division_by_zero of int
  | Memory_fault of { pc : int; addr : int }
  | Return_without_call of int
  | Call_stack_overflow of int
  | Illegal_instruction of int
  | Branch_out_of_range of { pc : int; target : int }
  | Invalid_rnd_bound of { pc : int; bound : int }

type event =
  | Stepped
  | Branched of { taken : bool }
  | Jumped
  | Called
  | Returned
  | Halted

(* Int event codes returned by [step_code].  Profiling-mode
   interpretation is the phase the paper argues must be nearly free, so
   the per-step report to the engine is an immediate int, not an
   allocated [event] variant.  Codes 0..5 are "still running" (the
   engine tests [c <= ev_returned]); 6..7 are terminal. *)
let ev_stepped = 0
let ev_branch_not_taken = 1
let ev_branch_taken = 2
let ev_jumped = 3
let ev_called = 4
let ev_returned = 5
let ev_halted = 6
let ev_trapped = 7

(* Flat opcode tags for the predecoded dispatch table.  Dense 0..36 so
   the match in [step_code] compiles to a jump table. *)
let op_movi = 0
let op_mov = 1
let op_load = 2
let op_store = 3
let op_jmp = 4
let op_call = 5
let op_ret = 6
let op_rnd = 7
let op_out = 8
let op_halt = 9
let op_nop = 10
(* 11..20: Binop Add..Shr · 21..30: Binopi Add..Shr · 31..36: Br Eq..Gt *)

let binop_tag = function
  | Instr.Add -> 11
  | Instr.Sub -> 12
  | Instr.Mul -> 13
  | Instr.Div -> 14
  | Instr.Rem -> 15
  | Instr.And -> 16
  | Instr.Or -> 17
  | Instr.Xor -> 18
  | Instr.Shl -> 19
  | Instr.Shr -> 20

let cond_tag = function
  | Instr.Eq -> 31
  | Instr.Ne -> 32
  | Instr.Lt -> 33
  | Instr.Ge -> 34
  | Instr.Le -> 35
  | Instr.Gt -> 36

type t = {
  prog : Program.t;
  code : Instr.t array;
  code_len : int;
  (* Predecoded instruction stream: parallel int arrays indexed by pc.
     [dec_a]/[dec_b]/[dec_c] are register indices, [dec_imm] the
     immediate/offset/target.  Movi immediates are pre-wrapped to 32
     bits at decode time (wrap32 is idempotent). *)
  dec_op : int array;
  dec_a : int array;
  dec_b : int array;
  dec_c : int array;
  dec_imm : int array;
  regs : int array;
  mutable memory : int array;
      (* materialised prefix of data memory: words at or past its length
         are zero and have never been stored to *)
  mem_len : int;  (* architectural size, what [Memory_fault] checks use *)
  mutable pc : int;
  ret_stack : int array;  (* return addresses, [0 .. call_depth) live *)
  mutable call_depth : int;
  prng : Prng.t;
  mutable out_buf : int array;  (* grow-by-doubling output log *)
  mutable out_len : int;
  mutable steps : int;
  mutable halted : bool;
  mutable trap : trap option;
  mutable has_poison : bool;
  poisoned : (int, unit) Hashtbl.t;
      (* pcs whose code word has been corrupted (fault injection);
         executing one raises [Illegal_instruction] *)
}

let max_call_depth = 4096

(* Normalise to signed 32-bit two's complement. *)
let wrap32 v = ((v land 0xFFFFFFFF) lxor 0x80000000) - 0x80000000

let decode code =
  let n = Array.length code in
  let dec_op = Array.make n 0
  and dec_a = Array.make n 0
  and dec_b = Array.make n 0
  and dec_c = Array.make n 0
  and dec_imm = Array.make n 0 in
  for pc = 0 to n - 1 do
    (match code.(pc) with
    | Instr.Movi (rd, imm) ->
        dec_op.(pc) <- op_movi;
        dec_a.(pc) <- Reg.to_int rd;
        dec_imm.(pc) <- wrap32 imm
    | Instr.Mov (rd, rs) ->
        dec_op.(pc) <- op_mov;
        dec_a.(pc) <- Reg.to_int rd;
        dec_b.(pc) <- Reg.to_int rs
    | Instr.Binop (op, rd, rs1, rs2) ->
        dec_op.(pc) <- binop_tag op;
        dec_a.(pc) <- Reg.to_int rd;
        dec_b.(pc) <- Reg.to_int rs1;
        dec_c.(pc) <- Reg.to_int rs2
    | Instr.Binopi (op, rd, rs, imm) ->
        dec_op.(pc) <- binop_tag op + 10;
        dec_a.(pc) <- Reg.to_int rd;
        dec_b.(pc) <- Reg.to_int rs;
        dec_imm.(pc) <- imm
    | Instr.Load (rd, base, off) ->
        dec_op.(pc) <- op_load;
        dec_a.(pc) <- Reg.to_int rd;
        dec_b.(pc) <- Reg.to_int base;
        dec_imm.(pc) <- off
    | Instr.Store (rsrc, base, off) ->
        dec_op.(pc) <- op_store;
        dec_a.(pc) <- Reg.to_int rsrc;
        dec_b.(pc) <- Reg.to_int base;
        dec_imm.(pc) <- off
    | Instr.Br (c, rs1, rs2, target) ->
        dec_op.(pc) <- cond_tag c;
        dec_a.(pc) <- Reg.to_int rs1;
        dec_b.(pc) <- Reg.to_int rs2;
        dec_imm.(pc) <- target
    | Instr.Jmp target ->
        dec_op.(pc) <- op_jmp;
        dec_imm.(pc) <- target
    | Instr.Call target ->
        dec_op.(pc) <- op_call;
        dec_imm.(pc) <- target
    | Instr.Ret -> dec_op.(pc) <- op_ret
    | Instr.Rnd (rd, bound) ->
        dec_op.(pc) <- op_rnd;
        dec_a.(pc) <- Reg.to_int rd;
        dec_imm.(pc) <- bound
    | Instr.Out rs ->
        dec_op.(pc) <- op_out;
        dec_a.(pc) <- Reg.to_int rs
    | Instr.Halt -> dec_op.(pc) <- op_halt
    | Instr.Nop -> dec_op.(pc) <- op_nop)
  done;
  (dec_op, dec_a, dec_b, dec_c, dec_imm)

(* Words materialised up front when nothing higher is bound.  Every
   suite workload keeps its data below this, so a machine normally never
   grows; a larger architectural memory costs nothing until it is used. *)
let prefix_floor = 4096

(* The materialised prefix holding [words] (address, value): enough to
   cover the highest address and at least [prefix_floor], capped at the
   architectural size.  [what] names the caller in the range error. *)
let materialise ~mem_words ~what words =
  let top =
    List.fold_left
      (fun top (addr, _) ->
        if addr < 0 || addr >= mem_words then
          invalid_arg
            (Printf.sprintf "Machine.%s: address %d outside memory" what addr)
        else max top (addr + 1))
      prefix_floor words
  in
  let memory = Array.make (min mem_words top) 0 in
  List.iter (fun (addr, v) -> memory.(addr) <- v) words;
  memory

let create ?(mem_words = 1 lsl 20) ?(seed = 1L) prog =
  let memory = materialise ~mem_words ~what:"create" prog.Program.data_init in
  let code = prog.Program.code in
  let dec_op, dec_a, dec_b, dec_c, dec_imm = decode code in
  {
    prog;
    code;
    code_len = Array.length code;
    dec_op;
    dec_a;
    dec_b;
    dec_c;
    dec_imm;
    regs = Array.make Reg.count 0;
    memory;
    mem_len = mem_words;
    pc = prog.Program.entry;
    ret_stack = Array.make max_call_depth 0;
    call_depth = 0;
    prng = Prng.create ~seed;
    out_buf = Array.make 64 0;
    out_len = 0;
    steps = 0;
    halted = false;
    trap = None;
    has_poison = false;
    poisoned = Hashtbl.create 4;
  }

let program t = t.prog
let pc t = t.pc
let halted t = t.halted
let steps t = t.steps
let last_trap t = t.trap
let reg t r = t.regs.(Reg.to_int r)
let set_reg t r v = t.regs.(Reg.to_int r) <- wrap32 v

(* Grow the materialised prefix by doubling until it covers [addr],
   capped at the architectural size.  Called only for
   [length <= addr < mem_len]; a prefix shorter than [mem_len] holds at
   least [prefix_floor] words, so the doubling terminates. *)
let grow t addr =
  let len = Array.length t.memory in
  let n = ref len in
  while !n <= addr do
    n := 2 * !n
  done;
  let bigger = Array.make (min t.mem_len !n) 0 in
  Array.blit t.memory 0 bigger 0 len;
  t.memory <- bigger

(* Word access for an address already checked against [mem_len]. *)
let load_word t addr =
  if addr < Array.length t.memory then t.memory.(addr) else 0

let store_word t addr v =
  if addr >= Array.length t.memory then grow t addr;
  t.memory.(addr) <- v

let mem t addr =
  if addr < 0 || addr >= t.mem_len then
    invalid_arg (Printf.sprintf "Machine.mem: address %d out of range" addr)
  else load_word t addr

let set_mem t addr v =
  if addr < 0 || addr >= t.mem_len then
    invalid_arg (Printf.sprintf "Machine.set_mem: address %d out of range" addr)
  else store_word t addr (wrap32 v)

let outputs t = Array.to_list (Array.sub t.out_buf 0 t.out_len)

let poison t pc =
  if pc < 0 || pc >= t.code_len then
    invalid_arg (Printf.sprintf "Machine.poison: pc %d out of range" pc);
  t.has_poison <- true;
  Hashtbl.replace t.poisoned pc ()

let poisoned t pc = t.has_poison && Hashtbl.mem t.poisoned pc

let push_out t v =
  if t.out_len = Array.length t.out_buf then begin
    let bigger = Array.make (2 * t.out_len) 0 in
    Array.blit t.out_buf 0 bigger 0 t.out_len;
    t.out_buf <- bigger
  end;
  t.out_buf.(t.out_len) <- v;
  t.out_len <- t.out_len + 1

(* Halting with a trap is the one place a step may allocate: the typed
   trap value is constructed once, at the end of the run. *)
let trapped t tr =
  t.halted <- true;
  t.trap <- Some tr;
  ev_trapped

(* Taken-branch helper shared by the six [Br] arms: explicit control
   transfers must land inside the code image. *)
let take t pc target =
  if target < 0 || target >= t.code_len then
    trapped t (Branch_out_of_range { pc; target })
  else begin
    t.pc <- target;
    ev_branch_taken
  end

let step_code t =
  if t.halted then
    match t.trap with None -> ev_halted | Some _ -> ev_trapped
  else
    let pc = t.pc in
    if pc < 0 || pc >= t.code_len then begin
      (* Falling off the end of the code array stops the machine. *)
      t.halted <- true;
      ev_halted
    end
    else begin
      t.steps <- t.steps + 1;
      if t.has_poison && Hashtbl.mem t.poisoned pc then
        trapped t (Illegal_instruction pc)
      else begin
        let regs = t.regs in
        (* Unsafe accesses below are in range by construction: [pc] was
           bounds-checked against [code_len] above and the decode
           arrays are code-length; register operands come out of
           [Reg.to_int] at decode time, and [regs] has [Reg.count]
           elements; memory addresses are explicitly checked against
           [mem_len] before each access and against the materialised
           prefix's length before each read or write of it. *)
        let a = Array.unsafe_get t.dec_a pc
        and b = Array.unsafe_get t.dec_b pc
        and c = Array.unsafe_get t.dec_c pc
        and imm = Array.unsafe_get t.dec_imm pc in
        match Array.unsafe_get t.dec_op pc with
        | 0 (* movi *) ->
            Array.unsafe_set regs a imm;
            t.pc <- pc + 1;
            ev_stepped
        | 1 (* mov *) ->
            Array.unsafe_set regs a (Array.unsafe_get regs b);
            t.pc <- pc + 1;
            ev_stepped
        | 2 (* load *) ->
            let addr = Array.unsafe_get regs b + imm in
            if addr < 0 || addr >= t.mem_len then
              trapped t (Memory_fault { pc; addr })
            else begin
              let memory = t.memory in
              Array.unsafe_set regs a
                (if addr < Array.length memory then
                   Array.unsafe_get memory addr
                 else 0);
              t.pc <- pc + 1;
              ev_stepped
            end
        | 3 (* store *) ->
            let addr = Array.unsafe_get regs b + imm in
            if addr < 0 || addr >= t.mem_len then
              trapped t (Memory_fault { pc; addr })
            else begin
              if addr >= Array.length t.memory then grow t addr;
              Array.unsafe_set t.memory addr (Array.unsafe_get regs a);
              t.pc <- pc + 1;
              ev_stepped
            end
        | 4 (* jmp *) ->
            if imm < 0 || imm >= t.code_len then
              trapped t (Branch_out_of_range { pc; target = imm })
            else begin
              t.pc <- imm;
              ev_jumped
            end
        | 5 (* call *) ->
            if t.call_depth >= max_call_depth then
              trapped t (Call_stack_overflow pc)
            else if imm < 0 || imm >= t.code_len then
              trapped t (Branch_out_of_range { pc; target = imm })
            else begin
              t.ret_stack.(t.call_depth) <- pc + 1;
              t.call_depth <- t.call_depth + 1;
              t.pc <- imm;
              ev_called
            end
        | 6 (* ret *) ->
            if t.call_depth = 0 then trapped t (Return_without_call pc)
            else begin
              t.call_depth <- t.call_depth - 1;
              t.pc <- t.ret_stack.(t.call_depth);
              ev_returned
            end
        | 7 (* rnd *) ->
            (* A non-positive bound is a guest bug, not a caller bug: it
               must trap like a division by zero, never leak the PRNG's
               [Invalid_argument] out of the step. *)
            if imm <= 0 then trapped t (Invalid_rnd_bound { pc; bound = imm })
            else begin
              Array.unsafe_set regs a (Prng.below t.prng imm);
              t.pc <- pc + 1;
              ev_stepped
            end
        | 8 (* out *) ->
            push_out t (Array.unsafe_get regs a);
            t.pc <- pc + 1;
            ev_stepped
        | 9 (* halt *) ->
            t.halted <- true;
            ev_halted
        | 10 (* nop *) ->
            t.pc <- pc + 1;
            ev_stepped
        | 11 (* add *) ->
            Array.unsafe_set regs a
              (wrap32 (Array.unsafe_get regs b + Array.unsafe_get regs c));
            t.pc <- pc + 1;
            ev_stepped
        | 12 (* sub *) ->
            Array.unsafe_set regs a
              (wrap32 (Array.unsafe_get regs b - Array.unsafe_get regs c));
            t.pc <- pc + 1;
            ev_stepped
        | 13 (* mul *) ->
            Array.unsafe_set regs a
              (wrap32 (Array.unsafe_get regs b * Array.unsafe_get regs c));
            t.pc <- pc + 1;
            ev_stepped
        | 14 (* div *) ->
            let d = Array.unsafe_get regs c in
            if d = 0 then trapped t (Division_by_zero pc)
            else begin
              Array.unsafe_set regs a (wrap32 (Array.unsafe_get regs b / d));
              t.pc <- pc + 1;
              ev_stepped
            end
        | 15 (* rem *) ->
            let d = Array.unsafe_get regs c in
            if d = 0 then trapped t (Division_by_zero pc)
            else begin
              Array.unsafe_set regs a (wrap32 (Array.unsafe_get regs b mod d));
              t.pc <- pc + 1;
              ev_stepped
            end
        | 16 (* and *) ->
            Array.unsafe_set regs a
              (Array.unsafe_get regs b land Array.unsafe_get regs c);
            t.pc <- pc + 1;
            ev_stepped
        | 17 (* or *) ->
            Array.unsafe_set regs a
              (Array.unsafe_get regs b lor Array.unsafe_get regs c);
            t.pc <- pc + 1;
            ev_stepped
        | 18 (* xor *) ->
            Array.unsafe_set regs a
              (Array.unsafe_get regs b lxor Array.unsafe_get regs c);
            t.pc <- pc + 1;
            ev_stepped
        | 19 (* shl *) ->
            Array.unsafe_set regs a
              (wrap32
                 (Array.unsafe_get regs b lsl (Array.unsafe_get regs c land 31)));
            t.pc <- pc + 1;
            ev_stepped
        | 20 (* shr *) ->
            Array.unsafe_set regs a
              (wrap32
                 (Array.unsafe_get regs b asr (Array.unsafe_get regs c land 31)));
            t.pc <- pc + 1;
            ev_stepped
        | 21 (* addi *) ->
            Array.unsafe_set regs a (wrap32 (Array.unsafe_get regs b + imm));
            t.pc <- pc + 1;
            ev_stepped
        | 22 (* subi *) ->
            Array.unsafe_set regs a (wrap32 (Array.unsafe_get regs b - imm));
            t.pc <- pc + 1;
            ev_stepped
        | 23 (* muli *) ->
            Array.unsafe_set regs a (wrap32 (Array.unsafe_get regs b * imm));
            t.pc <- pc + 1;
            ev_stepped
        | 24 (* divi *) ->
            if imm = 0 then trapped t (Division_by_zero pc)
            else begin
              Array.unsafe_set regs a (wrap32 (Array.unsafe_get regs b / imm));
              t.pc <- pc + 1;
              ev_stepped
            end
        | 25 (* remi *) ->
            if imm = 0 then trapped t (Division_by_zero pc)
            else begin
              Array.unsafe_set regs a
                (wrap32 (Array.unsafe_get regs b mod imm));
              t.pc <- pc + 1;
              ev_stepped
            end
        | 26 (* andi *) ->
            Array.unsafe_set regs a (wrap32 (Array.unsafe_get regs b land imm));
            t.pc <- pc + 1;
            ev_stepped
        | 27 (* ori *) ->
            Array.unsafe_set regs a (wrap32 (Array.unsafe_get regs b lor imm));
            t.pc <- pc + 1;
            ev_stepped
        | 28 (* xori *) ->
            Array.unsafe_set regs a (wrap32 (Array.unsafe_get regs b lxor imm));
            t.pc <- pc + 1;
            ev_stepped
        | 29 (* shli *) ->
            Array.unsafe_set regs a
              (wrap32 (Array.unsafe_get regs b lsl (imm land 31)));
            t.pc <- pc + 1;
            ev_stepped
        | 30 (* shri *) ->
            Array.unsafe_set regs a
              (wrap32 (Array.unsafe_get regs b asr (imm land 31)));
            t.pc <- pc + 1;
            ev_stepped
        | 31 (* beq *) ->
            if Array.unsafe_get regs a = Array.unsafe_get regs b then
              take t pc imm
            else begin
              t.pc <- pc + 1;
              ev_branch_not_taken
            end
        | 32 (* bne *) ->
            if Array.unsafe_get regs a <> Array.unsafe_get regs b then
              take t pc imm
            else begin
              t.pc <- pc + 1;
              ev_branch_not_taken
            end
        | 33 (* blt *) ->
            if Array.unsafe_get regs a < Array.unsafe_get regs b then
              take t pc imm
            else begin
              t.pc <- pc + 1;
              ev_branch_not_taken
            end
        | 34 (* bge *) ->
            if Array.unsafe_get regs a >= Array.unsafe_get regs b then
              take t pc imm
            else begin
              t.pc <- pc + 1;
              ev_branch_not_taken
            end
        | 35 (* ble *) ->
            if Array.unsafe_get regs a <= Array.unsafe_get regs b then
              take t pc imm
            else begin
              t.pc <- pc + 1;
              ev_branch_not_taken
            end
        | _ (* 36, bgt *) ->
            if Array.unsafe_get regs a > Array.unsafe_get regs b then
              take t pc imm
            else begin
              t.pc <- pc + 1;
              ev_branch_not_taken
            end
      end
    end

let step t =
  match step_code t with
  | 0 -> Ok Stepped
  | 1 -> Ok (Branched { taken = false })
  | 2 -> Ok (Branched { taken = true })
  | 3 -> Ok Jumped
  | 4 -> Ok Called
  | 5 -> Ok Returned
  | 6 -> Ok Halted
  | _ -> ( match t.trap with Some tr -> Error tr | None -> assert false)

(* Reference decoder: the pre-dispatch-table interpreter, matching
   directly on [Instr.t].  Kept as the executable specification the
   dispatch table is differentially tested against
   (test/test_hotpath.ml); not used on any hot path. *)

let eval_binop op a b ~pc =
  match op with
  | Instr.Add -> Ok (a + b)
  | Instr.Sub -> Ok (a - b)
  | Instr.Mul -> Ok (a * b)
  | Instr.Div -> if b = 0 then Error (Division_by_zero pc) else Ok (a / b)
  | Instr.Rem -> if b = 0 then Error (Division_by_zero pc) else Ok (a mod b)
  | Instr.And -> Ok (a land b)
  | Instr.Or -> Ok (a lor b)
  | Instr.Xor -> Ok (a lxor b)
  | Instr.Shl -> Ok (a lsl (b land 31))
  | Instr.Shr -> Ok (a asr (b land 31))

let step_spec t =
  if t.halted then
    match t.trap with None -> Ok Halted | Some trap -> Error trap
  else if t.pc < 0 || t.pc >= t.code_len then begin
    t.halted <- true;
    Ok Halted
  end
  else begin
    let pc = t.pc in
    let instr = t.code.(pc) in
    t.steps <- t.steps + 1;
    let regs = t.regs in
    let fail trap =
      t.halted <- true;
      t.trap <- Some trap;
      Error trap
    in
    let continue event =
      t.pc <- pc + 1;
      Ok event
    in
    let transfer_to target event =
      (* Explicit control transfers must land inside the code image;
         plain fallthrough past the last instruction still halts. *)
      if target < 0 || target >= t.code_len then
        fail (Branch_out_of_range { pc; target })
      else begin
        t.pc <- target;
        Ok event
      end
    in
    if t.has_poison && Hashtbl.mem t.poisoned pc then
      fail (Illegal_instruction pc)
    else
      match instr with
      | Instr.Movi (rd, imm) ->
          regs.(Reg.to_int rd) <- wrap32 imm;
          continue Stepped
      | Instr.Mov (rd, rs) ->
          regs.(Reg.to_int rd) <- regs.(Reg.to_int rs);
          continue Stepped
      | Instr.Binop (op, rd, rs1, rs2) -> (
          match
            eval_binop op regs.(Reg.to_int rs1) regs.(Reg.to_int rs2) ~pc
          with
          | Ok v ->
              regs.(Reg.to_int rd) <- wrap32 v;
              continue Stepped
          | Error trap -> fail trap)
      | Instr.Binopi (op, rd, rs, imm) -> (
          match eval_binop op regs.(Reg.to_int rs) imm ~pc with
          | Ok v ->
              regs.(Reg.to_int rd) <- wrap32 v;
              continue Stepped
          | Error trap -> fail trap)
      | Instr.Load (rd, base, off) ->
          let addr = regs.(Reg.to_int base) + off in
          if addr < 0 || addr >= t.mem_len then fail (Memory_fault { pc; addr })
          else begin
            regs.(Reg.to_int rd) <- load_word t addr;
            continue Stepped
          end
      | Instr.Store (rsrc, base, off) ->
          let addr = regs.(Reg.to_int base) + off in
          if addr < 0 || addr >= t.mem_len then fail (Memory_fault { pc; addr })
          else begin
            store_word t addr regs.(Reg.to_int rsrc);
            continue Stepped
          end
      | Instr.Br (c, rs1, rs2, target) ->
          let taken =
            Instr.eval_cond c regs.(Reg.to_int rs1) regs.(Reg.to_int rs2)
          in
          if taken then transfer_to target (Branched { taken = true })
          else begin
            t.pc <- pc + 1;
            Ok (Branched { taken = false })
          end
      | Instr.Jmp target -> transfer_to target Jumped
      | Instr.Call target ->
          if t.call_depth >= max_call_depth then fail (Call_stack_overflow pc)
          else if target < 0 || target >= t.code_len then
            fail (Branch_out_of_range { pc; target })
          else begin
            t.ret_stack.(t.call_depth) <- pc + 1;
            t.call_depth <- t.call_depth + 1;
            t.pc <- target;
            Ok Called
          end
      | Instr.Ret ->
          if t.call_depth = 0 then fail (Return_without_call pc)
          else begin
            t.call_depth <- t.call_depth - 1;
            t.pc <- t.ret_stack.(t.call_depth);
            Ok Returned
          end
      | Instr.Rnd (rd, bound) ->
          (* A non-positive bound is a guest bug, not a caller bug: it
             must trap like a division by zero, never leak the PRNG's
             [Invalid_argument] out of [step]. *)
          if bound <= 0 then fail (Invalid_rnd_bound { pc; bound })
          else begin
            regs.(Reg.to_int rd) <- Prng.below t.prng bound;
            continue Stepped
          end
      | Instr.Out rs ->
          push_out t regs.(Reg.to_int rs);
          continue Stepped
      | Instr.Halt ->
          t.halted <- true;
          Ok Halted
      | Instr.Nop -> continue Stepped
  end

(* ------------------------------------------------------------------ *)
(* Mid-run images (snapshot / resume)                                  *)
(* ------------------------------------------------------------------ *)

(* Everything that evolves during a run, as plain data.  Memory is
   stored sparsely (only non-zero words) because the default data
   memory is 2^20 words and guest working sets are tiny.  The program
   itself is NOT part of the image: resume rebuilds it from the same
   source the original run used, and the decode arrays are derived. *)
type image = {
  im_mem_words : int;
  im_regs : int array;
  im_mem : (int * int) array;  (* non-zero words, ascending address *)
  im_pc : int;
  im_ret_stack : int array;  (* live prefix, bottom first *)
  im_prng : int * int * int * int;
  im_outputs : int array;
  im_steps : int;
  im_halted : bool;
  im_poisoned : int list;  (* ascending *)
}

let capture t =
  (* Words past the materialised prefix are zero. *)
  let len = Array.length t.memory in
  let nonzero = ref 0 in
  for i = 0 to len - 1 do
    if t.memory.(i) <> 0 then incr nonzero
  done;
  let mem = Array.make !nonzero (0, 0) in
  let k = ref 0 in
  for i = 0 to len - 1 do
    if t.memory.(i) <> 0 then begin
      mem.(!k) <- (i, t.memory.(i));
      incr k
    end
  done;
  {
    im_mem_words = t.mem_len;
    im_regs = Array.copy t.regs;
    im_mem = mem;
    im_pc = t.pc;
    im_ret_stack = Array.sub t.ret_stack 0 t.call_depth;
    im_prng = Prng.state t.prng;
    im_outputs = Array.sub t.out_buf 0 t.out_len;
    im_steps = t.steps;
    im_halted = t.halted;
    im_poisoned =
      List.sort compare
        (Hashtbl.fold (fun pc () acc -> pc :: acc) t.poisoned []);
  }

let restore prog image =
  let t = create ~mem_words:image.im_mem_words prog in
  if Array.length image.im_regs <> Reg.count then
    invalid_arg "Machine.restore: register file has wrong size";
  Array.blit image.im_regs 0 t.regs 0 Reg.count;
  (* [create] applied the program's data bindings; the image holds the
     complete non-zero memory contents, so replace them. *)
  t.memory <-
    materialise ~mem_words:t.mem_len ~what:"restore"
      (Array.to_list image.im_mem);
  t.pc <- image.im_pc;
  let depth = Array.length image.im_ret_stack in
  if depth > max_call_depth then
    invalid_arg "Machine.restore: call stack deeper than the machine's";
  Array.blit image.im_ret_stack 0 t.ret_stack 0 depth;
  t.call_depth <- depth;
  Prng.set t.prng image.im_prng;
  let n = Array.length image.im_outputs in
  if n > Array.length t.out_buf then t.out_buf <- Array.make n 0;
  Array.blit image.im_outputs 0 t.out_buf 0 n;
  t.out_len <- n;
  t.steps <- image.im_steps;
  t.halted <- image.im_halted;
  List.iter (fun pc -> poison t pc) image.im_poisoned;
  t

let run ?(max_steps = max_int) t =
  let rec loop remaining =
    if remaining = 0 || t.halted then Ok ()
    else
      let c = step_code t in
      if c <= ev_returned then loop (remaining - 1)
      else if c = ev_halted then Ok ()
      else match t.trap with Some trap -> Error trap | None -> Ok ()
  in
  loop max_steps

let pp_trap ppf = function
  | Division_by_zero pc -> Format.fprintf ppf "division by zero at pc %d" pc
  | Memory_fault { pc; addr } ->
      Format.fprintf ppf "memory fault at pc %d (address %d)" pc addr
  | Return_without_call pc ->
      Format.fprintf ppf "ret without matching call at pc %d" pc
  | Call_stack_overflow pc ->
      Format.fprintf ppf "call-stack overflow at pc %d" pc
  | Illegal_instruction pc ->
      Format.fprintf ppf "illegal instruction at pc %d" pc
  | Branch_out_of_range { pc; target } ->
      Format.fprintf ppf "branch at pc %d to out-of-range target %d" pc target
  | Invalid_rnd_bound { pc; bound } ->
      Format.fprintf ppf "rnd with non-positive bound %d at pc %d" bound pc

let output_count t = t.out_len

let outputs_upto t n =
  if n < 0 || n > t.out_len then invalid_arg "Machine.outputs_upto";
  Array.to_list (Array.sub t.out_buf 0 n)
