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

(* Int event codes returned by [step_code] and [exec_block].
   Profiling-mode interpretation is the phase the paper argues must be
   nearly free, so the report to the engine is an immediate int, not an
   allocated variant.  Codes 0..5 are "still running" (the engine tests
   [c <= ev_returned]); 6..7 are terminal. *)
let ev_stepped = 0
let ev_branch_not_taken = 1
let ev_branch_taken = 2
let ev_jumped = 3
let ev_called = 4
let ev_returned = 5
let ev_halted = 6
let ev_trapped = 7

type t = {
  prog : Program.t;
  code : Instr.t array;
  code_len : int;
  blocks : block array;
      (* start pc -> the block translated there ([untranslated] if none):
         derived state, rebuilt on use by a restored machine *)
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

(* A translated block: the chain of closures for the [b_size]
   instructions from its start pc. *)
and block = { b_size : int; b_run : t -> int }

(* The empty slot of [blocks]: no block has size 0, so it never runs. *)
let untranslated = { b_size = 0; b_run = (fun _ -> ev_halted) }
let max_call_depth = 4096

(* Normalise to signed 32-bit two's complement. *)
let wrap32 v = ((v land 0xFFFFFFFF) lxor 0x80000000) - 0x80000000

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
  {
    prog;
    code;
    code_len = Array.length code;
    blocks = Array.make (Array.length code) untranslated;
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

(* Word access for an address already checked against [mem_len].  The
   memory is read from [t] on every access: growth reallocates it. *)
let[@inline] load_word t addr =
  let memory = t.memory in
  if addr < Array.length memory then Array.unsafe_get memory addr else 0

let[@inline] store_word t addr v =
  if addr >= Array.length t.memory then grow t addr;
  Array.unsafe_set t.memory addr v

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

(* ------------------------------------------------------------------ *)
(* The reference stepper                                                *)
(* ------------------------------------------------------------------ *)

(* Unsafe register accesses are in range by construction: a [Reg.t] is
   an index below [Reg.count], the length of [regs]. *)
let[@inline] get regs r = Array.unsafe_get regs (Reg.to_int r)
let[@inline] set regs r v = Array.unsafe_set regs (Reg.to_int r) v

let[@inline] next t pc =
  t.pc <- pc + 1;
  ev_stepped

(* Taken-branch helper shared by the six [Br] arms: explicit control
   transfers must land inside the code image. *)
let take t pc target =
  if target < 0 || target >= t.code_len then
    trapped t (Branch_out_of_range { pc; target })
  else begin
    t.pc <- target;
    ev_branch_taken
  end

let[@inline] not_taken t pc =
  t.pc <- pc + 1;
  ev_branch_not_taken

(* One match on [Instr.t], operator and condition included, so each
   instruction costs one dispatch. *)
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
      else
        let regs = t.regs in
        (* [pc] was bounds-checked against [code_len] above. *)
        match Array.unsafe_get t.code pc with
        | Instr.Movi (rd, imm) ->
            set regs rd (wrap32 imm);
            next t pc
        | Instr.Mov (rd, rs) ->
            set regs rd (get regs rs);
            next t pc
        | Instr.Load (rd, base, off) ->
            let addr = get regs base + off in
            if addr < 0 || addr >= t.mem_len then
              trapped t (Memory_fault { pc; addr })
            else begin
              set regs rd (load_word t addr);
              next t pc
            end
        | Instr.Store (rsrc, base, off) ->
            let addr = get regs base + off in
            if addr < 0 || addr >= t.mem_len then
              trapped t (Memory_fault { pc; addr })
            else begin
              store_word t addr (get regs rsrc);
              next t pc
            end
        | Instr.Jmp target ->
            if target < 0 || target >= t.code_len then
              trapped t (Branch_out_of_range { pc; target })
            else begin
              t.pc <- target;
              ev_jumped
            end
        | Instr.Call target ->
            if t.call_depth >= max_call_depth then
              trapped t (Call_stack_overflow pc)
            else if target < 0 || target >= t.code_len then
              trapped t (Branch_out_of_range { pc; target })
            else begin
              t.ret_stack.(t.call_depth) <- pc + 1;
              t.call_depth <- t.call_depth + 1;
              t.pc <- target;
              ev_called
            end
        | Instr.Ret ->
            if t.call_depth = 0 then trapped t (Return_without_call pc)
            else begin
              t.call_depth <- t.call_depth - 1;
              t.pc <- t.ret_stack.(t.call_depth);
              ev_returned
            end
        | Instr.Rnd (rd, bound) ->
            (* A non-positive bound is a guest bug, not a caller bug: it
               must trap like a division by zero, never leak the PRNG's
               [Invalid_argument] out of the step. *)
            if bound <= 0 then trapped t (Invalid_rnd_bound { pc; bound })
            else begin
              set regs rd (Prng.below t.prng bound);
              next t pc
            end
        | Instr.Out rs ->
            push_out t (get regs rs);
            next t pc
        | Instr.Halt ->
            t.halted <- true;
            ev_halted
        | Instr.Nop -> next t pc
        | Instr.Binop (Instr.Add, rd, rs1, rs2) ->
            set regs rd (wrap32 (get regs rs1 + get regs rs2));
            next t pc
        | Instr.Binop (Instr.Sub, rd, rs1, rs2) ->
            set regs rd (wrap32 (get regs rs1 - get regs rs2));
            next t pc
        | Instr.Binop (Instr.Mul, rd, rs1, rs2) ->
            set regs rd (wrap32 (get regs rs1 * get regs rs2));
            next t pc
        | Instr.Binop (Instr.Div, rd, rs1, rs2) ->
            let d = get regs rs2 in
            if d = 0 then trapped t (Division_by_zero pc)
            else begin
              set regs rd (wrap32 (get regs rs1 / d));
              next t pc
            end
        | Instr.Binop (Instr.Rem, rd, rs1, rs2) ->
            let d = get regs rs2 in
            if d = 0 then trapped t (Division_by_zero pc)
            else begin
              set regs rd (wrap32 (get regs rs1 mod d));
              next t pc
            end
        | Instr.Binop (Instr.And, rd, rs1, rs2) ->
            set regs rd (get regs rs1 land get regs rs2);
            next t pc
        | Instr.Binop (Instr.Or, rd, rs1, rs2) ->
            set regs rd (get regs rs1 lor get regs rs2);
            next t pc
        | Instr.Binop (Instr.Xor, rd, rs1, rs2) ->
            set regs rd (get regs rs1 lxor get regs rs2);
            next t pc
        | Instr.Binop (Instr.Shl, rd, rs1, rs2) ->
            set regs rd (wrap32 (get regs rs1 lsl (get regs rs2 land 31)));
            next t pc
        | Instr.Binop (Instr.Shr, rd, rs1, rs2) ->
            set regs rd (wrap32 (get regs rs1 asr (get regs rs2 land 31)));
            next t pc
        | Instr.Binopi (Instr.Add, rd, rs, imm) ->
            set regs rd (wrap32 (get regs rs + imm));
            next t pc
        | Instr.Binopi (Instr.Sub, rd, rs, imm) ->
            set regs rd (wrap32 (get regs rs - imm));
            next t pc
        | Instr.Binopi (Instr.Mul, rd, rs, imm) ->
            set regs rd (wrap32 (get regs rs * imm));
            next t pc
        | Instr.Binopi (Instr.Div, rd, rs, imm) ->
            if imm = 0 then trapped t (Division_by_zero pc)
            else begin
              set regs rd (wrap32 (get regs rs / imm));
              next t pc
            end
        | Instr.Binopi (Instr.Rem, rd, rs, imm) ->
            if imm = 0 then trapped t (Division_by_zero pc)
            else begin
              set regs rd (wrap32 (get regs rs mod imm));
              next t pc
            end
        | Instr.Binopi (Instr.And, rd, rs, imm) ->
            set regs rd (wrap32 (get regs rs land imm));
            next t pc
        | Instr.Binopi (Instr.Or, rd, rs, imm) ->
            set regs rd (wrap32 (get regs rs lor imm));
            next t pc
        | Instr.Binopi (Instr.Xor, rd, rs, imm) ->
            set regs rd (wrap32 (get regs rs lxor imm));
            next t pc
        | Instr.Binopi (Instr.Shl, rd, rs, imm) ->
            set regs rd (wrap32 (get regs rs lsl (imm land 31)));
            next t pc
        | Instr.Binopi (Instr.Shr, rd, rs, imm) ->
            set regs rd (wrap32 (get regs rs asr (imm land 31)));
            next t pc
        | Instr.Br (Instr.Eq, rs1, rs2, target) ->
            if get regs rs1 = get regs rs2 then take t pc target
            else not_taken t pc
        | Instr.Br (Instr.Ne, rs1, rs2, target) ->
            if get regs rs1 <> get regs rs2 then take t pc target
            else not_taken t pc
        | Instr.Br (Instr.Lt, rs1, rs2, target) ->
            if get regs rs1 < get regs rs2 then take t pc target
            else not_taken t pc
        | Instr.Br (Instr.Ge, rs1, rs2, target) ->
            if get regs rs1 >= get regs rs2 then take t pc target
            else not_taken t pc
        | Instr.Br (Instr.Le, rs1, rs2, target) ->
            if get regs rs1 <= get regs rs2 then take t pc target
            else not_taken t pc
        | Instr.Br (Instr.Gt, rs1, rs2, target) ->
            if get regs rs1 > get regs rs2 then take t pc target
            else not_taken t pc
    end

(* ------------------------------------------------------------------ *)
(* Translated blocks                                                    *)
(* ------------------------------------------------------------------ *)

(* A block is translated once into a chain of closures, one per
   instruction, with its operands bound, each tail-calling the next; a
   [nop] adds none.  While a chain runs, [t.pc] still holds the block's
   start: the closure that ends it — a terminator, the fall-through
   past the block's last instruction, or a trapping instruction — writes
   the pc and adds the [pc + 1 - t.pc] instructions run to the step
   count, once.  The closures read [t.memory] on every access, because
   growth reallocates it. *)

let[@inline] finish t pc target code =
  t.steps <- t.steps + (pc + 1 - t.pc);
  t.pc <- target;
  code

(* The instruction at [pc] traps: it counts, and the pc stays on it. *)
let trap_at t pc tr =
  t.steps <- t.steps + (pc + 1 - t.pc);
  t.pc <- pc;
  trapped t tr

(* The block's last instruction, at [target - 1], ran and falls
   through.  A local closure, not a partial application, so the chain
   calls it directly. *)
let fall target =
  let run t =
    t.steps <- t.steps + (target - t.pc);
    t.pc <- target;
    ev_stepped
  in
  run

let[@inline] branch t pc target =
  if target < 0 || target >= t.code_len then
    trap_at t pc (Branch_out_of_range { pc; target })
  else finish t pc target ev_branch_taken

(* The closure for the instruction at [pc] when it ends the chain: a
   terminator, or the block's last instruction, which falls through. *)
let rec ending pc (ins : Instr.t) : t -> int =
  match ins with
  | Instr.Br (cond, rs1, rs2, target) -> (
      let a = Reg.to_int rs1 and b = Reg.to_int rs2 in
      match cond with
      | Instr.Eq ->
          fun t ->
            let r = t.regs in
            if Array.unsafe_get r a = Array.unsafe_get r b then
              branch t pc target
            else finish t pc (pc + 1) ev_branch_not_taken
      | Instr.Ne ->
          fun t ->
            let r = t.regs in
            if Array.unsafe_get r a <> Array.unsafe_get r b then
              branch t pc target
            else finish t pc (pc + 1) ev_branch_not_taken
      | Instr.Lt ->
          fun t ->
            let r = t.regs in
            if Array.unsafe_get r a < Array.unsafe_get r b then
              branch t pc target
            else finish t pc (pc + 1) ev_branch_not_taken
      | Instr.Ge ->
          fun t ->
            let r = t.regs in
            if Array.unsafe_get r a >= Array.unsafe_get r b then
              branch t pc target
            else finish t pc (pc + 1) ev_branch_not_taken
      | Instr.Le ->
          fun t ->
            let r = t.regs in
            if Array.unsafe_get r a <= Array.unsafe_get r b then
              branch t pc target
            else finish t pc (pc + 1) ev_branch_not_taken
      | Instr.Gt ->
          fun t ->
            let r = t.regs in
            if Array.unsafe_get r a > Array.unsafe_get r b then
              branch t pc target
            else finish t pc (pc + 1) ev_branch_not_taken)
  | Instr.Jmp target ->
      fun t ->
        if target < 0 || target >= t.code_len then
          trap_at t pc (Branch_out_of_range { pc; target })
        else finish t pc target ev_jumped
  | Instr.Call target ->
      fun t ->
        if t.call_depth >= max_call_depth then
          trap_at t pc (Call_stack_overflow pc)
        else if target < 0 || target >= t.code_len then
          trap_at t pc (Branch_out_of_range { pc; target })
        else begin
          t.ret_stack.(t.call_depth) <- pc + 1;
          t.call_depth <- t.call_depth + 1;
          finish t pc target ev_called
        end
  | Instr.Ret ->
      fun t ->
        if t.call_depth = 0 then trap_at t pc (Return_without_call pc)
        else begin
          t.call_depth <- t.call_depth - 1;
          finish t pc t.ret_stack.(t.call_depth) ev_returned
        end
  | Instr.Halt ->
      fun t ->
        t.halted <- true;
        finish t pc pc ev_halted
  | Instr.Movi _ | Instr.Mov _ | Instr.Binop _ | Instr.Binopi _
  | Instr.Load _ | Instr.Store _ | Instr.Rnd _ | Instr.Out _ | Instr.Nop ->
      link pc ins (fall (pc + 1))

(* The closure for the instruction at [pc], running [k] after it.  A
   terminator ends the chain, so it has no [k]. *)
and link pc (ins : Instr.t) (k : t -> int) : t -> int =
  match ins with
  | Instr.Movi (rd, imm) ->
      let a = Reg.to_int rd and v = wrap32 imm in
      fun t ->
        Array.unsafe_set t.regs a v;
        k t
  | Instr.Mov (rd, rs) ->
      let a = Reg.to_int rd and b = Reg.to_int rs in
      fun t ->
        let r = t.regs in
        Array.unsafe_set r a (Array.unsafe_get r b);
        k t
  | Instr.Load (rd, base, off) ->
      let a = Reg.to_int rd and b = Reg.to_int base in
      fun t ->
        let r = t.regs in
        let addr = Array.unsafe_get r b + off in
        if addr < 0 || addr >= t.mem_len then
          trap_at t pc (Memory_fault { pc; addr })
        else begin
          Array.unsafe_set r a (load_word t addr);
          k t
        end
  | Instr.Store (rsrc, base, off) ->
      let a = Reg.to_int rsrc and b = Reg.to_int base in
      fun t ->
        let r = t.regs in
        let addr = Array.unsafe_get r b + off in
        if addr < 0 || addr >= t.mem_len then
          trap_at t pc (Memory_fault { pc; addr })
        else begin
          store_word t addr (Array.unsafe_get r a);
          k t
        end
  | Instr.Rnd (rd, bound) ->
      let a = Reg.to_int rd in
      fun t ->
        if bound <= 0 then trap_at t pc (Invalid_rnd_bound { pc; bound })
        else begin
          Array.unsafe_set t.regs a (Prng.below t.prng bound);
          k t
        end
  | Instr.Out rs ->
      let a = Reg.to_int rs in
      fun t ->
        push_out t (Array.unsafe_get t.regs a);
        k t
  | Instr.Nop -> k
  | Instr.Binop (op, rd, rs1, rs2) -> (
      let a = Reg.to_int rd and b = Reg.to_int rs1 and c = Reg.to_int rs2 in
      match op with
      | Instr.Add ->
          fun t ->
            let r = t.regs in
            Array.unsafe_set r a
              (wrap32 (Array.unsafe_get r b + Array.unsafe_get r c));
            k t
      | Instr.Sub ->
          fun t ->
            let r = t.regs in
            Array.unsafe_set r a
              (wrap32 (Array.unsafe_get r b - Array.unsafe_get r c));
            k t
      | Instr.Mul ->
          fun t ->
            let r = t.regs in
            Array.unsafe_set r a
              (wrap32 (Array.unsafe_get r b * Array.unsafe_get r c));
            k t
      | Instr.Div ->
          fun t ->
            let r = t.regs in
            let d = Array.unsafe_get r c in
            if d = 0 then trap_at t pc (Division_by_zero pc)
            else begin
              Array.unsafe_set r a (wrap32 (Array.unsafe_get r b / d));
              k t
            end
      | Instr.Rem ->
          fun t ->
            let r = t.regs in
            let d = Array.unsafe_get r c in
            if d = 0 then trap_at t pc (Division_by_zero pc)
            else begin
              Array.unsafe_set r a (wrap32 (Array.unsafe_get r b mod d));
              k t
            end
      | Instr.And ->
          fun t ->
            let r = t.regs in
            Array.unsafe_set r a
              (Array.unsafe_get r b land Array.unsafe_get r c);
            k t
      | Instr.Or ->
          fun t ->
            let r = t.regs in
            Array.unsafe_set r a
              (Array.unsafe_get r b lor Array.unsafe_get r c);
            k t
      | Instr.Xor ->
          fun t ->
            let r = t.regs in
            Array.unsafe_set r a
              (Array.unsafe_get r b lxor Array.unsafe_get r c);
            k t
      | Instr.Shl ->
          fun t ->
            let r = t.regs in
            Array.unsafe_set r a
              (wrap32
                 (Array.unsafe_get r b lsl (Array.unsafe_get r c land 31)));
            k t
      | Instr.Shr ->
          fun t ->
            let r = t.regs in
            Array.unsafe_set r a
              (wrap32
                 (Array.unsafe_get r b asr (Array.unsafe_get r c land 31)));
            k t)
  | Instr.Binopi (op, rd, rs, imm) -> (
      let a = Reg.to_int rd and b = Reg.to_int rs in
      match op with
      | Instr.Add ->
          fun t ->
            let r = t.regs in
            Array.unsafe_set r a (wrap32 (Array.unsafe_get r b + imm));
            k t
      | Instr.Sub ->
          fun t ->
            let r = t.regs in
            Array.unsafe_set r a (wrap32 (Array.unsafe_get r b - imm));
            k t
      | Instr.Mul ->
          fun t ->
            let r = t.regs in
            Array.unsafe_set r a (wrap32 (Array.unsafe_get r b * imm));
            k t
      | Instr.Div ->
          fun t ->
            if imm = 0 then trap_at t pc (Division_by_zero pc)
            else begin
              let r = t.regs in
              Array.unsafe_set r a (wrap32 (Array.unsafe_get r b / imm));
              k t
            end
      | Instr.Rem ->
          fun t ->
            if imm = 0 then trap_at t pc (Division_by_zero pc)
            else begin
              let r = t.regs in
              Array.unsafe_set r a (wrap32 (Array.unsafe_get r b mod imm));
              k t
            end
      | Instr.And ->
          fun t ->
            let r = t.regs in
            Array.unsafe_set r a (wrap32 (Array.unsafe_get r b land imm));
            k t
      | Instr.Or ->
          fun t ->
            let r = t.regs in
            Array.unsafe_set r a (wrap32 (Array.unsafe_get r b lor imm));
            k t
      | Instr.Xor ->
          fun t ->
            let r = t.regs in
            Array.unsafe_set r a (wrap32 (Array.unsafe_get r b lxor imm));
            k t
      | Instr.Shl ->
          fun t ->
            let r = t.regs in
            Array.unsafe_set r a
              (wrap32 (Array.unsafe_get r b lsl (imm land 31)));
            k t
      | Instr.Shr ->
          fun t ->
            let r = t.regs in
            Array.unsafe_set r a
              (wrap32 (Array.unsafe_get r b asr (imm land 31)));
            k t)
  | Instr.Br _ | Instr.Jmp _ | Instr.Call _ | Instr.Ret | Instr.Halt ->
      ending pc ins

(* The chain for the [size] instructions from [start], which lie inside
   the code image; it ends early at a terminator. *)
let translate code start size =
  let last = start + size - 1 in
  let rec chain pc =
    let ins = code.(pc) in
    if pc = last || Instr.is_terminator ins then ending pc ins
    else link pc ins (chain (pc + 1))
  in
  chain start

(* [step_code] until an instruction does more than step, or [size]
   have run. *)
let rec step_block t size =
  let c = step_code t in
  if c = ev_stepped && size > 1 then step_block t (size - 1) else c

let exec_block t size =
  let pc = t.pc in
  if t.has_poison || t.halted || pc < 0 || pc > t.code_len - size || size < 1
  then
    if size < 1 then invalid_arg "Machine.exec_block: size must be positive"
    else step_block t size
  else
    let b = Array.unsafe_get t.blocks pc in
    if b.b_size = size then b.b_run t
    else begin
      let run = translate t.code pc size in
      t.blocks.(pc) <- { b_size = size; b_run = run };
      run t
    end

(* ------------------------------------------------------------------ *)
(* Mid-run images (snapshot / resume)                                  *)
(* ------------------------------------------------------------------ *)

(* Everything that evolves during a run, as plain data.  Memory is
   stored sparsely (only non-zero words) because the default data
   memory is 2^20 words and guest working sets are tiny.  The program
   itself is NOT part of the image: resume rebuilds it from the same
   source the original run used, and translated blocks are derived. *)
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
