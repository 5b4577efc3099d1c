(* The test tree's reference interpreter for G32: its own state, one
   match on [Instr.t] per step, a result per step, and no derived state,
   so it shares nothing with [Machine] but the PRNG and the trap type.
   Tests compare it with a machine through [Machine.capture] images
   ([image] below). *)

module Instr = Tpdbt_isa.Instr
module Program = Tpdbt_isa.Program
module Reg = Tpdbt_isa.Reg
module Machine = Tpdbt_vm.Machine
module Prng = Tpdbt_vm.Prng

(* What one instruction did. *)
type event =
  | Stepped  (** straight-line instruction *)
  | Branched of { taken : bool }  (** conditional branch *)
  | Jumped
  | Called
  | Returned
  | Halted

type t = {
  code : Instr.t array;
  mem_words : int;
  regs : int array;
  memory : (int, int) Hashtbl.t;  (* words ever stored, by address *)
  mutable pc : int;
  mutable stack : int list;  (* return addresses, innermost first *)
  mutable depth : int;
  prng : Prng.t;
  mutable outputs : int list;  (* newest first *)
  mutable steps : int;
  mutable halted : bool;
  mutable trap : Machine.trap option;
}

(* The machine's call-stack depth: overflowing it traps. *)
let max_call_depth = 4096
let wrap32 v = ((v land 0xFFFFFFFF) lxor 0x80000000) - 0x80000000

let create ?(mem_words = 1 lsl 20) ?(seed = 1L) (prog : Program.t) =
  let memory = Hashtbl.create 64 in
  List.iter
    (fun (addr, v) ->
      if addr < 0 || addr >= mem_words then
        invalid_arg "Vm_ref.create: data binding outside memory";
      Hashtbl.replace memory addr v)
    prog.Program.data_init;
  {
    code = prog.Program.code;
    mem_words;
    regs = Array.make Reg.count 0;
    memory;
    pc = prog.Program.entry;
    stack = [];
    depth = 0;
    prng = Prng.create ~seed;
    outputs = [];
    steps = 0;
    halted = false;
    trap = None;
  }

let eval_binop op a b ~pc =
  match op with
  | Instr.Add -> Ok (a + b)
  | Instr.Sub -> Ok (a - b)
  | Instr.Mul -> Ok (a * b)
  | Instr.Div ->
      if b = 0 then Error (Machine.Division_by_zero pc) else Ok (a / b)
  | Instr.Rem ->
      if b = 0 then Error (Machine.Division_by_zero pc) else Ok (a mod b)
  | Instr.And -> Ok (a land b)
  | Instr.Or -> Ok (a lor b)
  | Instr.Xor -> Ok (a lxor b)
  | Instr.Shl -> Ok (a lsl (b land 31))
  | Instr.Shr -> Ok (a asr (b land 31))

(* Execute one instruction.  After [Ok Halted] (or an error) the
   interpreter no longer advances; further calls return [Ok Halted] or
   the same trap. *)
let step t =
  if t.halted then match t.trap with None -> Ok Halted | Some tr -> Error tr
  else if t.pc < 0 || t.pc >= Array.length t.code then begin
    t.halted <- true;
    Ok Halted
  end
  else begin
    let pc = t.pc in
    t.steps <- t.steps + 1;
    let reg r = t.regs.(Reg.to_int r) in
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
      if target < 0 || target >= Array.length t.code then
        fail (Machine.Branch_out_of_range { pc; target })
      else begin
        t.pc <- target;
        Ok event
      end
    in
    let in_memory addr = addr >= 0 && addr < t.mem_words in
    match t.code.(pc) with
    | Instr.Movi (rd, imm) ->
        t.regs.(Reg.to_int rd) <- wrap32 imm;
        continue Stepped
    | Instr.Mov (rd, rs) ->
        t.regs.(Reg.to_int rd) <- reg rs;
        continue Stepped
    | Instr.Binop (op, rd, rs1, rs2) -> (
        match eval_binop op (reg rs1) (reg rs2) ~pc with
        | Ok v ->
            t.regs.(Reg.to_int rd) <- wrap32 v;
            continue Stepped
        | Error trap -> fail trap)
    | Instr.Binopi (op, rd, rs, imm) -> (
        match eval_binop op (reg rs) imm ~pc with
        | Ok v ->
            t.regs.(Reg.to_int rd) <- wrap32 v;
            continue Stepped
        | Error trap -> fail trap)
    | Instr.Load (rd, base, off) ->
        let addr = reg base + off in
        if not (in_memory addr) then fail (Machine.Memory_fault { pc; addr })
        else begin
          t.regs.(Reg.to_int rd) <-
            Option.value ~default:0 (Hashtbl.find_opt t.memory addr);
          continue Stepped
        end
    | Instr.Store (rsrc, base, off) ->
        let addr = reg base + off in
        if not (in_memory addr) then fail (Machine.Memory_fault { pc; addr })
        else begin
          Hashtbl.replace t.memory addr (reg rsrc);
          continue Stepped
        end
    | Instr.Br (c, rs1, rs2, target) ->
        if Instr.eval_cond c (reg rs1) (reg rs2) then
          transfer_to target (Branched { taken = true })
        else continue (Branched { taken = false })
    | Instr.Jmp target -> transfer_to target Jumped
    | Instr.Call target ->
        if t.depth >= max_call_depth then fail (Machine.Call_stack_overflow pc)
        else begin
          match transfer_to target Called with
          | Ok _ as ok ->
              t.stack <- (pc + 1) :: t.stack;
              t.depth <- t.depth + 1;
              ok
          | Error _ as e -> e
        end
    | Instr.Ret -> (
        match t.stack with
        | [] -> fail (Machine.Return_without_call pc)
        | ra :: rest ->
            t.stack <- rest;
            t.depth <- t.depth - 1;
            t.pc <- ra;
            Ok Returned)
    | Instr.Rnd (rd, bound) ->
        if bound <= 0 then fail (Machine.Invalid_rnd_bound { pc; bound })
        else begin
          t.regs.(Reg.to_int rd) <- Prng.below t.prng bound;
          continue Stepped
        end
    | Instr.Out rs ->
        t.outputs <- reg rs :: t.outputs;
        continue Stepped
    | Instr.Halt ->
        t.halted <- true;
        Ok Halted
    | Instr.Nop -> continue Stepped
  end

(* The state as the machine's image of it: non-zero words only, in
   ascending address order; nothing is ever poisoned. *)
let image t : Machine.image =
  {
    Machine.im_mem_words = t.mem_words;
    im_regs = Array.copy t.regs;
    im_mem =
      Hashtbl.fold
        (fun addr v acc -> if v <> 0 then (addr, v) :: acc else acc)
        t.memory []
      |> List.sort compare |> Array.of_list;
    im_pc = t.pc;
    im_ret_stack = Array.of_list (List.rev t.stack);
    im_prng = Prng.state t.prng;
    im_outputs = Array.of_list (List.rev t.outputs);
    im_steps = t.steps;
    im_halted = t.halted;
    im_poisoned = [];
  }

(* One [Machine.step_code] of [m], reported as an event. *)
let machine_step m =
  let c = Machine.step_code m in
  if c = Machine.ev_stepped then Ok Stepped
  else if c = Machine.ev_branch_not_taken then Ok (Branched { taken = false })
  else if c = Machine.ev_branch_taken then Ok (Branched { taken = true })
  else if c = Machine.ev_jumped then Ok Jumped
  else if c = Machine.ev_called then Ok Called
  else if c = Machine.ev_returned then Ok Returned
  else if c = Machine.ev_halted then Ok Halted
  else
    match Machine.last_trap m with
    | Some tr -> Error tr
    | None -> Alcotest.fail "ev_trapped without a trap"
