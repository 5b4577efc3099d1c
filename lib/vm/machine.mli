(** Guest machine state and interpreter.

    The machine holds the program, 16 registers, a word-addressed data
    memory, a call stack (separate from data memory, so guest code cannot
    corrupt return addresses), the deterministic PRNG backing [rnd], and
    an output log.  Values are 32-bit two's-complement integers; all
    arithmetic wraps at 32 bits.

    Two entry points execute guest code with the same semantics.
    {!step_code} is the reference stepper: one instruction per call,
    decoded from the program on every call.  {!exec_block} runs a whole
    basic block through a chain of closures translated on the block's
    first execution; the dynamic binary translator's driver calls it once
    per block.  Both report, as an int event code, what kind of control
    transfer (if any) the last instruction performed. *)

type trap =
  | Division_by_zero of int  (** pc of the faulting instruction *)
  | Memory_fault of { pc : int; addr : int }
  | Return_without_call of int
  | Call_stack_overflow of int
  | Illegal_instruction of int
      (** the instruction at this pc was poisoned ({!poison}) — the
          model of corrupted code memory *)
  | Branch_out_of_range of { pc : int; target : int }
      (** an explicit control transfer (branch taken, jmp, call) left
          the code image *)
  | Invalid_rnd_bound of { pc : int; bound : int }
      (** [rnd] executed with a bound [<= 0] — an out-of-range operand
          a generated (fuzzed) program can carry, surfaced as a typed
          trap instead of the PRNG's [Invalid_argument] *)

(** {2 Int event codes}

    What an instruction did, returned by {!step_code} and {!exec_block}
    as an immediate int, so reporting it allocates nothing.  Codes
    [0..5] mean the machine is still running ([c <= ev_returned]);
    [ev_halted]/[ev_trapped] are terminal.  After [ev_trapped],
    {!last_trap} holds the trap. *)

val ev_stepped : int
val ev_branch_not_taken : int
val ev_branch_taken : int
val ev_jumped : int
val ev_called : int
val ev_returned : int
val ev_halted : int
val ev_trapped : int

type t

val create : ?mem_words:int -> ?seed:int64 -> Tpdbt_isa.Program.t -> t
(** Fresh machine at the program entry.  [mem_words] defaults to [2^20];
    [seed] defaults to [1L].  Initial data bindings from the program are
    applied.  Data memory is architecturally [mem_words] zeroed words,
    materialised on first store: creation allocates only a small prefix
    (4096 words, or enough to hold the data bindings), which grows by
    doubling when a store reaches past it; a load past it reads 0.
    @raise Invalid_argument if a data binding is outside memory. *)

val program : t -> Tpdbt_isa.Program.t
val pc : t -> int
val halted : t -> bool
val steps : t -> int
(** Number of instructions executed so far. *)

val reg : t -> Tpdbt_isa.Reg.t -> int
val set_reg : t -> Tpdbt_isa.Reg.t -> int -> unit
val mem : t -> int -> int
(** @raise Invalid_argument on out-of-range address. *)

val set_mem : t -> int -> int -> unit
val outputs : t -> int list
(** Values emitted by [out], oldest first. *)

val output_count : t -> int
(** [List.length (outputs t)], without building the list. *)

val outputs_upto : t -> int -> int list
(** The first [n] values of {!outputs}: the output log as it stood when
    {!output_count} was [n].
    @raise Invalid_argument unless [0 <= n <= output_count t]. *)

val poison : t -> int -> unit
(** Corrupt the instruction at this pc: executing it henceforth traps
    with {!Illegal_instruction}.  Fault injection uses this to model a
    corrupted code word.
    @raise Invalid_argument if the pc is outside the code image. *)

val poisoned : t -> int -> bool

val step_code : t -> int
(** Execute one instruction and report it as an int event code
    ({!ev_stepped} … {!ev_trapped}).  The reference stepper: it matches
    on the instruction at the pc on every call, keeps no derived state
    and allocates nothing in the steady state.  {!run}, the interpreter
    every differential check compares against, and every machine with a
    poisoned pc use it.  After [ev_halted] (or [ev_trapped]) the machine
    no longer advances; further calls return the same code. *)

val exec_block : t -> int -> int
(** [exec_block t size] executes the instructions from the pc as
    [step_code] would, until one of them returns a code other than
    {!ev_stepped} (a control transfer, a halt or a trap) or [size] of
    them have run, and returns the last code: {!ev_stepped} when all
    [size] fell through.  It leaves exactly the state those calls of
    {!step_code} leave: a trap counts its instruction and leaves the pc
    on it, and halts, outputs, memory growth and [rnd] draws are the
    same.

    On the first call at a start pc and size, the block is translated
    into a chain of closures, one per instruction with its operands
    bound, each tail-calling the next; the pc and the step count are
    written once, when the chain ends.  The chain is cached per machine
    by start pc and runs only for the size it was built for (another
    size translates anew).  A translated block allocates nothing when
    it runs.  The cache is derived state: {!capture} does not carry it,
    and a {!restore}d machine translates again on use.  A machine with
    any poisoned pc, a halted machine and a block that would run past
    the end of the code image take {!step_code} one instruction at a
    time.
    @raise Invalid_argument if [size < 1]. *)

val last_trap : t -> trap option
(** The trap that halted the machine, if any — the out-of-band channel
    for the [ev_trapped] code. *)

val run : ?max_steps:int -> t -> (unit, trap) result
(** Step until halt (or trap).  [max_steps] (default [max_int]) bounds
    the number of instructions; exceeding it returns [Ok ()] with the
    machine still runnable (check {!halted}). *)

(** {2 Mid-run images}

    A complete, plain-data copy of everything that evolves during a
    run: registers, (sparse) data memory, pc, the live call stack, the
    PRNG limbs, the output log, the step count and any poisoned pcs.
    The program is {e not} captured — {!restore} pairs an image with
    the same program the original run used, and a restored machine then
    produces exactly the byte-for-byte run an uninterrupted machine
    would.  Powers the engine's snapshot/suspend/resume subsystem. *)

type image = {
  im_mem_words : int;  (** data memory size the machine was created with *)
  im_regs : int array;
  im_mem : (int * int) array;  (** non-zero words, ascending address *)
  im_pc : int;
  im_ret_stack : int array;  (** live prefix, bottom first *)
  im_prng : int * int * int * int;  (** {!Prng.state} *)
  im_outputs : int array;
  im_steps : int;
  im_halted : bool;
  im_poisoned : int list;  (** ascending *)
}

val capture : t -> image
(** Deterministic copy of the machine's mutable state; the machine is
    not disturbed and can keep running. *)

val restore : Tpdbt_isa.Program.t -> image -> t
(** Fresh machine continuing exactly where {!capture} left off.  The
    program must be the one the captured machine was running.
    @raise Invalid_argument if the image is structurally invalid
    (register-file size, out-of-range memory address or poisoned pc,
    over-deep call stack, bad PRNG limbs). *)

val pp_trap : Format.formatter -> trap -> unit
