(** Guest machine state and single-step interpreter.

    The machine holds the program, 16 registers, a word-addressed data
    memory, a call stack (separate from data memory, so guest code cannot
    corrupt return addresses), the deterministic PRNG backing [rnd], and
    an output log.  Values are 32-bit two's-complement integers; all
    arithmetic wraps at 32 bits.

    {!step} executes exactly one instruction and reports what kind of
    control transfer (if any) it performed — the dynamic binary
    translator layers its block discovery and profiling on top of these
    events. *)

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

type event =
  | Stepped  (** straight-line instruction *)
  | Branched of { taken : bool }  (** conditional branch *)
  | Jumped
  | Called
  | Returned
  | Halted

(** {2 Int event codes}

    The allocation-free counterpart of {!event}, returned by
    {!step_code}.  Codes [0..5] mean the machine is still running
    ([c <= ev_returned]); [ev_halted]/[ev_trapped] are terminal.  After
    [ev_trapped], {!last_trap} holds the trap. *)

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
    ({!ev_stepped} … {!ev_trapped}).  This is the hot-path entry point:
    instructions are predecoded into flat int dispatch tables at
    {!create} time and a steady-state step allocates nothing.  After
    [ev_halted] (or [ev_trapped]) the machine no longer advances;
    further calls return the same code. *)

val last_trap : t -> trap option
(** The trap that halted the machine, if any — the out-of-band channel
    for {!step_code}'s [ev_trapped]. *)

val step : t -> (event, trap) result
(** Execute one instruction.  After [Ok Halted] (or an error) the machine
    no longer advances; further [step] calls return [Ok Halted] /
    the same trap.  Equivalent to {!step_code} plus an allocated
    report; cold callers only. *)

val step_spec : t -> (event, trap) result
(** Reference decoder: executes one instruction by matching directly on
    [Instr.t], with no dispatch table.  The executable specification
    {!step_code} is differentially tested against; identical observable
    semantics, slower and allocating. *)

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
