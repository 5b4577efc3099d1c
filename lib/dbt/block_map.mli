(** Static basic-block discovery for a guest program.

    G32 control flow is fully static except for [ret], so the block
    boundaries a dynamic translator would discover incrementally can be
    computed up front.  Doing so keeps block identities stable across
    runs with different inputs and thresholds, which is what lets the
    paper compare INIP(T), AVEP and INIP(train) block by block.

    Leaders: the program entry, every static branch/call target, every
    call return site, and every instruction following a block
    terminator.  A block also ends (with a fall-through edge) just
    before the next leader. *)

type terminator =
  | Cond of { taken : int; fallthrough : int }
      (** Conditional branch; successors are block ids. *)
  | Goto of int
  | Call_to of { callee : int; retsite : int }
  | Return  (** dynamic successor *)
  | Stop  (** halt *)
  | Fallthrough of int  (** block cut by a leader; unconditional edge *)

type block = {
  id : int;
  start_pc : int;
  end_pc : int;  (** inclusive *)
  size : int;  (** instruction count *)
  terminator : terminator;
}

type t

val build : Tpdbt_isa.Program.t -> t
(** Discover the block map of a program.
    @raise Invalid_argument when the last instruction is a branch or
    call (no fall-through instruction exists for its not-taken edge /
    return site).  Untrusted programs — decoded files, fuzz-generated
    images — must go through {!build_result} instead. *)

val build_result : Tpdbt_isa.Program.t -> (t, Error.t) result
(** Total variant of {!build}: the branch/call-at-end-of-code shape is
    refused as {!Error.Invalid_program} instead of raising.  This is
    the vetting step the CLI and the fuzz oracle run before
    {!Engine.create} on any program that did not come from the
    assembler-checked workload suite. *)

val of_blocks : entry_block:int -> block list -> (t, string) result
(** Reconstruct a block map from serialised blocks (see
    [Tpdbt_profiles.Profile_io]).  The blocks must be sorted by id,
    contiguous from 0, and cover [0 .. max end_pc] without gaps or
    overlaps, and every terminator must name blocks among them. *)

val block_count : t -> int

val block : t -> int -> block
(** Constructor-contract accessor: callers must hold an id obtained
    from this map ([0 <= id < block_count]) — the engine only ever
    passes ids it read back from the map or from arrays sized by
    [block_count], so the exception is unreachable from guest input.
    Use {!block_opt} when the id comes from anywhere less trusted.
    @raise Invalid_argument on a bad id. *)

val block_opt : t -> int -> block option
(** Total variant of {!block}: [None] on a bad id. *)

val blocks : t -> block list
(** In block-id order (i.e. ascending start pc). *)

val block_at : t -> int -> int option
(** [block_at t pc] is the id of the block {e starting} at [pc]. *)

val id_at : t -> int -> int
(** Allocation-free {!block_at}: the id of the block starting at [pc],
    or [-1] when [pc] is out of range or mid-block.  The engine's
    dispatch loop calls this once per block executed. *)

val block_containing : t -> int -> int option
(** Id of the block whose pc range contains [pc]. *)

val successors : t -> int -> int list
(** Static successor block ids ([Return]/[Stop] have none). *)

val entry_block : t -> int
(** Block id of the program entry. *)

val pp_block : Format.formatter -> block -> unit
