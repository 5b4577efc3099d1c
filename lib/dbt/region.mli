(** Optimisation regions.

    A region is a small control-flow subgraph over {e slots}; each slot
    is a (possibly duplicated) copy of a basic block.  Slot 0 is the
    region entry.  Non-loop regions ("traces", possibly containing
    hammock diamonds) are DAGs; loop regions additionally have back
    edges to slot 0.

    Each internal edge is labelled with the {!role} it plays at its
    source block's terminator, which is what lets both the runtime
    (match the actual branch outcome against the region) and the
    analyses (assign a probability to the edge from a block's branch
    probability) interpret it. *)

type role =
  | Taken  (** the conditional branch's taken edge *)
  | Not_taken  (** the conditional branch's fall-through edge *)
  | Always  (** unconditional (goto / fallthrough) *)

type edge = { src : int; dst : int; role : role }
(** Slot indices. *)

type kind = Trace | Loop

type t = {
  id : int;
  kind : kind;
  slots : int array;  (** slot -> block id; slot 0 is the entry *)
  edges : edge list;  (** forward (acyclic) internal edges *)
  back_edges : edge list;  (** edges to slot 0; non-empty iff [kind = Loop] *)
  frozen_use : int array;  (** per-slot block [use] count at formation *)
  frozen_taken : int array;  (** per-slot block [taken] count at formation *)
}

val entry_block : t -> int
val slot_count : t -> int

val slots_of_block : t -> int -> int list
(** All slots holding copies of the given block. *)

val frozen_branch_prob : t -> int -> float option
(** [frozen_branch_prob r slot]: taken/use of the slot's block as frozen
    at region-formation time; [None] if the block never executed or has
    no conditional terminator recorded (use = 0). *)

(** {1 Layout}

    The slot tables that region dispatch and the analyses read, derived
    from [edges] and [back_edges] in one place. *)

type pred = {
  from : int;  (** a predecessor slot *)
  roles : role list;
      (** the roles of its edges into the slot, in edge order (two roles
          may join the same slots) *)
}

type layout = {
  dst_taken : int array;
      (** per slot: the target of its first forward, then back, edge
          with role [Taken]; -1 when it has none *)
  dst_not_taken : int array;  (** the same for [Not_taken] *)
  dst_always : int array;  (** the same for [Always] *)
  has_succ : bool array;  (** the slot has a forward or a back edge *)
  has_back : bool array;  (** the slot is the source of a back edge *)
  preds : pred list array;
      (** per slot: its distinct forward predecessors, in the order of
          their first edge *)
  back_preds : pred list;
      (** the distinct sources of the back edges, in the order of their
          first back edge *)
  tail : int;
      (** the last slot with no forward out edge (for a [Trace], the
          block whose execution completes the region) *)
  order : int array;
      (** every slot in a forward topological order, slot 0 first *)
}

val validate : t -> (layout, string) result
(** Check the region and derive its layout.  The checks, each with its
    reason, in this order: at least one slot ("region has no slots");
    frozen arrays of the slot count ("frozen counter arrays do not match
    slot count"); every edge's slots in range ("edge slot out of
    range"); back edges into slot 0 ("back edge not targeting slot 0");
    [Loop] iff back edges ("kind/back-edge mismatch"); acyclic forward
    edges ("forward edges contain a cycle"); every slot reachable from
    slot 0 ("not all slots reachable from entry").  Time is linear in
    the numbers of slots and edges. *)

val layout : t -> layout
(** {!validate} for a region known to be valid: one the former built,
    or one read through a validating parser.
    @raise Invalid_argument with the reason otherwise. *)

val pp : Format.formatter -> t -> unit
