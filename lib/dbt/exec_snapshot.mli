(** Serialized mid-run engine images — the wire/disk format behind
    suspend/resume.

    An {!Engine.image} travels as deterministic text sealed as a
    {!Tpdbt_durable.Durable} record under the magic [TPDBT-SNAP 1].
    Floats are printed with [%h] so cycle totals round-trip
    bit-exactly; truncation, bit flips and trailing garbage are
    {e detected} (classified) rather than parsed into wrong state.

    The config and program are {e not} stored — only digests of them.
    {!restore} recomputes every piece of derived state (block map,
    slot cycles, dispatch tables) from the caller's program and
    config, and the digests refuse a resume under different ones,
    which would silently break the byte-identity guarantee. *)

type parsed = {
  sn_config_digest : string;
  sn_program_digest : string;
  sn_image : Engine.image;
}

val config_digest : Engine.config -> string
(** CRC32 over every config field that steers execution.  The
    suspension triggers ([deadline], [snapshot_every],
    [suspend_on_deadline]), the telemetry sink and the fault plan are
    excluded: a resume may re-arm its own triggers and sink, and the
    image carries the injector's full cursor. *)

val program_digest : Tpdbt_isa.Program.t -> string

val to_string : config:Engine.config -> program:Tpdbt_isa.Program.t ->
  Engine.image -> string
(** @raise Invalid_argument if the image lists a region without a
    monitor entry (it cannot have come from {!Engine.capture}). *)

val of_string : string -> parsed Tpdbt_durable.Durable.classified
(** Total: never raises, never [Missing].  Validates the frame, the
    payload grammar and each region's structure ({!Region.validate}). *)

val restore :
  config:Engine.config ->
  program:Tpdbt_isa.Program.t ->
  parsed ->
  (Engine.t, string) result
(** Digest checks, then {!Engine.restore}; its [Invalid_argument]
    (image inconsistent with the program) comes back as [Error]. *)

(** {2 Group records}

    A suspended {!Engine.Group} travels as one sealed record under the
    magic [TPDBT-GROUP 1]: the program digest and the driver's machine
    once, then per member its label, its config digest, its position in
    the block stream ({!Engine.position}) and its model state in the
    engine snapshot's own lines.  Damage is classified exactly as for
    [TPDBT-SNAP]. *)

type group_parsed = {
  gp_program_digest : string;
  gp_members : (string * string) list;  (** (label, config digest) *)
  gp_image : Engine.group_image;
}

val is_group : string -> bool
(** The text names the group format (any version): the dispatch a
    reader of either kind of record makes before parsing. *)

val group_to_string :
  program:Tpdbt_isa.Program.t ->
  (string * Engine.config) list ->
  Engine.group_image ->
  string
(** [group_to_string ~program members image]: [members] are the group's
    (label, config) pairs, in member order; labels are single words.
    @raise Invalid_argument if the counts differ, or a member stopped
    with an error a group cannot meet (a trap, a fault's error or a
    member-level suspension end the group's run first). *)

val group_of_string : string -> group_parsed Tpdbt_durable.Durable.classified
(** Total, like {!of_string}. *)

val group_restore :
  program:Tpdbt_isa.Program.t ->
  (string * Engine.config) list ->
  group_parsed ->
  (Engine.Group.t, string) result
(** Checks the program digest and every member's label and config
    digest, in order, then {!Engine.Group.restore}; its
    [Invalid_argument] comes back as [Error]. *)

type info = {
  steps : int;  (** guest instructions executed before suspension *)
  halted : bool;
  pc : int;
  blocks : int;
  optimized_blocks : int;
  regions : int;
  pool : int;  (** candidate-pool occupancy *)
  cache_entries : int;
  quarantines : int;
  degraded : bool;
  pending_faults : int;
  fired_faults : int;
  cycles : float;
  config_digest : string;
  program_digest : string;
}

val info : parsed -> info
(** Summary of a parsed snapshot, for [tpdbt snapshot info]. *)
