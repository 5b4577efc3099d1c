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
