(** Crash-only append-only session journal for the serving daemon.

    The daemon journals the lifecycle of every stateful request (today:
    sweeps) so that a killed process can recover its in-flight work on
    restart.  It is the append-only variant of a
    {!Tpdbt_durable.Durable} record: after the [TPDBT-JRNL 1] magic
    line, every record is one [R <crc> <len> <payload>] line carrying
    the CRC32 and byte length of its own payload; each append is
    flushed and fsynced before it is acknowledged, and the journal is
    created (or started over) with an atomic write, so it cannot
    vanish or be left with a torn header in a crash.

    Recovery is {e crash-only}: opening an existing journal scans
    records in order and stops at the first damaged one — a torn final
    append, a truncated file, a bit flip — truncating the file back to
    the last intact record.  Whatever survives is trusted; everything
    after the damage is treated as never written (the work it described
    re-runs from checkpoints, which is safe because sweep execution is
    idempotent).  A sweep with a [Sweep_begin] but no [Sweep_end] in
    the surviving prefix is reported as in-flight for the server to
    re-enqueue. *)

type record =
  | Sweep_begin of { id : int; benches : string list }
      (** a sweep request was admitted; [benches] in input order *)
  | Snapshot_ref of { id : int; bench : string }
      (** sweep [id] published a mid-run snapshot of [bench] into the
          checkpoint store — a breadcrumb telling a recovering daemon
          that the orphaned sweep can {e resume} that benchmark from
          mid-run state instead of re-running it *)
  | Sweep_end of { id : int }  (** its results are fully checkpointed *)
  | Drained  (** the daemon shut down gracefully; nothing in flight *)

type recovery = {
  records : int;  (** intact records recovered *)
  torn : int;  (** damaged records truncated away (0 or 1 region) *)
  inflight : (int * string list) list;
      (** sweeps begun but not ended, in begin order *)
  snapshot_refs : (int * string) list;
      (** mid-run snapshot refs of still-in-flight sweeps (ended
          sweeps' refs are dropped), deduplicated, first-ref order *)
}

type t

val open_ : path:string -> t * recovery
(** Open (creating if absent) the journal at [path] and recover.  The
    returned handle is positioned for appends past the last intact
    record.
    @raise Sys_error on I/O failure. *)

val append : t -> record -> unit
(** Durably append one record: write, flush, fsync. *)

val close : t -> unit

val record_to_string : record -> string
val record_of_string : string -> record option
(** The payload encoding, exposed for tests.  [record_of_string]
    rejects anything {!record_to_string} does not produce. *)
