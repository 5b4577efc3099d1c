(** Profile files.

    The paper's workflow (§4): "After the information for INIP(T),
    INIP(train) and AVEP are collected into files, we use an off-line
    tool to analyze the data."  This module is that file format — a
    line-oriented text serialisation of {!Tpdbt_dbt.Snapshot.t}
    (block structure, use/taken counters, regions with frozen counters)
    — so profiles can be collected by one `tpdbt profile` invocation and
    analysed by another.

    The text itself (magic line [TPDBT-PROFILE 1]) is what checkpoints
    embed and [translate] replies carry.  A standalone file is version
    2: that text sealed as a {!Tpdbt_durable.Durable} record under
    [TPDBT-PROFILE 2], published by an atomic write.

    Reading is strict: it accepts exactly the text {!to_string} writes,
    and rejects anything inconsistent (bad block extents or
    terminators, a pc or element count past 1,000,000, region slots out
    of range, truncated sections, negative or non-numeric counters,
    duplicate region ids) with a typed
    {!Tpdbt_dbt.Error.Corrupt_profile} carrying the 1-based line number
    (0 = past the last line) and the field that failed validation.
    I/O failures surface as {!Tpdbt_dbt.Error.Io_error}. *)

val save : string -> Tpdbt_dbt.Snapshot.t -> unit
(** Write a version 2 profile file with
    {!Tpdbt_durable.Durable.atomic_write}.
    @raise Sys_error on I/O failure. *)

val load : string -> (Tpdbt_dbt.Snapshot.t, Tpdbt_dbt.Error.t) result
(** Read a version 2 file.  Damage the frame detects is a
    [Corrupt_profile] with field ["frame"]; a file of another version
    (a version 1 file written before profiles were sealed, say) is one
    with field ["magic"] naming that version.  Line numbers count from
    the top of the file. *)

val to_string : Tpdbt_dbt.Snapshot.t -> string
(** The version 1 text. *)

val of_string : string -> (Tpdbt_dbt.Snapshot.t, Tpdbt_dbt.Error.t) result
(** Inverse of {!to_string}. *)

val reader_sharing_blocks :
  unit -> Tpdbt_durable.Durable.Reader.t -> Tpdbt_dbt.Snapshot.t
(** A reader for the profiles of one program that another record
    embeds, such as a checkpoint's stages: the first call parses the
    block section, every later one requires its block section to repeat
    the first byte for byte, and every profile it returns shares one
    {!Tpdbt_dbt.Block_map.t}. *)
