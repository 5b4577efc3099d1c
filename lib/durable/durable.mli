(** Durable records: the persistence decisions every on-disk format
    shares — the checkpoint store ([TPDBT-CKPT]), mid-run engine
    snapshots ([TPDBT-SNAP]) and the serving journal ([TPDBT-JRNL]).

    A {e sealed} record is a magic line naming the format and its
    version, a [crc <hex> <len>] line giving the CRC32 and byte length
    of the payload, then exactly [len] payload bytes:

    {v
MAGIC VERSION
crc <8 lowercase hex digits> <len>
<payload>
    v}

    {!unseal} classifies rather than raises: truncation, bit flips,
    trailing garbage and foreign text are {!Corrupt} with a reason, and
    the same format under another version is {!Stale_version}.  Files
    are published with {!atomic_write}, so a crash leaves either the
    old bytes or the new, never a mixture. *)

type 'a classified =
  | Valid of 'a  (** header, length and CRC check out; payload parsed *)
  | Missing  (** no file *)
  | Stale_version of string
      (** the format's magic under another version (the line is
          carried): sound when written, not readable by this one *)
  | Corrupt of string  (** damaged; the string says how *)

val bind : 'a classified -> ('a -> 'b classified) -> 'b classified
(** Continue with a valid value; pass every other class through. *)

val to_result : what:string -> 'a classified -> ('a, string) result
(** [Ok] for {!Valid}; otherwise a message naming [what] the record is:
    ["missing <what>"], ["stale <what> version: <line>"] or
    ["corrupt <what>: <reason>"]. *)

val crc32 : string -> int
(** CRC32 (IEEE 802.3, reflected; the zlib/PNG polynomial) as a
    non-negative int below [2{^32}]. *)

val crc_hex : string -> string
(** {!crc32} as exactly eight lowercase hex digits. *)

val seal : magic:string -> string -> string
(** [seal ~magic payload] frames [payload] as above.  [magic] is the
    whole first line, version included (["TPDBT-CKPT 4"]). *)

val unseal : magic:string -> string -> string classified
(** The payload of a sealed record; never {!Missing}.  Text whose first
    line starts with [magic]'s name (everything up to and including its
    last space) but differs from [magic] is {!Stale_version}. *)

val read_file : string -> string
(** The whole file, as bytes.
    @raise Sys_error if it cannot be opened or read. *)

val atomic_write : string -> string -> unit
(** [atomic_write path text] publishes [text] at [path]: write
    [path ^ ".tmp"], fsync it, rename it over [path], then fsync the
    containing directory so the rename itself survives a power cut.
    The directory must exist.  On failure before the rename the temp
    file is removed and [path] is untouched.
    @raise Sys_error or [Unix.Unix_error] on I/O failure. *)
