(** Durable records: the persistence decisions every on-disk format
    shares — the checkpoint store ([TPDBT-CKPT]), mid-run engine
    snapshots ([TPDBT-SNAP]), profile files ([TPDBT-PROFILE]) and the
    serving journal ([TPDBT-JRNL]).

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

(** {1 Line records}

    Every payload but the journal's is a run of ['\n']-terminated lines
    of single-space-separated words, most of them opened by a tag word
    naming what the line holds.  {!Writer} produces them; {!Reader} is
    the one parser, so each format keeps only its schema. *)

module Writer : sig
  type t

  val create : unit -> t
  val contents : t -> string

  val line : t -> ('a, Buffer.t, unit) format -> 'a
  (** [line w fmt ...] appends one printf-formatted line and its
      newline. *)

  val ints : t -> string -> int array -> unit
  (** [ints w tag a] appends [tag N v1 ... vN]. *)

  val section : t -> string -> string -> unit
  (** [section w tag text] appends [tag N], then [text] verbatim, where
      [N] is the number of lines in [text] (which ends in a newline):
      how one record embeds another. *)
end

module Reader : sig
  type t
  (** A cursor over a payload's lines and over the words of the current
      line.  Moving to the next line first requires every word of the
      current one to have been read. *)

  type error = { line : int; field : string; reason : string }
  (** [line] is 1-based within the payload; 0 means the lines ran out.
      [field] names what failed to parse. *)

  exception Malformed of error
  (** The one exception every reading function raises; {!run} is the
      boundary that catches it. *)

  val run : string -> (t -> 'a) -> ('a, error) result
  (** [run payload read] applies [read] to a cursor before the first
      line of [payload]. *)

  val fail : t -> string -> string -> 'a
  (** [fail r field reason] raises {!Malformed} at the current line. *)

  val fail_at : int -> string -> string -> 'a
  (** [fail_at line field reason] raises {!Malformed} at [line]. *)

  val line_number : t -> int
  (** The current line's number. *)

  val next : t -> string -> unit
  (** Move to the next line, which carries no tag; the string names it
      in errors. *)

  val tagged : t -> string -> unit
  (** [tagged r tag] moves to the next line, which must start with the
      word(s) [tag]; the cursor then stands at the word after it. *)

  val word : t -> string -> string
  (** The current line's next word; the string names the field in
      errors, as in every reading function below. *)

  val int : t -> string -> int
  (** The next word as a decimal [int] (an optional [-], then digits,
      within range). *)

  val int64 : t -> string -> int64
  val float : t -> string -> float
  (** Any [float_of_string] form, so the [%h] one the writers use. *)

  val count : t -> string -> int
  (** {!int}, rejecting a negative value. *)

  val list : t -> string -> (t -> 'a) -> 'a list
  (** [list r tag item] reads a [tag N] line, then [item] [N] times, in
      order.  [item] reads either further words of the same line or
      further lines. *)

  val ints : t -> string -> int array
  (** A [tag N v1 ... vN] line. *)

  val peek : t -> string option
  (** The first word of the next line, without moving; [None] past the
      last line. *)

  val lines : t -> string -> int -> string
  (** The next [n] lines, verbatim. *)

  val section : t -> string -> t
  (** [section r tag] reads a [tag N] line and returns a cursor over the
      next [N] lines, which [r] then skips.  Line numbers stay those of
      the enclosing payload. *)

  val section_text : t -> string -> string
  (** A [tag N] line and the next [N] lines, verbatim. *)

  val eof : t -> unit
  (** Every line has been read: anything more is ["trailing garbage"]. *)

  val finish : t -> unit
  (** An [end] line, then {!eof}. *)
end

val parse : magic:string -> (Reader.t -> 'a) -> string -> 'a classified
(** [parse ~magic read text]: {!unseal}, then {!Reader.run} [read] over
    the payload; a {!Reader.Malformed} is {!Corrupt}
    ["line N: field: reason"]. *)
