(** Allocation-regression comparison over two [BENCH_perf.json] files.

    [tpdbt perfdiff old.json new.json] parses both files with the
    strict {!Tpdbt_telemetry.Json} parser, joins their bench rows by
    name, and judges each bench's [alloc_per_instr] (allocated words
    per guest instruction) against a fractional tolerance.  The CLI
    exits nonzero iff {!regressions} is non-empty.  Its one caller is
    [make alloc-gate], which holds bench/main.exe's reading to the
    committed baseline at 1%: allocation per instruction is a property
    of the compiled code, so it reads the same on every run.  Other
    fields of a row ([guest_ips], [cycles], ...) are ignored. *)

type verdict = Regression | Improvement | Within

type delta = {
  bench : string;
  older : float;
  newer : float;
  change : float;  (** fractional: [(newer - older) /. older] *)
  verdict : verdict;
}

type report = {
  tolerance : float;
  deltas : delta list;
  missing : string list;  (** benches in the old file only *)
  added : string list;  (** benches in the new file only *)
  host_note : string option;
      (** set when the two files carry different host metadata *)
}

val judge : tolerance:float -> older:float -> newer:float -> float * verdict
(** [(change, verdict)] for a cost, where lower is better.  A change
    whose magnitude is within [tolerance] is {!Within}; a larger rise
    is a {!Regression} and a larger fall an {!Improvement}.
    [older = 0] with [newer <> 0] counts as a full (1.0) change; both
    zero is no change. *)

val of_strings : tolerance:float -> string -> string -> (report, string) result
(** [of_strings ~tolerance old_contents new_contents].  Each file must
    carry a [host] object — a BENCH file that does not say what
    machine it came from cannot be judged, so a missing or malformed
    stanza is a validation [Error], not a silent pass — and every bench
    row a string [name] and a numeric [alloc_per_instr].  [Error]
    carries a parse or shape diagnostic naming the offending file. *)

val regressions : report -> delta list

val render : report -> string
(** Fixed-width table, one row per common bench, then the
    missing/added benches, the host note and a regression count. *)
