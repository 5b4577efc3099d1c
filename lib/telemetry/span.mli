(** Nestable profiling spans.

    A span brackets a stretch of host work — an optimisation round,
    a region formation, a benchmark stage — and measures three clocks at
    once: wall time ([Unix.gettimeofday]), words allocated on the minor
    and major heaps ([Gc.quick_stat] deltas), and the caller-supplied
    logical clock that stamps every event (the engine passes its
    guest-instruction counter, so the step width of a span falls out of
    the two stamps).

    Opening a span emits {!Event.Span_begin}; closing it emits
    {!Event.Span_end} carrying the measured deltas.  Like the engine's
    own telemetry, a span set built over {!Sink.null} is detected by
    physical identity and every operation is a no-op — no event, no
    [gettimeofday], no [Gc.quick_stat], no allocation. *)

type t

val create : ?clock:(unit -> int) -> Sink.t -> t
(** [clock] supplies the stamp for the begin/end events (default: a
    constant 0 — fine for schedulers that live outside any engine). *)

val enabled : t -> bool
(** False iff the sink is {!Sink.null}; callers on hot paths can check
    once instead of per operation. *)

val depth : t -> int
(** Number of currently open spans (0 when balanced). *)

val enter : t -> string -> unit
val leave : t -> string -> unit
(** [leave] closes the {e innermost} open span; the label argument is
    documentation (mismatches do not corrupt outer frames).  [leave] on
    an empty stack is a no-op. *)

val wrap : t -> string -> (unit -> 'a) -> 'a
(** [wrap t label f] = [enter]; [f ()]; [leave] — exception-safe. *)
