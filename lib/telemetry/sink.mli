(** Event sinks: where the engine's telemetry goes.

    The engine holds exactly one sink and tests it against {!null} by
    physical equality before constructing any event, so a run with the
    default sink pays nothing — no allocation, no call.  Use {!tee} to
    fan one run out to several consumers (e.g. a JSONL log plus a
    metrics collector). *)

type t = {
  emit : step:int -> Event.t -> unit;
  close : unit -> unit;
      (** flush/finalise; every sink tolerates repeated closes *)
}

val null : t
(** The no-op sink.  This exact value (physical identity) marks
    telemetry as disabled. *)

val is_null : t -> bool

val of_fun : (step:int -> Event.t -> unit) -> t
(** Wrap a callback; [close] is a no-op. *)

type buffer
(** Handle onto a {!memory} sink's storage. *)

val memory : ?limit:int -> unit -> t * buffer
(** Buffer events in memory.  At most [limit] events are kept (default
    1_000_000); later ones are counted but dropped. *)

val contents : buffer -> Event.stamped list
(** Buffered events, oldest first. *)

val dropped : buffer -> int
(** Events discarded once the buffer hit its limit. *)

val jsonl : out_channel -> t
(** Write each event as one JSON line ({!Event.to_json}).  [close]
    flushes but does not close the channel (the caller owns it). *)

val collect : into:Metrics.t -> t
(** Aggregate events into a registry:
    - a counter [events.<kind>] per event kind observed;
    - histogram [region.slots] and [region.instrs] from formation
      events;
    - histogram [region.side_exit_rate], observed per region at
      [close] from the accumulated entry/side-exit events (regions
      with no entries are skipped);
    - per span label, counters [span.<label>.count], [.steps] (stamp
      widths), [.minor_words], [.major_words] and a gauge [.seconds]
      (accumulated wall time — nondeterministic; [.major_words]
      counts promotions, so it moves with the timing of minor
      collections);
    - per attribution stage, counters [stage.<stage>.count], [.steps]
      and a gauge [stage.<stage>.cycles]. *)

val tee : t list -> t
(** Forward every event to each sink in order.  [close] closes each. *)
