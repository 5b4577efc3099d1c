(** Structured engine events.

    One constructor per observable action of the two-phase translator;
    each is stamped with the engine's guest-instruction counter, which
    serves as the logical clock of the run (the simulated translator has
    no wall clock).  The type is deliberately self-contained — plain
    ints and strings — so the telemetry library has no dependency on the
    engine and any layer can consume the events. *)

type region_kind = Trace | Loop

type pool_reason =
  | Pool_full  (** the candidate pool reached [pool_trigger] blocks *)
  | Registered_twice  (** a registered block reached 2x the threshold *)

type recovery_action =
  | Retry  (** failed retranslation: members re-pooled, trigger decayed *)
  | Dissolve  (** region(s) dissolved back to cold profiling code *)
  | Retranslate  (** a corrupted block will be cold-translated again *)

type t =
  | Block_translated of { block : int; size : int }
      (** first execution: quick cold translation with instrumentation *)
  | Block_registered of { block : int; use : int; threshold : int }
      (** the block's use counter crossed the retranslation threshold *)
  | Pool_trigger of { pool_size : int; reason : pool_reason }
      (** the candidate pool fired; an optimisation round follows *)
  | Region_formed of {
      region : int;
      kind : region_kind;
      slots : int;
      instrs : int;
      entry_block : int;
    }
  | Region_entry of { region : int }
  | Region_side_exit of { region : int; slot : int }
      (** execution left the region through an unanticipated exit *)
  | Region_completion of { region : int }
      (** execution reached the region tail or took a loop back edge *)
  | Region_dissolved of { region : int; entries : int; side_exits : int }
      (** adaptive mode: the region's side-exit rate exceeded the limit *)
  | Phase_begin of { phase : string }
  | Phase_end of { phase : string }
      (** phase transitions; nested ("run" encloses each "optimize") *)
  | Fault_injected of { fault : string; target : int }
      (** the fault injector fired; [fault] is the
          {!Tpdbt_faults.Fault.kind_name} and [target] the victim id
          (block, region or pc; [-1] when no victim was available) *)
  | Recovery of { action : recovery_action; target : int }
      (** the engine's recovery response to an injected fault *)
  | Cache_evicted of { entry_kind : string; id : int; size : int }
      (** the bounded code cache evicted a resident entry;
          [entry_kind] is ["block"] or ["region"], [size] the
          translated guest instructions discarded *)
  | Cache_flushed of { entries : int; instrs : int }
      (** a whole-cache flush (the [Flush_all] policy going over
          capacity, or an injected [Cache_thrash] fault) *)
  | Shadow_divergence of { region : int; reg : int }
      (** the shadow-execution oracle replayed a sampled region entry
          on the cold path and register [reg] disagreed *)
  | Region_quarantined of { region : int; preserved_use : int }
      (** a diverging region was quarantined: dissolved with its
          members' profile counters preserved ([preserved_use] is
          their summed use count) and barred from re-optimisation *)
  | Engine_degraded of { quarantines : int }
      (** the bounded-quarantine watchdog tripped: all regions were
          dropped and the run continues profiling-only *)
  | Span_begin of { span : string }
      (** a profiling span opened ({!Span.enter}); spans nest and are
          stamped with the same clock as every other event *)
  | Span_end of {
      span : string;
      wall_ns : int;
      minor_words : int;
      major_words : int;
    }
      (** the matching span closed, carrying the measured wall-clock
          nanoseconds and the minor/major heap words allocated while it
          was open ([Gc.quick_stat] deltas); the guest-step width of the
          span is the difference of the two stamps *)
  | Stage_cost of { stage : string; cycles : float; steps : int; count : int }
      (** end-of-run attribution: total modeled [cycles], guest [steps]
          executed and charge [count] of one engine stage (interpret,
          translate, optimize, ...) — deterministic, from the cycle
          model, not wall time *)
  | Region_cost of { region : int; cycles : float; instrs : int }
      (** end-of-run attribution: modeled cycles charged to one region
          (dispatch + slot execution + side-exit penalties) and the
          guest instructions it executed *)

type stamped = { step : int; event : t }
(** [step] is the guest-instruction count when the event fired. *)

val kind_name : t -> string
(** Stable snake_case identifier, e.g. ["region_side_exit"].  Fault
    events use dotted names: ["fault.injected"], ["recovery.retry"],
    ["recovery.dissolve"], ["recovery.retranslate"]; so do the code
    cache and the shadow oracle: ["cache.evict"], ["cache.flush"],
    ["shadow.divergence"], ["region.quarantined"],
    ["engine.degraded"].  The profiling layer adds ["span.begin"],
    ["span.end"], ["stage.cost"] and ["region.cost"]. *)

val region_kind_name : region_kind -> string
val pool_reason_name : pool_reason -> string
val recovery_action_name : recovery_action -> string

val payload : t -> (string * string) list
(** Constructor-specific fields as [(key, rendered JSON value)] pairs
    — the building block of both exporters. *)

val to_json : stamped -> string
(** One JSON object (single line, no trailing newline):
    [{"step":..,"kind":..,<payload fields>}]. *)

val pp : Format.formatter -> stamped -> unit
