type region_kind = Trace | Loop

type pool_reason = Pool_full | Registered_twice

type recovery_action = Retry | Dissolve | Retranslate

type t =
  | Block_translated of { block : int; size : int }
  | Block_registered of { block : int; use : int; threshold : int }
  | Pool_trigger of { pool_size : int; reason : pool_reason }
  | Region_formed of {
      region : int;
      kind : region_kind;
      slots : int;
      instrs : int;
      entry_block : int;
    }
  | Region_entry of { region : int }
  | Region_side_exit of { region : int; slot : int }
  | Region_completion of { region : int }
  | Region_dissolved of { region : int; entries : int; side_exits : int }
  | Phase_begin of { phase : string }
  | Phase_end of { phase : string }
  | Fault_injected of { fault : string; target : int }
  | Recovery of { action : recovery_action; target : int }
  | Cache_evicted of { entry_kind : string; id : int; size : int }
  | Cache_flushed of { entries : int; instrs : int }
  | Shadow_divergence of { region : int; reg : int }
  | Region_quarantined of { region : int; preserved_use : int }
  | Engine_degraded of { quarantines : int }
  | Span_begin of { span : string }
  | Span_end of {
      span : string;
      wall_ns : int;
      minor_words : int;
      major_words : int;
    }
  | Stage_cost of { stage : string; cycles : float; steps : int; count : int }
  | Region_cost of { region : int; cycles : float; instrs : int }

type stamped = { step : int; event : t }

let kind_name = function
  | Block_translated _ -> "block_translated"
  | Block_registered _ -> "block_registered"
  | Pool_trigger _ -> "pool_trigger"
  | Region_formed _ -> "region_formed"
  | Region_entry _ -> "region_entry"
  | Region_side_exit _ -> "region_side_exit"
  | Region_completion _ -> "region_completion"
  | Region_dissolved _ -> "region_dissolved"
  | Phase_begin _ -> "phase_begin"
  | Phase_end _ -> "phase_end"
  | Fault_injected _ -> "fault.injected"
  | Recovery { action; _ } -> (
      match action with
      | Retry -> "recovery.retry"
      | Dissolve -> "recovery.dissolve"
      | Retranslate -> "recovery.retranslate")
  | Cache_evicted _ -> "cache.evict"
  | Cache_flushed _ -> "cache.flush"
  | Shadow_divergence _ -> "shadow.divergence"
  | Region_quarantined _ -> "region.quarantined"
  | Engine_degraded _ -> "engine.degraded"
  | Span_begin _ -> "span.begin"
  | Span_end _ -> "span.end"
  | Stage_cost _ -> "stage.cost"
  | Region_cost _ -> "region.cost"

let region_kind_name = function Trace -> "trace" | Loop -> "loop"

let recovery_action_name = function
  | Retry -> "retry"
  | Dissolve -> "dissolve"
  | Retranslate -> "retranslate"

let pool_reason_name = function
  | Pool_full -> "pool_full"
  | Registered_twice -> "registered_twice"

(* Payload fields as (key, rendered JSON value) pairs. *)
let payload = function
  | Block_translated { block; size } ->
      [ ("block", string_of_int block); ("size", string_of_int size) ]
  | Block_registered { block; use; threshold } ->
      [
        ("block", string_of_int block);
        ("use", string_of_int use);
        ("threshold", string_of_int threshold);
      ]
  | Pool_trigger { pool_size; reason } ->
      [
        ("pool_size", string_of_int pool_size);
        ("reason", Json.quote (pool_reason_name reason));
      ]
  | Region_formed { region; kind; slots; instrs; entry_block } ->
      [
        ("region", string_of_int region);
        ("region_kind", Json.quote (region_kind_name kind));
        ("slots", string_of_int slots);
        ("instrs", string_of_int instrs);
        ("entry_block", string_of_int entry_block);
      ]
  | Region_entry { region } -> [ ("region", string_of_int region) ]
  | Region_side_exit { region; slot } ->
      [ ("region", string_of_int region); ("slot", string_of_int slot) ]
  | Region_completion { region } -> [ ("region", string_of_int region) ]
  | Region_dissolved { region; entries; side_exits } ->
      [
        ("region", string_of_int region);
        ("entries", string_of_int entries);
        ("side_exits", string_of_int side_exits);
      ]
  | Phase_begin { phase } -> [ ("phase", Json.quote phase) ]
  | Phase_end { phase } -> [ ("phase", Json.quote phase) ]
  | Fault_injected { fault; target } ->
      [ ("fault", Json.quote fault); ("target", string_of_int target) ]
  | Recovery { action; target } ->
      [
        ("action", Json.quote (recovery_action_name action));
        ("target", string_of_int target);
      ]
  | Cache_evicted { entry_kind; id; size } ->
      [
        ("entry_kind", Json.quote entry_kind);
        ("id", string_of_int id);
        ("size", string_of_int size);
      ]
  | Cache_flushed { entries; instrs } ->
      [ ("entries", string_of_int entries); ("instrs", string_of_int instrs) ]
  | Shadow_divergence { region; reg } ->
      [ ("region", string_of_int region); ("reg", string_of_int reg) ]
  | Region_quarantined { region; preserved_use } ->
      [
        ("region", string_of_int region);
        ("preserved_use", string_of_int preserved_use);
      ]
  | Engine_degraded { quarantines } ->
      [ ("quarantines", string_of_int quarantines) ]
  | Span_begin { span } -> [ ("span", Json.quote span) ]
  | Span_end { span; wall_ns; minor_words; major_words } ->
      [
        ("span", Json.quote span);
        ("wall_ns", string_of_int wall_ns);
        ("minor_words", string_of_int minor_words);
        ("major_words", string_of_int major_words);
      ]
  | Stage_cost { stage; cycles; steps; count } ->
      [
        ("stage", Json.quote stage);
        ("cycles", Json.number cycles);
        ("steps", string_of_int steps);
        ("count", string_of_int count);
      ]
  | Region_cost { region; cycles; instrs } ->
      [
        ("region", string_of_int region);
        ("cycles", Json.number cycles);
        ("instrs", string_of_int instrs);
      ]

let to_json { step; event } =
  let fields =
    ("step", string_of_int step)
    :: ("kind", Json.quote (kind_name event))
    :: payload event
  in
  Json.obj fields

let pp ppf { step; event } =
  Format.fprintf ppf "@[<h>[%d] %s" step (kind_name event);
  List.iter
    (fun (k, v) -> Format.fprintf ppf " %s=%s" k v)
    (payload event);
  Format.fprintf ppf "@]"
