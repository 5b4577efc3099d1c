module Machine = Tpdbt_vm.Machine
module Event = Tpdbt_telemetry.Event
module Sink = Tpdbt_telemetry.Sink
module Span = Tpdbt_telemetry.Span
module Fault = Tpdbt_faults.Fault
module Injector = Tpdbt_faults.Injector

type config = {
  threshold : int;
  pool_trigger : int;
  min_branch_prob : float;
  max_region_slots : int;
  enable_duplication : bool;
  enable_diamonds : bool;
  trace_scheduling : bool;
  regions_across_calls : bool;
  adaptive : bool;
  reopt_side_exit_rate : float;
  reopt_min_entries : int;
  reopt_limit : int;
  perf : Perf_model.params;
  max_steps : int;
  deadline : int option;
  snapshot_every : int;
  suspend_on_deadline : bool;
  sink : Sink.t;
  faults : Tpdbt_faults.Plan.t option;
  retry_limit : int;
  cache_capacity : int option;
  cache_policy : Code_cache.policy;
  cache_backoff : int;
  shadow_sample : int;
  max_quarantines : int;
}

let config ?(pool_trigger = 16) ?(adaptive = false) ?(sink = Sink.null) ?faults
    ?(retry_limit = 3) ?cache_capacity ?(cache_policy = Code_cache.Lru)
    ?(cache_backoff = 1000) ?(shadow_sample = 0) ?(max_quarantines = 4)
    ?deadline ?(snapshot_every = 0) ?(suspend_on_deadline = false) ~threshold
    () =
  {
    threshold;
    pool_trigger;
    min_branch_prob = 0.7;
    max_region_slots = 16;
    enable_duplication = true;
    enable_diamonds = true;
    trace_scheduling = false;
    regions_across_calls = false;
    adaptive;
    reopt_side_exit_rate = 0.3;
    reopt_min_entries = 64;
    reopt_limit = 3;
    perf = Perf_model.default;
    max_steps = 200_000_000;
    deadline;
    snapshot_every;
    suspend_on_deadline;
    sink;
    faults;
    retry_limit;
    cache_capacity;
    cache_policy;
    cache_backoff;
    shadow_sample;
    max_quarantines;
  }

let profiling_only = config ~threshold:0 ()

type region_stats = {
  entries : int;
  side_exits : int;
  loop_back_taken : int;
  loop_back_seen : int;
}

type result = {
  snapshot : Snapshot.t;
  counters : Perf_model.counters;
  steps : int;
  profiling_ops : int;
  outputs : int list;
  region_stats : (int * region_stats) list;
  error : Error.t option;
  faults : Fault.report option;
}

let trap result =
  match result.error with Some (Error.Trap t) -> Some t | Some _ | None -> None

type block_state = Cold | Registered | Optimized

(* Attribution stages: fixed indices into the per-stage accumulators
   that mirror every cycle-charge site when telemetry is enabled.  The
   labels are the public vocabulary of the [stage.cost] events. *)
let s_translate = 0
let s_interpret = 1
let s_profile = 2
let s_side_entry = 3
let s_dispatch = 4
let s_region_exec = 5
let s_side_exit = 6
let s_optimize = 7
let s_evict = 8
let s_shadow = 9

let stage_labels =
  [|
    "translate";
    "interpret";
    "profile";
    "side-entry";
    "region-dispatch";
    "region-exec";
    "side-exit";
    "optimize";
    "evict";
    "shadow-replay";
  |]

(* Mutable per-region runtime monitor (adaptive mode + continuous loop
   profiling). *)
type monitor = {
  mutable m_entries : int;
  mutable m_side_exits : int;
  mutable m_lb_taken : int;
  mutable m_lb_seen : int;
  mutable m_disabled : bool;
      (* adaptive mode: set once a member block has hit the
         re-optimisation limit — the region is then kept for good,
         preventing dissolve/reform thrashing on inherently unstable
         (near-50%) branches *)
}

(* Hot-path mirror of one installed region: everything region
   dispatch needs, predecoded into flat arrays at commit time so a
   region entry performs no hashtable lookups, no list walks and no
   allocation.  The model's [regions] table holds one per installed
   region and its [entry] array points each entry block at the region
   dispatched there; [unlink_region] keeps both in sync. *)
type rentry = {
  r_region : Region.t;
  r_mon : monitor;
  r_slot_cycles : float array;
  r_slots : int array;
      (* slot -> block: the region's own [slots], one load away for the
         next-slot check *)
  r_succ : int array;
      (* The successor table: at [slot * Driver.roles + outcome], the
         slot that runs next when the block of [slot] ends with
         [outcome], -1 when execution leaves the region there.  It is
         the layout's first edge of the outcome's role, where a
         [Driver.flowed] outcome follows the [Always] edge only from an
         unconditional transfer (Goto, Fallthrough, Call_to). *)
  r_has_back : bool array;  (* slot is the source of a back edge *)
  r_tail : int;
  r_is_loop : bool;
}

(* The dispatcher's "no region here", compared by physical equality;
   never executed, so its mutable monitor is never written. *)
let no_region =
  {
    r_region =
      {
        Region.id = -1;
        kind = Region.Trace;
        slots = [||];
        edges = [];
        back_edges = [];
        frozen_use = [||];
        frozen_taken = [||];
      };
    r_mon =
      {
        m_entries = 0;
        m_side_exits = 0;
        m_lb_taken = 0;
        m_lb_seen = 0;
        m_disabled = false;
      };
    r_slot_cycles = [||];
    r_slots = [||];
    r_succ = [||];
    r_has_back = [||];
    r_tail = -1;
    r_is_loop = false;
  }

(* ------------------------------------------------------------------ *)
(* The guest driver                                                     *)
(* ------------------------------------------------------------------ *)

(* The half of the translator that runs the guest: it owns the machine
   and the block map, executes one basic block at a time through
   [Machine.exec_block] — one call per block, which runs the block's
   translated closure chain — and reports the block's id, its outcome
   and the step count.  It keeps no profile, region or cycle state —
   that is the translator model's, below — so one driver can feed any
   number of models.  It lives in this compilation unit so that [step]
   inlines into the loops that feed models. *)
module Driver = struct
  type t = {
    machine : Machine.t;
    bmap : Block_map.t;
    code_len : int;
    starts : int array;  (* pc -> id of the block starting there, or -1 *)
    sizes : int array;  (* block id -> instruction count *)
    schedules : Optimizer.block_result option array;
        (* block id -> the block's optimised schedule, computed on first
           use by any model the driver feeds and kept *)
    mutable steps : int;  (* the machine's step count *)
    mutable next : int;
        (* the block starting at the machine's pc, or -1: past the code
           image ([off_end]) or mid-block *)
  }

  let[@inline] locate d =
    let pc = Machine.pc d.machine in
    d.next <- (if pc < 0 || pc >= d.code_len then -1 else d.starts.(pc))

  let of_machine machine bmap =
    let code_len = Tpdbt_isa.Program.length (Machine.program machine) in
    let d =
      {
        machine;
        bmap;
        code_len;
        starts = Array.init code_len (Block_map.id_at bmap);
        sizes =
          Array.init (Block_map.block_count bmap) (fun b ->
              (Block_map.block bmap b).Block_map.size);
        schedules = Array.make (Block_map.block_count bmap) None;
        steps = Machine.steps machine;
        next = -1;
      }
    in
    locate d;
    d

  (* What a block's terminator did, as an immediate int.  The first
     [roles] name the edge a region follows ([flowed] an unconditional
     transfer's, [took_not] and [took] a branch's); the last two end the
     run.  A branch's outcome is the machine's own event code. *)
  let flowed = 0
  let took_not = Machine.ev_branch_not_taken
  let took = Machine.ev_branch_taken
  let finished = 3
  let trapped = 4
  let roles = 3

  let () =
    assert (
      took_not = 1 && took = 2
      && Machine.ev_stepped = flowed
      && took < Machine.ev_jumped)

  (* Execute block [next], which must be a block id, and locate the one
     after it.  Control transfers end a block, so a block that keeps
     running has executed all of its instructions; a halt or a trap may
     come sooner.  A branch's two codes are adjacent, so one comparison
     passes either through without a guess at the guest's direction. *)
  let[@inline] step d =
    let size = d.sizes.(d.next) in
    let c = Machine.exec_block d.machine size in
    let outcome =
      if c <= took then c (* [ev_stepped] is [flowed] *)
      else if c <= Machine.ev_returned then flowed (* jumped/called/returned *)
      else if c = Machine.ev_halted then finished
      else trapped
    in
    if outcome < finished then d.steps <- d.steps + size
    else d.steps <- Machine.steps d.machine;
    locate d;
    outcome

  (* A recorded stretch of the block stream, which every member of a
     group replays in turn: per event, the block, its outcome, and the
     step count and the machine's output count after it.  [c_bid] holds
     one more entry, so that [c_bid.(i + 1)] is always the block located
     after event [i]: the next event's, or, after the last, the block
     the driver stands at (-1: none).  [c_run.(i)] counts the events from
     [i] to the chunk's end, [i] included, that repeat event [i]'s block
     and outcome with no other event between them, so it is at least 1.
     A group allocates one chunk and reuses it for every stretch; a lone
     engine has none. *)
  type chunk = {
    c_bid : int array;
    c_outcome : int array;
    c_after : int array;
    c_outputs : int array;
    c_run : int array;
    mutable c_len : int;
  }

  let capacity = 1024

  let chunk () =
    {
      c_bid = Array.make (capacity + 1) 0;
      c_outcome = Array.make capacity 0;
      c_after = Array.make capacity 0;
      c_outputs = Array.make capacity 0;
      c_run = Array.make capacity 0;
      c_len = 0;
    }

  (* Run blocks into [c] from event [n] until it is full, the step count
     reaches [until], the run ends or no block starts at the pc: no
     recorded event starts at or past a suspension, and a halt, a trap
     or a [next] of -1 ends the chunk.  Every store is in bounds: event
     arrays are written below [capacity], [c_bid] up to [capacity]. *)
  let rec record d c until n =
    if n = capacity || d.steps >= until || d.next < 0 then begin
      c.c_len <- n;
      Array.unsafe_set c.c_bid n d.next
    end
    else begin
      let bid = d.next in
      let outcome = step d in
      Array.unsafe_set c.c_bid n bid;
      Array.unsafe_set c.c_outcome n outcome;
      Array.unsafe_set c.c_after n d.steps;
      Array.unsafe_set c.c_outputs n (Machine.output_count d.machine);
      if outcome < finished then record d c until (n + 1)
      else begin
        c.c_len <- n + 1;
        Array.unsafe_set c.c_bid (n + 1) d.next
      end
    end

  (* Mark the runs of chunk [c], from its last event back: one pass that
     every member then reads.  A run never crosses the chunk's end. *)
  let mark_runs c =
    let last = c.c_len - 1 in
    for i = last downto 0 do
      Array.unsafe_set c.c_run i
        (if
           i < last
           && Array.unsafe_get c.c_bid (i + 1) = Array.unsafe_get c.c_bid i
           && Array.unsafe_get c.c_outcome (i + 1)
              = Array.unsafe_get c.c_outcome i
         then Array.unsafe_get c.c_run (i + 1) + 1
         else 1)
    done

  (* A final block that ends in a plain instruction falls through past
     the last one: the machine halts on its next step, which executes
     nothing and charges nothing, so its end state matches the plain
     interpreter's. *)
  let off_end d =
    let pc = Machine.pc d.machine in
    pc < 0 || pc >= d.code_len

  let halt_off_end d = ignore (Machine.step_code d.machine)
end

(* ------------------------------------------------------------------ *)
(* The translator model                                                 *)
(* ------------------------------------------------------------------ *)

(* Everything a two-phase translator decides from the guest's block
   stream: counters, the candidate pool, regions and their dispatch,
   the code cache, the recovery machinery and the cycle model.  The
   guest itself runs in a [Driver]; a model consumes what the driver
   reports — block id, outcome and step count.  Beyond reading where a
   run stopped, it touches the machine only where a translator really
   would: fault injection and the shadow oracle's register comparison,
   which is why those runs keep a driver of their own. *)
type model = {
  cfg : config;
  program : Tpdbt_isa.Program.t;
  bmap : Block_map.t;
  sizes : int array;  (* block id -> instruction count, the driver's *)
  schedules : Optimizer.block_result option array;  (* the driver's *)
  use : int array;
  taken : int array;
  state : block_state array;
  touched : bool array;
  dissolve_count : int array;  (* per block, adaptive mode *)
  entry : rentry array;
      (* block id -> region dispatched when execution reaches it at a
         dispatch point ([no_region] when none): the oldest surviving
         region entered there *)
  regions : (int, rentry) Hashtbl.t;  (* region id -> installed region *)
  mutable regions_rev : Region.t list;
  mutable next_region_id : int;
  mutable pool : int list;
  mutable pool_size : int;
  mutable pool_trigger_now : int;
      (* effective pool trigger: decays (halves) after an injected
         retranslation failure so the retry happens promptly, and is
         restored to the configured value by a clean optimisation
         round *)
  fault_fails : int array;
      (* per block: injected retranslation failures / formation aborts
         of regions rooted there — the bounded-retry budget *)
  cache : Code_cache.t;
  quarantined : bool array;
      (* per block: member of a region the shadow oracle quarantined —
         never registered or re-optimised again, but keeps profiling *)
  mutable quarantine_count : int;
  mutable degraded : bool;
      (* the bounded-quarantine watchdog tripped: profiling-only from
         here on *)
  mutable last_round_step : int;
      (* guest step of the last optimisation round — under a bounded
         cache, rounds are spaced at least [cache_backoff] steps apart
         so eviction-driven re-pooling cannot re-trigger the optimiser
         on every block execution (the thrash stays in the cycle
         model, not in wall-clock) *)
  inj : Injector.t option;
  counters : Perf_model.counters;
  cycles_acc : float array;
      (* single-cell accumulator behind [counters.cycles]: a float
         array stores its element unboxed, where the mutable float
         field of the mixed int/float [counters] record boxes on every
         store.  Every charge site adds here, and the cell is mirrored
         back into the counters when the model stops — the sum (and
         hence every emitted figure) stays bit-identical. *)
  mutable error : Error.t option;
  trace : bool;
      (* telemetry enabled?  Checked before constructing any event, so
         the default null sink costs nothing on the hot paths. *)
  plain : bool;
      (* no telemetry and an unbounded cache: a profiled block that is
         already translated needs no event, charge mirror or cache
         touch *)
  mutable reg_use : int;
      (* the use count from which a profiled execution may register its
         block: the threshold, or [max_int] once the model never
         optimises (threshold 0, or degraded) *)
  mutable twice_use : int;
      (* the use count from which a registered block fires the pool:
         twice the threshold, or [max_int] as [reg_use] is *)
  clock : int ref;
      (* the guest step the model stands at: the step before the block
         it is accounting for, then the step after it.  Stamps events,
         spans and code-cache recency. *)
  spans : Span.t;
      (* profiling spans over the engine's coarse stages (run, optimize,
         region formation, eviction, shadow replay), stamped with the
         guest clock; no-ops when [trace] is false *)
  stage_cycles : float array;
      (* per-stage mirrors of every cycle charge, indexed by the
         [s_*] stage constants; updated only under [if t.trace] and
         emitted as [Stage_cost] events at the end of the run *)
  stage_steps : int array;
  stage_count : int array;
  region_cost : (int, float ref * int ref) Hashtbl.t;
      (* region id -> (cycles charged, guest instrs executed inside);
         updated only under [if t.trace] *)
  (* Where the model stands in the block stream. *)
  mutable cur : int;
      (* entry block of the region being executed ([entry.(cur)]), or
         -1: an int, so entering and leaving a region stores no pointer *)
  mutable slot : int;  (* the slot whose block runs next in [cur] *)
  mutable entered_at : int;  (* guest step of the entry into [cur] *)
  mutable sampled : bool;  (* that entry is replayed by the shadow oracle *)
  mutable live : bool;
  mutable stop_steps : int;
  mutable stop_outputs : int;  (* the machine's output count at the stop *)
  (* Per-run triggers, armed by [begin_run]. *)
  mutable deadline_step : int;
  mutable snapshot_step : int;
  mutable stop_step : int;
      (* the least of the deadline, snapshot and budget steps: a dispatch
         point before it stops on none of them *)
}

let model_create cfg program (d : Driver.t) =
  let bmap = d.bmap in
  let n = Block_map.block_count bmap in
  let clock = ref 0 in
  let trace = not (Sink.is_null cfg.sink) in
  {
    cfg;
    program;
    bmap;
    sizes = d.sizes;
    schedules = d.schedules;
    use = Array.make n 0;
    taken = Array.make n 0;
    state = Array.make n Cold;
    touched = Array.make n false;
    dissolve_count = Array.make n 0;
    entry = Array.make n no_region;
    regions = Hashtbl.create 32;
    regions_rev = [];
    next_region_id = 0;
    pool = [];
    pool_size = 0;
    pool_trigger_now = cfg.pool_trigger;
    fault_fails = Array.make n 0;
    cache =
      Code_cache.create ?capacity:cfg.cache_capacity ~policy:cfg.cache_policy
        ();
    quarantined = Array.make n false;
    quarantine_count = 0;
    degraded = false;
    (* [- backoff] keeps [steps - last_round_step] overflow-free and
       lets the first round fire immediately. *)
    last_round_step = -cfg.cache_backoff;
    inj = Option.map Injector.create cfg.faults;
    counters = Perf_model.fresh_counters ();
    cycles_acc = Array.make 1 0.0;
    error = None;
    trace;
    plain = (not trace) && cfg.cache_capacity = None;
    reg_use = (if cfg.threshold > 0 then cfg.threshold else max_int);
    twice_use = (if cfg.threshold > 0 then 2 * cfg.threshold else max_int);
    clock;
    spans = Span.create ~clock:(fun () -> !clock) cfg.sink;
    stage_cycles = Array.make (Array.length stage_labels) 0.0;
    stage_steps = Array.make (Array.length stage_labels) 0;
    stage_count = Array.make (Array.length stage_labels) 0;
    region_cost = Hashtbl.create 16;
    cur = -1;
    slot = 0;
    entered_at = 0;
    sampled = false;
    live = true;
    stop_steps = 0;
    stop_outputs = 0;
    deadline_step = max_int;
    snapshot_step = max_int;
    stop_step = max_int;
  }

(* Call only under [if t.trace then ...] so disabled telemetry never
   allocates an event. *)
let emit t event = t.cfg.sink.Sink.emit ~step:!(t.clock) event

(* Mirror a cycle charge into the per-stage attribution accumulators.
   Call only under [if t.trace]; the perf counters stay the single
   source of truth and are updated at the charge site itself. *)
let charge t stage ?(steps = 0) ?(count = 1) cycles =
  t.stage_cycles.(stage) <- t.stage_cycles.(stage) +. cycles;
  t.stage_steps.(stage) <- t.stage_steps.(stage) + steps;
  t.stage_count.(stage) <- t.stage_count.(stage) + count

(* Tally a charge against one region.  Call only under [if t.trace]. *)
let region_charge t rid cycles instrs =
  let cyc, ins =
    match Hashtbl.find_opt t.region_cost rid with
    | Some r -> r
    | None ->
        let r = (ref 0.0, ref 0) in
        Hashtbl.add t.region_cost rid r;
        r
  in
  cyc := !cyc +. cycles;
  ins := !ins + instrs

(* End-of-run attribution: one [Stage_cost] per charged stage (fixed
   stage order) and one [Region_cost] per region (ascending id), all
   emitted while the "engine.run" span is still open so the profiler
   attaches them beneath it. *)
let emit_costs t =
  Array.iteri
    (fun i label ->
      if t.stage_count.(i) > 0 then
        emit t
          (Event.Stage_cost
             {
               stage = label;
               cycles = t.stage_cycles.(i);
               steps = t.stage_steps.(i);
               count = t.stage_count.(i);
             }))
    stage_labels;
  Hashtbl.fold (fun rid (cyc, ins) acc -> (rid, !cyc, !ins) :: acc)
    t.region_cost []
  |> List.sort compare
  |> List.iter (fun (region, cycles, instrs) ->
         emit t (Event.Region_cost { region; cycles; instrs }))

(* ------------------------------------------------------------------ *)
(* Region bookkeeping shared by dissolution, eviction and quarantine    *)
(* ------------------------------------------------------------------ *)

let region_instrs t (r : Region.t) =
  Array.fold_left
    (fun acc b -> acc + (Block_map.block t.bmap b).Block_map.size)
    0 r.Region.slots

(* Block [b]'s optimised schedule.  It depends on the block alone, so
   the driver keeps it from its first use: a group's members and every
   re-install of a region share one computation. *)
let block_schedule t b =
  match t.schedules.(b) with
  | Some s -> s
  | None ->
      let blk = Block_map.block t.bmap b in
      let s =
        Optimizer.optimize_block
          (Array.sub t.program.Tpdbt_isa.Program.code blk.Block_map.start_pc
             blk.Block_map.size)
      in
      t.schedules.(b) <- Some s;
      s

let build_rentry t (r : Region.t) mon =
  let layout = Region.layout r in
  let succ = Array.make (Array.length r.Region.slots * Driver.roles) (-1) in
  Array.iteri
    (fun slot bid ->
      let at = slot * Driver.roles in
      succ.(at + Driver.took) <- layout.Region.dst_taken.(slot);
      succ.(at + Driver.took_not) <- layout.Region.dst_not_taken.(slot);
      match (Block_map.block t.bmap bid).Block_map.terminator with
      | Block_map.Goto _ | Block_map.Fallthrough _ | Block_map.Call_to _ ->
          succ.(at + Driver.flowed) <- layout.Region.dst_always.(slot)
      | Block_map.Cond _ | Block_map.Return | Block_map.Stop -> ())
    r.Region.slots;
  {
    r_region = r;
    r_mon = mon;
    r_slot_cycles =
      Array.mapi
        (fun slot b ->
          float_of_int
            (Optimizer.slot_cycles (block_schedule t b)
               ~pipelined:t.cfg.trace_scheduling
               ~has_succ:layout.Region.has_succ.(slot)))
        r.Region.slots;
    r_slots = r.Region.slots;
    r_succ = succ;
    r_has_back = layout.Region.has_back;
    r_tail = layout.Region.tail;
    r_is_loop = r.Region.kind = Region.Loop;
  }

let unlink_region t rid =
  Hashtbl.remove t.regions rid;
  t.regions_rev <- List.filter (fun r -> r.Region.id <> rid) t.regions_rev

(* Rebuild the dispatcher's entry map from the surviving regions, in
   formation order. *)
let rebuild_region_entries t =
  Array.fill t.entry 0 (Array.length t.entry) no_region;
  List.iter
    (fun r ->
      let entry = Region.entry_block r in
      if t.entry.(entry) == no_region then
        t.entry.(entry) <- Hashtbl.find t.regions r.Region.id)
    (List.rev t.regions_rev)

let still_in_region t =
  let tbl = Hashtbl.create 16 in
  Hashtbl.iter
    (fun _ re ->
      Array.iter (fun b -> Hashtbl.replace tbl b ()) re.r_region.Region.slots)
    t.regions;
  fun b -> Hashtbl.mem tbl b

(* A region evicted by the bounded code cache is not gone for cause:
   its members fall back to profiled execution with their counters
   {e preserved} and return to the candidate pool, so a later
   optimisation round can re-form it — paying the retranslation cost
   again.  That churn is exactly what the cache-size sweep measures. *)
let evict_region t rid =
  match Hashtbl.find_opt t.regions rid with
  | None -> ()
  | Some re ->
      unlink_region t rid;
      let still = still_in_region t in
      Array.iter
        (fun b ->
          if not (still b) then
            if t.quarantined.(b) then t.state.(b) <- Cold
            else begin
              t.state.(b) <- Registered;
              if (not t.degraded) && not (List.mem b t.pool) then begin
                t.pool <- b :: t.pool;
                t.pool_size <- t.pool_size + 1
              end
            end)
        re.r_region.Region.slots;
      rebuild_region_entries t

let apply_victims t victims =
  if t.trace && victims <> [] then Span.enter t.spans "engine.evict";
  List.iter
    (fun (v : Code_cache.entry) ->
      t.cycles_acc.(0) <-
        t.cycles_acc.(0)
        +. (float_of_int v.Code_cache.size
           *. t.cfg.perf.Perf_model.evict_per_instr);
      if t.trace then
        charge t s_evict
          (float_of_int v.Code_cache.size
          *. t.cfg.perf.Perf_model.evict_per_instr);
      if t.trace then
        emit t
          (Event.Cache_evicted
             {
               entry_kind =
                 (match v.Code_cache.ekind with
                 | Code_cache.Block -> "block"
                 | Code_cache.Region -> "region");
               id = v.Code_cache.id;
               size = v.Code_cache.size;
             });
      match v.Code_cache.ekind with
      | Code_cache.Block ->
          (* The next execution pays cold translation again. *)
          t.touched.(v.Code_cache.id) <- false
      | Code_cache.Region -> evict_region t v.Code_cache.id)
    victims;
  if t.trace && victims <> [] then Span.leave t.spans "engine.evict"

(* ------------------------------------------------------------------ *)
(* Optimisation phase                                                   *)
(* ------------------------------------------------------------------ *)

(* Injected retranslation failure: the region is not installed.  Its
   members keep their profiles and return to the candidate pool, and
   the pool trigger decays so the retry fires promptly; past the retry
   budget the engine gives up with a typed error (the IA32EL-style
   bail-out). *)
let recover_retranslation_failure t inj arm (r : Region.t) =
  let step = !(t.clock) in
  let entry = Region.entry_block r in
  Injector.record inj arm ~fired_step:step ~target:r.Region.id;
  t.counters.Perf_model.faults_injected <-
    t.counters.Perf_model.faults_injected + 1;
  if t.trace then
    emit t
      (Event.Fault_injected
         { fault = Fault.kind_name Fault.Retranslate_fail; target = r.Region.id });
  t.fault_fails.(entry) <- t.fault_fails.(entry) + 1;
  if t.fault_fails.(entry) > t.cfg.retry_limit then
    t.error <-
      Some
        (Error.Retranslation_failed
           { region = r.Region.id; block = entry; attempts = t.fault_fails.(entry) })
  else begin
    t.pool_trigger_now <- max 1 (t.pool_trigger_now / 2);
    t.counters.Perf_model.retrans_retries <-
      t.counters.Perf_model.retrans_retries + 1;
    if t.trace then
      emit t (Event.Recovery { action = Event.Retry; target = r.Region.id });
    Array.iter
      (fun b ->
        if t.state.(b) <> Optimized then begin
          t.state.(b) <- Registered;
          if not (List.mem b t.pool) then begin
            t.pool <- b :: t.pool;
            t.pool_size <- t.pool_size + 1
          end
        end)
      r.Region.slots
  end

(* Injected formation abort: the half-built region is thrown away and
   its members return to cold profiling code with fresh counters (the
   dissolution recovery path); past the retry budget the engine gives
   up with a typed error. *)
let recover_region_abort t inj arm (r : Region.t) =
  let step = !(t.clock) in
  let entry = Region.entry_block r in
  Injector.record inj arm ~fired_step:step ~target:r.Region.id;
  t.counters.Perf_model.faults_injected <-
    t.counters.Perf_model.faults_injected + 1;
  if t.trace then
    emit t
      (Event.Fault_injected
         { fault = Fault.kind_name Fault.Region_abort; target = r.Region.id });
  t.fault_fails.(entry) <- t.fault_fails.(entry) + 1;
  if t.fault_fails.(entry) > t.cfg.retry_limit then
    t.error <-
      Some
        (Error.Region_aborted
           { region = r.Region.id; block = entry; attempts = t.fault_fails.(entry) })
  else begin
    t.counters.Perf_model.fault_dissolves <-
      t.counters.Perf_model.fault_dissolves + 1;
    if t.trace then
      emit t (Event.Recovery { action = Event.Dissolve; target = r.Region.id });
    Array.iter
      (fun b ->
        if t.state.(b) <> Optimized then begin
          t.state.(b) <- Cold;
          t.use.(b) <- 0;
          t.taken.(b) <- 0
        end)
      r.Region.slots
  end

let fresh_monitor () =
  {
    m_entries = 0;
    m_side_exits = 0;
    m_lb_taken = 0;
    m_lb_seen = 0;
    m_disabled = false;
  }

let optimize t =
  if t.trace then begin
    emit t (Event.Phase_begin { phase = "optimize" });
    Span.enter t.spans "engine.optimize"
  end;
  t.last_round_step <- !(t.clock);
  t.counters.Perf_model.optimization_rounds <-
    t.counters.Perf_model.optimization_rounds + 1;
  let seeds =
    List.sort (fun a b -> compare t.use.(b) t.use.(a)) t.pool
  in
  (* Clear the pool before committing regions: recovery from an
     injected retranslation failure re-pools the failed region's
     members, and those must survive to the next round. *)
  t.pool <- [];
  t.pool_size <- 0;
  let former_cfg =
    {
      Region_former.threshold = t.cfg.threshold;
      min_branch_prob = t.cfg.min_branch_prob;
      max_slots = t.cfg.max_region_slots;
      enable_duplication = t.cfg.enable_duplication;
      enable_diamonds = t.cfg.enable_diamonds;
      across_calls = t.cfg.regions_across_calls;
    }
  in
  let owner b =
    match t.state.(b) with
    | Optimized -> Region_former.Owned
    | Cold | Registered -> Region_former.Unowned
  in
  let new_regions =
    if t.trace then Span.enter t.spans "engine.region_form";
    let regions =
      Region_former.form former_cfg ~block_map:t.bmap ~use:t.use ~taken:t.taken
        ~owner ~seeds ~first_id:t.next_region_id
    in
    if t.trace then Span.leave t.spans "engine.region_form";
    regions
  in
  let commit r =
      let re = build_rentry t r (fresh_monitor ()) in
      Hashtbl.replace t.regions r.Region.id re;
      t.regions_rev <- r :: t.regions_rev;
      t.counters.Perf_model.regions_formed <-
        t.counters.Perf_model.regions_formed + 1;
      let instrs = region_instrs t r in
      if t.trace then
        emit t
          (Event.Region_formed
             {
               region = r.Region.id;
               kind =
                 (match r.Region.kind with
                 | Region.Trace -> Event.Trace
                 | Region.Loop -> Event.Loop);
               slots = Array.length r.Region.slots;
               instrs;
               entry_block = Region.entry_block r;
             });
      (* Retranslation cost: proportional to region size in instructions. *)
      Array.iter
        (fun block ->
          let size = (Block_map.block t.bmap block).Block_map.size in
          t.cycles_acc.(0) <-
            t.cycles_acc.(0)
            +. (float_of_int size *. t.cfg.perf.Perf_model.optimize_per_instr);
          if t.trace then
            charge t s_optimize
              (float_of_int size *. t.cfg.perf.Perf_model.optimize_per_instr))
        r.Region.slots;
      (* Freeze members; record the region entry for dispatch. *)
      Array.iter (fun block -> t.state.(block) <- Optimized) r.Region.slots;
      let entry = Region.entry_block r in
      if t.entry.(entry) == no_region then t.entry.(entry) <- re;
      (* Charge the region to the code cache; over capacity, the
         policy's victims are de-installed here and now. *)
      apply_victims t
        (Code_cache.insert t.cache ~now:!(t.clock) ~ekind:Code_cache.Region
           ~id:r.Region.id ~size:instrs)
  in
  let clean_round = ref true in
  List.iter
    (fun r ->
      t.next_region_id <- t.next_region_id + 1;
      if t.error = None then begin
        let step = !(t.clock) in
        match t.inj with
        | None -> commit r
        | Some inj -> (
            match Injector.take inj ~step Fault.Region_abort with
            | Some arm -> recover_region_abort t inj arm r
            | None -> (
                match Injector.take inj ~step Fault.Retranslate_fail with
                | Some arm ->
                    clean_round := false;
                    recover_retranslation_failure t inj arm r
                | None -> commit r))
      end)
    new_regions;
  if !clean_round then t.pool_trigger_now <- t.cfg.pool_trigger;
  if t.trace then begin
    Span.leave t.spans "engine.optimize";
    emit t (Event.Phase_end { phase = "optimize" })
  end

(* Adaptive mode: dissolve a region whose side-exit rate shows that its
   frozen profile no longer matches execution (the paper's §5
   "monitoring region side exits to trigger retranslation").  Member
   blocks not shared with a surviving region return to the profiling
   phase with fresh counters, so their next profile reflects the new
   phase; the dispatcher's entry map is rebuilt from the survivors. *)
let dissolve t (region : Region.t) =
  Array.iter
    (fun b -> t.dissolve_count.(b) <- t.dissolve_count.(b) + 1)
    region.Region.slots;
  unlink_region t region.Region.id;
  Code_cache.remove t.cache Code_cache.Region region.Region.id;
  t.counters.Perf_model.regions_dissolved <-
    t.counters.Perf_model.regions_dissolved + 1;
  let still = still_in_region t in
  Array.iter
    (fun b ->
      if not (still b) then begin
        t.state.(b) <- Cold;
        t.use.(b) <- 0;
        t.taken.(b) <- 0
      end)
    region.Region.slots;
  rebuild_region_entries t

(* ------------------------------------------------------------------ *)
(* Block accounting                                                     *)
(* ------------------------------------------------------------------ *)

(* The short path of a profiled block: [bid] is translated and not
   optimised, the pool stays below its trigger, and its use count after
   this execution stays below [reg_use] for a cold block and below
   [twice_use] for a registered one, so that the execution can neither
   register the block nor fire the pool.  [short_bound] is that bound,
   or 0 where the short path is closed; the path itself changes nothing
   the bound reads. *)
let[@inline] short_bound t bid =
  if t.touched.(bid) && t.pool_size < t.pool_trigger_now then
    match t.state.(bid) with
    | Cold -> t.reg_use
    | Registered -> t.twice_use
    | Optimized -> 0
  else 0

(* Take the short path [n] times in a row, the first execution bringing
   the use count to [use]: update the counters, and return the cycle sum
   [cycles] plus [n] times the execution's charge, added one by one in
   the general case's order, so that a run sums as its single steps
   do. *)
let[@inline] profile_short t bid outcome use n cycles =
  let perf = t.cfg.perf in
  (* a guest branch's direction is not worth a guess here: count it
     with no jump *)
  let took = Bool.to_int (outcome = Driver.took) in
  let exec =
    float_of_int t.sizes.(bid) *. perf.Perf_model.profiled_exec_per_instr
  in
  let ops = float_of_int (1 + took) *. perf.Perf_model.profiling_op_cost in
  t.use.(bid) <- use + n - 1;
  t.taken.(bid) <- t.taken.(bid) + (took * n);
  let cycles = ref cycles in
  for _ = 1 to n do
    cycles := !cycles +. exec +. ops
  done;
  !cycles

(* Block [bid] ran outside any region, from guest step [before] to
   [after], ending with [outcome]: charge its translation (first
   execution) and its execution, profiled unless it is optimised, then
   register it and fire the optimisation phase as the thresholds
   dictate.  A model with no telemetry and an unbounded cache takes the
   short path when it can: it needs no event, charge mirror or cache
   touch. *)
let single t bid outcome ~before ~after =
  let use = t.use.(bid) + 1 in
  if t.plain && use < short_bound t bid then
    t.cycles_acc.(0) <- profile_short t bid outcome use 1 t.cycles_acc.(0)
  else begin
    let b = Block_map.block t.bmap bid in
    let perf = t.cfg.perf in
    t.clock := before;
    if not t.touched.(bid) then begin
      t.touched.(bid) <- true;
      if t.trace then
        emit t (Event.Block_translated { block = bid; size = b.Block_map.size });
      t.counters.Perf_model.blocks_translated <-
        t.counters.Perf_model.blocks_translated + 1;
      t.cycles_acc.(0) <-
        t.cycles_acc.(0)
        +. (float_of_int b.Block_map.size
           *. perf.Perf_model.cold_translate_per_instr);
      if t.trace then
        charge t s_translate
          (float_of_int b.Block_map.size
          *. perf.Perf_model.cold_translate_per_instr);
      apply_victims t
        (Code_cache.insert t.cache ~now:before ~ekind:Code_cache.Block ~id:bid
           ~size:b.Block_map.size)
    end
    else if Code_cache.bounded t.cache then
      Code_cache.touch t.cache ~now:before Code_cache.Block bid;
    t.clock := after;
    match t.state.(bid) with
    | Optimized ->
        (* Side entry to an optimised block: instrumentation removed. *)
        t.cycles_acc.(0) <-
          t.cycles_acc.(0)
          +. (float_of_int b.Block_map.size
             *. perf.Perf_model.translated_exec_per_instr);
        if t.trace then
          charge t s_side_entry ~steps:(after - before)
            (float_of_int b.Block_map.size
            *. perf.Perf_model.translated_exec_per_instr)
    | Cold | Registered ->
        t.use.(bid) <- t.use.(bid) + 1;
        let ops =
          if outcome = Driver.took then begin
            t.taken.(bid) <- t.taken.(bid) + 1;
            2
          end
          else 1
        in
        t.cycles_acc.(0) <-
          t.cycles_acc.(0)
          +. (float_of_int b.Block_map.size
             *. perf.Perf_model.profiled_exec_per_instr)
          +. (float_of_int ops *. perf.Perf_model.profiling_op_cost);
        if t.trace then begin
          charge t s_interpret ~steps:(after - before)
            (float_of_int b.Block_map.size
            *. perf.Perf_model.profiled_exec_per_instr);
          charge t s_profile ~count:ops
            (float_of_int ops *. perf.Perf_model.profiling_op_cost)
        end;
        if t.cfg.threshold > 0 && not t.degraded then begin
          (match t.state.(bid) with
          | Cold ->
              if t.use.(bid) >= t.cfg.threshold && not t.quarantined.(bid)
              then begin
                t.state.(bid) <- Registered;
                t.pool <- bid :: t.pool;
                t.pool_size <- t.pool_size + 1;
                if t.trace then
                  emit t
                    (Event.Block_registered
                       {
                         block = bid;
                         use = t.use.(bid);
                         threshold = t.cfg.threshold;
                       })
              end
          | Registered | Optimized -> ());
          let registered_twice =
            match t.state.(bid) with
            | Registered -> t.use.(bid) >= 2 * t.cfg.threshold
            | Cold | Optimized -> false
          in
          let backoff_ok =
            (not (Code_cache.bounded t.cache))
            || after - t.last_round_step >= t.cfg.cache_backoff
          in
          if
            t.pool_size > 0 && backoff_ok
            && (registered_twice || t.pool_size >= t.pool_trigger_now)
          then begin
            if t.trace then
              emit t
                (Event.Pool_trigger
                   {
                     pool_size = t.pool_size;
                     reason =
                       (if registered_twice then Event.Registered_twice
                        else Event.Pool_full);
                   });
            optimize t
          end
        end
  end

(* ------------------------------------------------------------------ *)
(* Quarantine and the bounded-quarantine watchdog                       *)
(* ------------------------------------------------------------------ *)

(* Too many quarantines: the optimiser itself is suspect.  Drop every
   region (profile counters preserved), empty the pool, and run
   profiling-only for the rest of the run — degraded but correct. *)
let degrade t =
  t.degraded <- true;
  t.reg_use <- max_int;
  t.twice_use <- max_int;
  t.counters.Perf_model.watchdog_degraded <- 1;
  let rs =
    Hashtbl.fold (fun _ re acc -> re.r_region :: acc) t.regions []
    |> List.sort (fun a b -> compare a.Region.id b.Region.id)
  in
  List.iter
    (fun (r : Region.t) ->
      unlink_region t r.Region.id;
      Code_cache.remove t.cache Code_cache.Region r.Region.id;
      Array.iter
        (fun b -> if t.state.(b) = Optimized then t.state.(b) <- Cold)
        r.Region.slots)
    rs;
  t.pool <- [];
  t.pool_size <- 0;
  rebuild_region_entries t;
  if t.trace then
    emit t (Event.Engine_degraded { quarantines = t.quarantine_count })

(* Shadow divergence: the region's translated code produced wrong
   architectural state.  Quarantine it — dissolve with the members'
   use/taken counters {e preserved} (they are real executions; the
   AVEP profile must survive) and bar the members from ever being
   registered or re-optimised again. *)
let quarantine t rid (region : Region.t) =
  let preserved_use =
    Array.fold_left (fun acc b -> acc + t.use.(b)) 0 region.Region.slots
  in
  unlink_region t rid;
  Code_cache.remove t.cache Code_cache.Region rid;
  t.counters.Perf_model.regions_quarantined <-
    t.counters.Perf_model.regions_quarantined + 1;
  t.quarantine_count <- t.quarantine_count + 1;
  let still = still_in_region t in
  Array.iter
    (fun b ->
      t.quarantined.(b) <- true;
      if not (still b) then t.state.(b) <- Cold)
    region.Region.slots;
  rebuild_region_entries t;
  if t.trace then
    emit t (Event.Region_quarantined { region = rid; preserved_use });
  if t.quarantine_count > t.cfg.max_quarantines then degrade t

(* Shadow-execution oracle: replay what the region just executed
   block-by-block on the cold path and compare architectural state.
   The interpreter {e is} the cold path here, so the replay is charged
   as cycles and the reference register file is the machine's own; the
   translated side's registers differ exactly when the region's cached
   code image carries a silent corruption, whose salt perturbs one
   register — the wrong-result execution the oracle exists to catch. *)
let shadow_check t machine rid =
  if t.trace then Span.enter t.spans "engine.shadow_replay";
  let perf = t.cfg.perf in
  let replayed = Machine.steps machine - t.entered_at in
  t.counters.Perf_model.shadow_replays <-
    t.counters.Perf_model.shadow_replays + 1;
  t.cycles_acc.(0) <-
    t.cycles_acc.(0)
    +. (float_of_int replayed *. perf.Perf_model.shadow_replay_per_instr);
  if t.trace then
    charge t s_shadow
      (float_of_int replayed *. perf.Perf_model.shadow_replay_per_instr);
  let reference =
    Array.of_list (List.map (fun r -> Machine.reg machine r) Tpdbt_isa.Reg.all)
  in
  let translated = Array.copy reference in
  (match Code_cache.corruption t.cache Code_cache.Region rid with
  | None -> ()
  | Some salt ->
      let nregs = Array.length translated in
      let idx =
        Int64.to_int
          (Int64.rem (Int64.logand salt Int64.max_int) (Int64.of_int nregs))
      in
      (* [lor 1] keeps the perturbation nonzero for every salt. *)
      let delta = 1 lor Int64.to_int (Int64.logand salt 0xffffL) in
      translated.(idx) <- translated.(idx) lxor delta);
  let diverged = ref (-1) in
  Array.iteri
    (fun i v -> if !diverged < 0 && v <> reference.(i) then diverged := i)
    translated;
  (if !diverged >= 0 then begin
     t.counters.Perf_model.shadow_divergences <-
       t.counters.Perf_model.shadow_divergences + 1;
     if t.trace then
       emit t (Event.Shadow_divergence { region = rid; reg = !diverged });
     match Hashtbl.find_opt t.regions rid with
     | Some re -> quarantine t rid re.r_region
     | None -> ()
   end);
  if t.trace then Span.leave t.spans "engine.shadow_replay"

(* ------------------------------------------------------------------ *)
(* Region dispatch                                                      *)
(* ------------------------------------------------------------------ *)

(* Count an entry into region [re], and return the cycle sum [cycles]
   plus the optimised dispatch. *)
let[@inline] count_entry t re cycles =
  t.counters.Perf_model.region_entries <-
    t.counters.Perf_model.region_entries + 1;
  re.r_mon.m_entries <- re.r_mon.m_entries + 1;
  cycles +. t.cfg.perf.Perf_model.optimized_dispatch

(* Enter region [re] at its entry block, at guest step [before]: touch
   its cache entry, decide {e before} execution whether this entry is
   shadow-sampled (the decision depends only on the monitor's entry
   count, so it is deterministic and independent of the oracle's own
   effects), and charge the optimised dispatch. *)
let enter_region t re ~before =
  t.clock := before;
  let rid = re.r_region.Region.id in
  if Code_cache.bounded t.cache then
    Code_cache.touch t.cache ~now:before Code_cache.Region rid;
  if
    Code_cache.has_corruption t.cache
    && Code_cache.corruption t.cache Code_cache.Region rid <> None
  then
    t.counters.Perf_model.corrupted_entries <-
      t.counters.Perf_model.corrupted_entries + 1;
  t.sampled <-
    t.cfg.shadow_sample > 0 && re.r_mon.m_entries mod t.cfg.shadow_sample = 0;
  t.entered_at <- before;
  if t.trace then emit t (Event.Region_entry { region = rid });
  t.cycles_acc.(0) <- count_entry t re t.cycles_acc.(0);
  if t.trace then begin
    charge t s_dispatch t.cfg.perf.Perf_model.optimized_dispatch;
    region_charge t rid t.cfg.perf.Perf_model.optimized_dispatch 0
  end;
  t.cur <- Region.entry_block re.r_region;
  t.slot <- 0

(* The block of [slot] closes region [re]: it is a back edge's source or
   the tail. *)
let[@inline] closes re slot = re.r_has_back.(slot) || slot = re.r_tail

(* Count the exit from region [re] after the block of [slot], outside
   its edges — a completion when that block closes the region,
   otherwise a side exit — and return the cycle sum [cycles] plus a side
   exit's penalty. *)
let[@inline] count_exit t re slot cycles =
  let mon = re.r_mon in
  if re.r_has_back.(slot) then mon.m_lb_seen <- mon.m_lb_seen + 1;
  if closes re slot then begin
    t.counters.Perf_model.region_completions <-
      t.counters.Perf_model.region_completions + 1;
    cycles
  end
  else begin
    t.counters.Perf_model.side_exits <- t.counters.Perf_model.side_exits + 1;
    mon.m_side_exits <- mon.m_side_exits + 1;
    cycles +. t.cfg.perf.Perf_model.side_exit_penalty
  end

(* Execution leaves region [re] after the block of [slot], outside its
   edges: count the exit, and answer a side exit in the adaptive mode,
   which may dissolve the region. *)
let region_exit t re slot =
  let rid = re.r_region.Region.id in
  let mon = re.r_mon in
  t.cycles_acc.(0) <- count_exit t re slot t.cycles_acc.(0);
  if closes re slot then begin
    if t.trace then emit t (Event.Region_completion { region = rid })
  end
  else begin
    if t.trace then begin
      emit t (Event.Region_side_exit { region = rid; slot });
      charge t s_side_exit t.cfg.perf.Perf_model.side_exit_penalty;
      region_charge t rid t.cfg.perf.Perf_model.side_exit_penalty 0
    end;
    if
      t.cfg.adaptive && (not mon.m_disabled)
      && mon.m_entries >= t.cfg.reopt_min_entries
      && float_of_int mon.m_side_exits
         > t.cfg.reopt_side_exit_rate *. float_of_int mon.m_entries
    then begin
      let over_limit =
        Array.exists
          (fun b -> t.dissolve_count.(b) >= t.cfg.reopt_limit)
          re.r_region.Region.slots
      in
      if over_limit then mon.m_disabled <- true
      else begin
        if t.trace then
          emit t
            (Event.Region_dissolved
               {
                 region = rid;
                 entries = mon.m_entries;
                 side_exits = mon.m_side_exits;
               });
        dissolve t re.r_region
      end
    end
  end

(* The slot of region [re] that runs after the block of [slot] ends
   with [outcome], which must not end the run: -1 when execution leaves
   the region there. *)
let[@inline] successor re slot outcome =
  re.r_succ.((slot * Driver.roles) + outcome)

(* Execution steps to slot [dst] of region [re] [n] times: count each
   step back to slot 0 of a loop. *)
let[@inline] count_steps t re dst n =
  if dst = 0 && re.r_is_loop then begin
    t.counters.Perf_model.loop_backs <- t.counters.Perf_model.loop_backs + n;
    (* Continuous loop profiling: the latch executed and looped. *)
    let mon = re.r_mon in
    mon.m_lb_seen <- mon.m_lb_seen + n;
    mon.m_lb_taken <- mon.m_lb_taken + n
  end

(* The block of slot [slot] of region [re] ran from [before] to [after]
   with [outcome]: charge the slot and follow the successor table.
   Returns the slot that runs next, or -1 when execution left the
   region — completed it, took a side exit, or ended the run. *)
let[@inline] region_slot t re slot outcome ~before ~after =
  t.cycles_acc.(0) <- t.cycles_acc.(0) +. re.r_slot_cycles.(slot);
  if t.trace then begin
    (* the events below, and the exit's, stamp the step after the block *)
    t.clock := after;
    let slot_steps = after - before in
    charge t s_region_exec ~steps:slot_steps re.r_slot_cycles.(slot);
    region_charge t re.r_region.Region.id re.r_slot_cycles.(slot) slot_steps
  end;
  if outcome >= Driver.finished then -1
  else
    let dst = successor re slot outcome in
    if dst < 0 then region_exit t re slot else count_steps t re dst 1;
    dst

(* ------------------------------------------------------------------ *)
(* Fault injection                                                      *)
(* ------------------------------------------------------------------ *)

(* Injected corruption of block [bid]'s translated code.  The
   translation is discarded (the next execution pays the cold
   translation again) and any region holding the block is dissolved
   back to cold profiling code via the adaptive-dissolution path. *)
let corrupt_block t bid =
  t.counters.Perf_model.faults_injected <-
    t.counters.Perf_model.faults_injected + 1;
  if t.trace then
    emit t
      (Event.Fault_injected
         { fault = Fault.kind_name Fault.Block_corrupt; target = bid });
  t.touched.(bid) <- false;
  Code_cache.remove t.cache Code_cache.Block bid;
  t.counters.Perf_model.blocks_retranslated <-
    t.counters.Perf_model.blocks_retranslated + 1;
  let owners =
    Hashtbl.fold
      (fun _ re acc ->
        let r = re.r_region in
        if Array.exists (fun b -> b = bid) r.Region.slots then r :: acc
        else acc)
      t.regions []
  in
  List.iter
    (fun r ->
      t.counters.Perf_model.fault_dissolves <-
        t.counters.Perf_model.fault_dissolves + 1;
      if t.trace then
        emit t (Event.Recovery { action = Event.Dissolve; target = r.Region.id });
      dissolve t r)
    owners;
  if t.trace then
    emit t (Event.Recovery { action = Event.Retranslate; target = bid })

(* Faults whose site is the dispatch loop: guest traps (poison the
   instruction about to execute), block corruption (pick a translated
   victim from the arm's salt), silent corruption of a resident region
   and whole-cache thrash.  The only model code that writes to the
   machine, which is why a fault plan needs a driver of its own. *)
let inject_dispatch_faults t machine inj =
  let step = Machine.steps machine in
  (match Injector.take inj ~step Fault.Guest_trap with
  | None -> ()
  | Some arm ->
      let pc = Machine.pc machine in
      (* The pc can sit past the last instruction (fallthrough off the
         end halts the machine on its next step) — poisoning it would
         raise Invalid_argument, so the arm fires with no victim. *)
      if pc >= 0 && pc < Tpdbt_isa.Program.length t.program then begin
        Machine.poison machine pc;
        t.counters.Perf_model.faults_injected <-
          t.counters.Perf_model.faults_injected + 1;
        Injector.record inj arm ~fired_step:step ~target:pc;
        if t.trace then
          emit t
            (Event.Fault_injected
               { fault = Fault.kind_name Fault.Guest_trap; target = pc })
      end
      else Injector.record inj arm ~fired_step:step ~target:(-1));
  (match Injector.take inj ~step Fault.Silent_corruption with
  | None -> ()
  | Some arm -> (
      match Code_cache.resident_regions t.cache with
      | [] -> Injector.record inj arm ~fired_step:step ~target:(-1)
      | regions ->
          let n = List.length regions in
          let pick =
            Int64.to_int
              (Int64.rem (Int64.logand arm.Fault.salt Int64.max_int)
                 (Int64.of_int n))
          in
          let victim = List.nth regions pick in
          ignore
            (Code_cache.corrupt_region t.cache victim ~salt:arm.Fault.salt);
          t.counters.Perf_model.faults_injected <-
            t.counters.Perf_model.faults_injected + 1;
          Injector.record inj arm ~fired_step:step ~target:victim;
          if t.trace then
            emit t
              (Event.Fault_injected
                 {
                   fault = Fault.kind_name Fault.Silent_corruption;
                   target = victim;
                 })));
  (match Injector.take inj ~step Fault.Cache_thrash with
  | None -> ()
  | Some arm -> (
      match Code_cache.flush t.cache with
      | [] -> Injector.record inj arm ~fired_step:step ~target:(-1)
      | victims ->
          let n = List.length victims in
          let instrs =
            List.fold_left (fun acc v -> acc + v.Code_cache.size) 0 victims
          in
          t.counters.Perf_model.faults_injected <-
            t.counters.Perf_model.faults_injected + 1;
          Injector.record inj arm ~fired_step:step ~target:n;
          if t.trace then begin
            emit t
              (Event.Fault_injected
                 { fault = Fault.kind_name Fault.Cache_thrash; target = n });
            emit t (Event.Cache_flushed { entries = n; instrs })
          end;
          apply_victims t victims));
  match Injector.take inj ~step Fault.Block_corrupt with
  | None -> ()
  | Some arm ->
      let n = Array.length t.touched in
      let start =
        if n = 0 then 0
        else
          Int64.to_int
            (Int64.rem (Int64.logand arm.Fault.salt Int64.max_int)
               (Int64.of_int n))
      in
      let victim = ref (-1) in
      let i = ref 0 in
      while !victim < 0 && !i < n do
        let b = (start + !i) mod n in
        if t.touched.(b) then victim := b;
        incr i
      done;
      Injector.record inj arm ~fired_step:step ~target:!victim;
      if !victim >= 0 then corrupt_block t !victim

(* ------------------------------------------------------------------ *)
(* Consuming the block stream                                           *)
(* ------------------------------------------------------------------ *)

let current_snapshot t =
  {
    Snapshot.block_map = t.bmap;
    use = Array.copy t.use;
    taken = Array.copy t.taken;
    regions = List.rev t.regions_rev;
  }

(* Mirror the unboxed cycle cell and the cache's authoritative eviction
   tally (the model may trigger it from several sites) into the perf
   counters, so they are self-contained. *)
let sync_counters t =
  t.counters.Perf_model.cycles <- t.cycles_acc.(0);
  let cs = Code_cache.stats t.cache in
  t.counters.Perf_model.cache_evictions <- cs.Code_cache.evictions;
  t.counters.Perf_model.cache_flushes <- cs.Code_cache.flushes;
  t.counters.Perf_model.cache_evicted_instrs <- cs.Code_cache.evicted_instrs;
  t.counters.Perf_model.cache_peak_instrs <- cs.Code_cache.peak

(* The model stops at guest step [steps], with [outputs] values
   emitted: the end of its run. *)
let stop t ~steps ~outputs =
  t.live <- false;
  t.stop_steps <- steps;
  t.stop_outputs <- outputs;
  t.clock := steps;
  if t.trace then begin
    (* Attribution first, inside the still-open run span, so the
       profiler hangs the stage costs beneath "engine.run". *)
    emit_costs t;
    Span.leave t.spans "engine.run"
  end;
  t.counters.Perf_model.cycles <- t.cycles_acc.(0);
  if t.trace then emit t (Event.Phase_end { phase = "run" });
  sync_counters t

(* The model stops where the machine now stands. *)
let stop_here t machine =
  stop t ~steps:(Machine.steps machine) ~outputs:(Machine.output_count machine)

(* A dispatch point at guest step [steps], [outputs] values emitted: the
   model is outside every region, the machine is running and the next
   block has not run.  Stop on a recorded error, then on the deadline,
   the snapshot trigger or the step budget, in that order — a step
   below [stop_step] reaches none of the three; otherwise fire any
   fault due here. *)
let settle t machine ~steps ~outputs =
  match t.error with
  | Some _ -> stop t ~steps ~outputs
  | None -> (
      if steps >= t.stop_step then begin
        t.error <-
          Some
            (if steps >= t.deadline_step then
               if t.cfg.suspend_on_deadline then
                 Error.Suspended { steps; deadline = true }
               else
                 Error.Deadline_exceeded
                   { steps; deadline = Option.get t.cfg.deadline }
             else if steps >= t.snapshot_step then
               Error.Suspended { steps; deadline = false }
             else Error.Limit_exceeded { steps; max_steps = t.cfg.max_steps });
        stop t ~steps ~outputs
      end
      else
        match t.inj with
        | Some inj when Injector.due inj ~step:steps ->
            t.clock := steps;
            inject_dispatch_faults t machine inj
        | Some _ | None -> ())

(* Execution is back at a dispatch point, at guest step [steps] with
   [outputs] values emitted, after a block (or a region) that ended with
   [outcome].  A halt or a trap ends a group's chunk, so the machine's
   trap and pc are this block's. *)
let[@inline] after_dispatch t machine outcome ~steps ~outputs =
  if outcome < Driver.finished then settle t machine ~steps ~outputs
  else begin
    if outcome = Driver.trapped then
      t.error <-
        Some
          (match Machine.last_trap machine with
          | Some trap -> Error.Trap trap
          | None -> Error.Dispatch_lost { pc = Machine.pc machine });
    stop t ~steps ~outputs
  end

(* The region's layout no longer matches execution: a typed error
   instead of an assertion, before block [next] runs.  The pc is where
   [next] starts; -1, no block starts there, ends a group's chunk, so
   the pc is the machine's. *)
let lose t machine ~next ~steps ~outputs =
  let pc =
    if next >= 0 then (Block_map.block t.bmap next).Block_map.start_pc
    else Machine.pc machine
  in
  t.error <- Some (Error.Dispatch_lost { pc });
  t.cur <- -1;
  stop t ~steps ~outputs

(* No block starts at the pc. *)
let no_block t d =
  let machine = d.Driver.machine in
  if t.cur < 0 && Driver.off_end d then
    (* legal: fuzz-generated images end this way once shrinking nops out
       the halt *)
    Driver.halt_off_end d
  else begin
    (* Control left a region's layout, or landed mid-block: the
       dispatcher and the block map disagree. *)
    t.error <- Some (Error.Dispatch_lost { pc = Machine.pc machine });
    t.cur <- -1
  end;
  stop_here t machine

let leave_region t machine re outcome ~steps ~outputs =
  t.cur <- -1;
  if t.sampled && t.error = None && outcome <> Driver.trapped then
    shadow_check t machine re.r_region.Region.id;
  after_dispatch t machine outcome ~steps ~outputs

let[@inline] optimized t bid =
  match t.state.(bid) with Optimized -> true | Cold | Registered -> false

(* ------------------------------------------------------------------ *)
(* Feeding the models                                                   *)
(* ------------------------------------------------------------------ *)

type t = {
  driver : Driver.t;
  models : model array;
  chunk : Driver.chunk option;  (* a group's; [None] for one engine *)
  every : int;  (* group snapshot trigger period, 0 = off *)
  hard_stop : int;  (* group deadline suspension step, [max_int] = off *)
  mutable started : bool;
  mutable suspend_step : int;
}

(* Open a run of one model.  [solo] models arm their own suspension
   triggers; a group's members leave them to the group. *)
let begin_run t machine ~solo =
  let steps = Machine.steps machine in
  t.clock := steps;
  if t.trace then begin
    emit t (Event.Phase_begin { phase = "run" });
    Span.enter t.spans "engine.run"
  end;
  t.cycles_acc.(0) <- t.counters.Perf_model.cycles;
  (* A suspension is a resumable stop, not a verdict: re-entering [run]
     clears it and continues from exactly where the model left off. *)
  (match t.error with
  | Some (Error.Suspended _) -> t.error <- None
  | Some _ | None -> ());
  t.live <- true;
  (* The supervisor's cooperative watchdog and the snapshot trigger are
     polled at every dispatch point, folded with the step budget into
     one comparison against [stop_step].  The snapshot step is fixed
     here, so the trigger period is measured from the resume point. *)
  t.deadline_step <-
    (match t.cfg.deadline with
    | Some d when solo || not t.cfg.suspend_on_deadline -> d
    | Some _ | None -> max_int);
  t.snapshot_step <-
    (if solo && t.cfg.snapshot_every > 0 then steps + t.cfg.snapshot_every
     else max_int);
  t.stop_step <- min t.deadline_step (min t.snapshot_step t.cfg.max_steps);
  (* A group member restored inside a region is not at a dispatch
     point: it polls nothing until it leaves the region. *)
  if t.cur < 0 then
    if Machine.halted machine then stop_here t machine
    else settle t machine ~steps ~outputs:(Machine.output_count machine)

(* One engine: the driver runs a block, then the model accounts for it,
   a region's blocks in an inner loop that keeps the region and the slot
   in locals, until the model stops.  A lone engine suspends only
   through [settle], at a dispatch point.  Inside a region the block the
   driver located next must be the next slot's, checked before that
   block runs. *)
let rec drive_one d machine t =
  let bid = d.Driver.next in
  if bid < 0 then no_block t d
  else if t.cur >= 0 then in_region_one d machine t t.entry.(t.cur) t.slot
  else
    let before = d.Driver.steps in
    let re = t.entry.(bid) in
    if re != no_region && optimized t bid then begin
      enter_region t re ~before;
      in_region_one d machine t re 0
    end
    else begin
      let outcome = Driver.step d in
      let after = d.Driver.steps in
      single t bid outcome ~before ~after;
      after_dispatch t machine outcome ~steps:after
        ~outputs:(Machine.output_count machine);
      if t.live then drive_one d machine t
    end

and in_region_one d machine t re slot =
  let before = d.Driver.steps in
  let outcome = Driver.step d in
  let after = d.Driver.steps in
  let slot = region_slot t re slot outcome ~before ~after in
  if slot < 0 then begin
    leave_region t machine re outcome ~steps:after
      ~outputs:(Machine.output_count machine);
    if t.live then drive_one d machine t
  end
  else
    let next = d.Driver.next in
    if re.r_slots.(slot) = next then in_region_one d machine t re slot
    else
      lose t machine ~next ~steps:after ~outputs:(Machine.output_count machine)

(* Replay the common events of chunk [c] from event [i], for a member
   with no telemetry, an unbounded cache, no fault injector and no
   corrupted code (a restored image can carry the last two): a profiled
   block's short path, a region entry, a region step to a slot whose
   block is the next one recorded, and an exit to a dispatch point below
   [stop_step] with no adaptive side exit to answer.  Two of these take
   a run of repeated events in one step, as far as the member's state
   cannot change inside it: the short path, while the use count stays
   below its bound and the step count below [stop_step], and a step of
   a one-block loop back to its own slot.  The cycle sum, the event,
   and the region ([no_region] at a dispatch point) and its slot stay in
   locals; the function calls nothing, so they stay in registers.
   Returns the first event it did not take, or [c_len], with the locals
   stored back into the model. *)
let replay_inline t (c : Driver.chunk) i =
  let acc = ref t.cycles_acc.(0) in
  let i = ref i in
  (* the loop ends at [c_len], or at the first event it cannot take *)
  let stop = ref c.c_len in
  let re = ref (if t.cur >= 0 then t.entry.(t.cur) else no_region) in
  let slot = ref t.slot in
  while !i < !stop do
    let ev = !i in
    let outcome = Array.unsafe_get c.c_outcome ev in
    let r = !re in
    if r == no_region then begin
      let bid = Array.unsafe_get c.c_bid ev in
      let entered = t.entry.(bid) in
      if entered != no_region && optimized t bid then begin
        (* the region's first slot runs this same event *)
        acc := count_entry t entered !acc;
        t.cur <- bid;
        re := entered;
        slot := 0
      end
      else
        let use = t.use.(bid) + 1 in
        let bound = short_bound t bid in
        if
          outcome < Driver.finished
          && Array.unsafe_get c.c_after ev < t.stop_step
          && use < bound
        then begin
          (* the run's events, up to the use count's bound and the last
             that ends below [stop_step] *)
          let run = Array.unsafe_get c.c_run ev in
          let n = ref (if run < bound - use then run else bound - use) in
          while Array.unsafe_get c.c_after (ev + !n - 1) >= t.stop_step do
            decr n
          done;
          acc := profile_short t bid outcome use !n !acc;
          i := ev + !n
        end
        else stop := ev
    end
    else if outcome >= Driver.finished then stop := ev
    else
      let s = !slot in
      let dst = successor r s outcome in
      if dst = s then begin
        (* A one-block loop: each event of the run but the last steps
           back to this slot, and so does the last when the event after
           the run runs this block again. *)
        let run = Array.unsafe_get c.c_run ev in
        let n =
          if r.r_slots.(s) = Array.unsafe_get c.c_bid (ev + run) then run
          else run - 1
        in
        if n > 0 then begin
          let cost = r.r_slot_cycles.(s) in
          for _ = 1 to n do
            acc := !acc +. cost
          done;
          count_steps t r s n;
          i := ev + n
        end
        else stop := ev
      end
      else if dst >= 0 then
        if r.r_slots.(dst) = Array.unsafe_get c.c_bid (ev + 1) then begin
          acc := !acc +. r.r_slot_cycles.(s);
          count_steps t r dst 1;
          slot := dst;
          i := ev + 1
        end
        else stop := ev
      else if
        Array.unsafe_get c.c_after ev < t.stop_step
        && ((not t.cfg.adaptive) || closes r s)
      then begin
        acc := count_exit t r s (!acc +. r.r_slot_cycles.(s));
        t.cur <- -1;
        re := no_region;
        i := ev + 1
      end
      else stop := ev
  done;
  t.cycles_acc.(0) <- !acc;
  t.slot <- !slot;
  !i

(* Replay event [ev] of chunk [c], a chunk recorded from step [before0],
   through the per-event functions the lone engine calls, from where
   the member stands.  Returns the event to replay next — [ev] itself
   after a region entry, since the region's first slot runs it — or
   [c_len] when the member stopped. *)
let replay_event t machine (c : Driver.chunk) before0 ev =
  let outcome = Array.unsafe_get c.c_outcome ev in
  let after = Array.unsafe_get c.c_after ev in
  let outputs = Array.unsafe_get c.c_outputs ev in
  let before =
    if ev = 0 then before0 else Array.unsafe_get c.c_after (ev - 1)
  in
  if t.cur < 0 then begin
    let bid = Array.unsafe_get c.c_bid ev in
    let re = t.entry.(bid) in
    if re != no_region && optimized t bid then begin
      (* the region's first slot runs this same event *)
      enter_region t re ~before;
      ev
    end
    else begin
      single t bid outcome ~before ~after;
      after_dispatch t machine outcome ~steps:after ~outputs;
      if t.live then ev + 1 else c.c_len
    end
  end
  else
    let re = t.entry.(t.cur) in
    let slot = region_slot t re t.slot outcome ~before ~after in
    if slot < 0 then begin
      leave_region t machine re outcome ~steps:after ~outputs;
      if t.live then ev + 1 else c.c_len
    end
    else
      let next = Array.unsafe_get c.c_bid (ev + 1) in
      if re.r_slots.(slot) = next then begin
        t.slot <- slot;
        ev + 1
      end
      else begin
        lose t machine ~next ~steps:after ~outputs;
        c.c_len
      end

(* A group member replays the recorded events of chunk [c], a chunk
   recorded from step [before0], from where it stands: at a dispatch
   point, or in region [t.cur] before the block of slot [t.slot].  The
   common events go through [replay_inline] where it applies — there a
   dispatch point below [stop_step] stops on nothing and fires nothing
   (a live member with no injector has no pending error), and a region
   entry only counts and charges (a group has no shadow oracle) — and
   every other one through [replay_event].  The machine already stands
   at the end of the chunk, so a member that stops takes its step and
   output counts from its own event.  Every index read is below
   [c_len], or is [c_len] itself in [c_bid]. *)
let replay_chunk t machine (c : Driver.chunk) before0 =
  let inline =
    t.plain && t.inj = None && not (Code_cache.has_corruption t.cache)
  in
  let i = ref 0 in
  while !i < c.c_len do
    let ev = if inline then replay_inline t c !i else !i in
    if ev < c.c_len then i := replay_event t machine c before0 ev
    else i := ev
  done

(* A group: the driver records a chunk of the block stream, up to the
   suspension step, and each live member replays all of it before the
   next is recorded.  [true] when the group suspended with a member
   still live. *)
let rec drive_chunks g d machine c models =
  let before = d.Driver.steps in
  Driver.record d c g.suspend_step 0;
  Driver.mark_runs c;
  for i = 0 to Array.length models - 1 do
    let t = models.(i) in
    if t.live && c.Driver.c_len > 0 then replay_chunk t machine c before
  done;
  if not (Array.exists (fun t -> t.live) models) then false
  else if d.Driver.steps >= g.suspend_step then true
  else if d.Driver.next < 0 then begin
    Array.iter (fun t -> if t.live then no_block t d) models;
    false
  end
  else drive_chunks g d machine c models

let of_parts ?chunk driver models =
  {
    driver;
    models;
    chunk;
    every = 0;
    hard_stop = max_int;
    started = false;
    suspend_step = max_int;
  }

let result_of t machine =
  let snapshot = current_snapshot t in
  let region_stats =
    Hashtbl.fold
      (fun id re acc ->
        let mon = re.r_mon in
        ( id,
          {
            entries = mon.m_entries;
            side_exits = mon.m_side_exits;
            loop_back_taken = mon.m_lb_taken;
            loop_back_seen = mon.m_lb_seen;
          } )
        :: acc)
      t.regions []
    |> List.sort compare
  in
  {
    snapshot;
    counters = t.counters;
    steps = t.stop_steps;
    profiling_ops = Snapshot.profiling_ops snapshot;
    outputs = Machine.outputs_upto machine t.stop_outputs;
    region_stats;
    error = t.error;
    faults = Option.map Injector.report t.inj;
  }

(* ------------------------------------------------------------------ *)
(* The engine: one driver feeding one model                             *)
(* ------------------------------------------------------------------ *)

let create ?config:(cfg = config ~threshold:1000 ()) ?mem_words ~seed program =
  let machine = Machine.create ?mem_words ~seed program in
  let d = Driver.of_machine machine (Block_map.build program) in
  of_parts d [| model_create cfg program d |]

let solo g = g.models.(0)
let block_map g = g.driver.Driver.bmap
let machine g = g.driver.Driver.machine

let run g =
  let t = solo g in
  let machine = machine g in
  begin_run t machine ~solo:true;
  if t.live then drive_one g.driver machine t;
  result_of t machine

let suspended (r : result) =
  match r.error with Some (Error.Suspended _) -> true | Some _ | None -> false

(* ------------------------------------------------------------------ *)
(* Mid-run images (snapshot / suspend / resume)                        *)
(* ------------------------------------------------------------------ *)

(* The complete evolving state of a model between two [run] calls, as
   plain data, plus the machine image: every translation, profiling,
   cache, recovery and fault-injection structure.  Derived state — the
   block map, per-region slot cycles, the hot region mirrors and the
   dispatcher's entry map — is deliberately absent: [restore] recomputes
   it from the program and the config, exactly as the original run did,
   so it cannot drift from the captured data. *)
type image = {
  ex_machine : Machine.image;
  ex_use : int array;
  ex_taken : int array;
  ex_state : int array;  (* 0 = Cold, 1 = Registered, 2 = Optimized *)
  ex_touched : bool array;
  ex_dissolve : int array;
  ex_regions : Region.t list;  (* formation order, oldest first *)
  ex_monitors : (int * (int * int * int * int * bool)) list;
      (* region id -> (entries, side_exits, lb_taken, lb_seen,
         disabled), ascending id *)
  ex_next_region_id : int;
  ex_pool : int list;  (* exact pool order — the optimiser's seed order *)
  ex_pool_trigger_now : int;
  ex_fault_fails : int array;
  ex_quarantined : bool array;
  ex_quarantine_count : int;
  ex_degraded : bool;
  ex_last_round_step : int;
  ex_cache : (int * int * int * int * int64 option) list;
      (* (kind rank, id, size, stamp, corruption salt) in the cache's
         deterministic victim order *)
  ex_cache_stats : int * int * int * int;
      (* evictions, flushes, evicted_instrs, peak *)
  ex_counters : Perf_model.counters;
  ex_pending : Fault.arm list;
  ex_fired : Fault.shot list;
}

let block_state_code = function Cold -> 0 | Registered -> 1 | Optimized -> 2

let block_state_of_code = function
  | 0 -> Cold
  | 1 -> Registered
  | 2 -> Optimized
  | c -> invalid_arg (Printf.sprintf "Engine.restore: bad block state %d" c)

let capture_model t ex_machine =
  sync_counters t;
  let pending, fired =
    match t.inj with Some inj -> Injector.cursor inj | None -> ([], [])
  in
  let cs = Code_cache.stats t.cache in
  {
    ex_machine;
    ex_use = Array.copy t.use;
    ex_taken = Array.copy t.taken;
    ex_state = Array.map block_state_code t.state;
    ex_touched = Array.copy t.touched;
    ex_dissolve = Array.copy t.dissolve_count;
    ex_regions = List.rev t.regions_rev;
    ex_monitors =
      Hashtbl.fold
        (fun rid re acc ->
          let m = re.r_mon in
          ( rid,
            (m.m_entries, m.m_side_exits, m.m_lb_taken, m.m_lb_seen,
             m.m_disabled) )
          :: acc)
        t.regions []
      |> List.sort compare;
    ex_next_region_id = t.next_region_id;
    ex_pool = t.pool;
    ex_pool_trigger_now = t.pool_trigger_now;
    ex_fault_fails = Array.copy t.fault_fails;
    ex_quarantined = Array.copy t.quarantined;
    ex_quarantine_count = t.quarantine_count;
    ex_degraded = t.degraded;
    ex_last_round_step = t.last_round_step;
    ex_cache =
      List.map
        (fun (e : Code_cache.entry) ->
          ( (match e.Code_cache.ekind with
            | Code_cache.Block -> 0
            | Code_cache.Region -> 1),
            e.Code_cache.id,
            e.Code_cache.size,
            e.Code_cache.stamp,
            e.Code_cache.corrupt ))
        (Code_cache.residents t.cache);
    ex_cache_stats =
      ( cs.Code_cache.evictions,
        cs.Code_cache.flushes,
        cs.Code_cache.evicted_instrs,
        cs.Code_cache.peak );
    ex_counters = { t.counters with Perf_model.cycles = t.cycles_acc.(0) };
    ex_pending = pending;
    ex_fired = fired;
  }

(* Meaningful between [run] calls — in practice, after a run stopped
   with [Suspended]. *)
let capture g = capture_model (solo g) (Machine.capture (machine g))

(* A model rebuilt from [image] over driver [d] of an already-restored
   program: validated against the block map, its regions reinstalled. *)
let restore_model cfg program (d : Driver.t) image =
  let bmap = d.bmap in
  let n = Block_map.block_count bmap in
  let check_len label a =
    if Array.length a <> n then
      invalid_arg
        (Printf.sprintf
           "Engine.restore: %s has %d entries, block map has %d blocks" label
           (Array.length a) n)
  in
  check_len "use" image.ex_use;
  check_len "taken" image.ex_taken;
  check_len "state" image.ex_state;
  check_len "touched" image.ex_touched;
  check_len "dissolve" image.ex_dissolve;
  check_len "fault_fails" image.ex_fault_fails;
  check_len "quarantined" image.ex_quarantined;
  List.iter
    (fun b ->
      if b < 0 || b >= n then
        invalid_arg (Printf.sprintf "Engine.restore: pooled block %d" b))
    image.ex_pool;
  let t = model_create cfg program d in
  Array.blit image.ex_use 0 t.use 0 n;
  Array.blit image.ex_taken 0 t.taken 0 n;
  Array.iteri (fun b c -> t.state.(b) <- block_state_of_code c) image.ex_state;
  Array.blit image.ex_touched 0 t.touched 0 n;
  Array.blit image.ex_dissolve 0 t.dissolve_count 0 n;
  Array.blit image.ex_fault_fails 0 t.fault_fails 0 n;
  Array.blit image.ex_quarantined 0 t.quarantined 0 n;
  let counters =
    {
      image.ex_counters with
      Perf_model.cycles = image.ex_counters.Perf_model.cycles;
    }
  in
  let t =
    {
      t with
      regions_rev = List.rev image.ex_regions;
      next_region_id = image.ex_next_region_id;
      pool = image.ex_pool;
      pool_size = List.length image.ex_pool;
      pool_trigger_now = image.ex_pool_trigger_now;
      quarantine_count = image.ex_quarantine_count;
      degraded = image.ex_degraded;
      reg_use = (if image.ex_degraded then max_int else t.reg_use);
      twice_use = (if image.ex_degraded then max_int else t.twice_use);
      last_round_step = image.ex_last_round_step;
      inj =
        (if image.ex_pending = [] && image.ex_fired = [] then t.inj
         else
           Some
             (Injector.of_cursor ~pending:image.ex_pending
                ~fired:image.ex_fired));
      counters;
      cycles_acc = Array.make 1 counters.Perf_model.cycles;
    }
  in
  (* Region ids are labels below the id counter, each used once: the
     dispatcher keys nothing by id, but an id the counter never issued
     names a region no run could have formed. *)
  if image.ex_next_region_id < 0 then
    invalid_arg
      (Printf.sprintf "Engine.restore: region id counter %d"
         image.ex_next_region_id);
  (* Reinstall the regions: slot cycles and the hot mirrors are pure
     functions of (region, program, config), recomputed exactly as the
     optimiser's commit computed them. *)
  List.iter
    (fun (r : Region.t) ->
      let rid = r.Region.id in
      if rid < 0 || rid >= image.ex_next_region_id then
        invalid_arg
          (Printf.sprintf "Engine.restore: region id %d outside [0, %d)" rid
             image.ex_next_region_id);
      if Hashtbl.mem t.regions rid then
        invalid_arg (Printf.sprintf "Engine.restore: region id %d twice" rid);
      Array.iter
        (fun b ->
          if b < 0 || b >= n then
            invalid_arg
              (Printf.sprintf "Engine.restore: region %d references block %d"
                 rid b))
        r.Region.slots;
      let e, s, lt, ls, disabled =
        match List.assoc_opt rid image.ex_monitors with
        | Some m -> m
        | None ->
            invalid_arg
              (Printf.sprintf "Engine.restore: region %d has no monitor" rid)
      in
      let mon =
        {
          m_entries = e;
          m_side_exits = s;
          m_lb_taken = lt;
          m_lb_seen = ls;
          m_disabled = disabled;
        }
      in
      Hashtbl.replace t.regions rid (build_rentry t r mon))
    image.ex_regions;
  rebuild_region_entries t;
  let evictions, flushes, evicted_instrs, peak = image.ex_cache_stats in
  List.iter
    (fun (rank, id, size, stamp, corrupt) ->
      let ekind =
        match rank with
        | 0 -> Code_cache.Block
        | 1 -> Code_cache.Region
        | r ->
            invalid_arg
              (Printf.sprintf "Engine.restore: bad cache entry kind %d" r)
      in
      Code_cache.restore_entry t.cache ~ekind ~id ~size ~stamp ~corrupt)
    image.ex_cache;
  Code_cache.set_stats t.cache ~evictions ~flushes ~evicted_instrs ~peak;
  t

let restore ?config:(cfg = config ~threshold:1000 ()) program image =
  let machine = Machine.restore program image.ex_machine in
  let d = Driver.of_machine machine (Block_map.build program) in
  of_parts d [| restore_model cfg program d image |]

(* ------------------------------------------------------------------ *)
(* Groups: one driver feeding many models                              *)
(* ------------------------------------------------------------------ *)

type position =
  | At_dispatch
  | In_region of { region : int; slot : int }
  | Stopped of { steps : int; outputs : int; error : Error.t option }

type group_image = {
  gi_machine : Machine.image;
  gi_members : (position * image) list;
}

module Group = struct
  type nonrec t = t

  (* A translator that reads or writes the machine cannot share it. *)
  let check_configs = function
    | [] -> invalid_arg "Engine.Group: no models"
    | (c0 : config) :: _ as configs ->
        List.iter
          (fun (c : config) ->
            if c.faults <> None then
              invalid_arg "Engine.Group: a fault plan needs its own driver";
            if c.shadow_sample > 0 then
              invalid_arg
                "Engine.Group: the shadow oracle needs its own driver";
            if
              c.snapshot_every <> c0.snapshot_every
              || c.suspend_on_deadline <> c0.suspend_on_deadline
              || (c.suspend_on_deadline && c.deadline <> c0.deadline)
            then invalid_arg "Engine.Group: members disagree on suspension")
          configs;
        let hard_stop =
          match c0.deadline with
          | Some d when c0.suspend_on_deadline -> d
          | Some _ | None -> max_int
        in
        (c0.snapshot_every, hard_stop)

  (* The chunk is a group's alone: a lone engine feeds its model block
     by block and allocates none. *)
  let of_models driver configs models =
    let every, hard_stop = check_configs configs in
    { (of_parts ~chunk:(Driver.chunk ()) driver models) with every; hard_stop }

  let chunk_events = Driver.capacity

  let create ?mem_words ~seed program configs =
    let machine = Machine.create ?mem_words ~seed program in
    let d = Driver.of_machine machine (Block_map.build program) in
    of_models d configs
      (Array.of_list
         (List.map
            (fun c -> model_create c program d)
            configs))

  let run g =
    let machine = g.driver.Driver.machine in
    if not g.started then begin
      g.started <- true;
      Array.iter
        (fun t ->
          if t.live then begin
            begin_run t machine ~solo:false;
            (* A member restored inside a region checks the next block
               against its slot before that block runs. *)
            let next = g.driver.Driver.next in
            if t.cur >= 0 && t.entry.(t.cur).r_slots.(t.slot) <> next then
              lose t machine ~next ~steps:(Machine.steps machine)
                ~outputs:(Machine.output_count machine)
          end)
        g.models
    end;
    let steps = Machine.steps machine in
    g.suspend_step <-
      min g.hard_stop (if g.every > 0 then steps + g.every else max_int);
    let suspended =
      match g.chunk with
      | Some c ->
          Array.exists (fun t -> t.live) g.models
          && drive_chunks g g.driver machine c g.models
      | None -> false
    in
    if suspended then
      let steps = Machine.steps machine in
      Some (Error.Suspended { steps; deadline = steps >= g.hard_stop })
    else None

  let results g =
    let machine = g.driver.Driver.machine in
    Array.to_list (Array.map (fun t -> result_of t machine) g.models)

  let capture g =
    let gi_machine = Machine.capture g.driver.Driver.machine in
    {
      gi_machine;
      gi_members =
        Array.to_list
          (Array.map
             (fun t ->
               let at =
                 if not t.live then
                   Stopped
                     {
                       steps = t.stop_steps;
                       outputs = t.stop_outputs;
                       error = t.error;
                     }
                 else if t.cur < 0 then At_dispatch
                 else
                   In_region
                     {
                       region = t.entry.(t.cur).r_region.Region.id;
                       slot = t.slot;
                     }
               in
               (at, capture_model t gi_machine))
             g.models);
    }

  (* Put a restored member back where it stood in the block stream. *)
  let place machine t = function
    | At_dispatch -> ()
    | In_region { region; slot } -> (
        match Hashtbl.find_opt t.regions region with
        | Some re
          when t.entry.(Region.entry_block re.r_region) == re
               && slot >= 0
               && slot < Array.length re.r_region.Region.slots
               && not (Machine.halted machine) ->
            t.cur <- Region.entry_block re.r_region;
            t.slot <- slot
        | Some _ | None ->
            invalid_arg
              (Printf.sprintf "Engine.Group.restore: no slot %d of region %d"
                 slot region))
    | Stopped { steps; outputs; error } ->
        if
          steps < 0
          || steps > Machine.steps machine
          || outputs < 0
          || outputs > Machine.output_count machine
        then invalid_arg "Engine.Group.restore: stop past the machine";
        t.live <- false;
        t.stop_steps <- steps;
        t.stop_outputs <- outputs;
        t.error <- error

  let restore program configs image =
    if List.length configs <> List.length image.gi_members then
      invalid_arg "Engine.Group.restore: member count";
    let machine = Machine.restore program image.gi_machine in
    let d = Driver.of_machine machine (Block_map.build program) in
    let models =
      List.map2
        (fun cfg (at, im) ->
          let t = restore_model cfg program d im in
          place machine t at;
          t)
        configs image.gi_members
    in
    of_models d configs (Array.of_list models)
end
