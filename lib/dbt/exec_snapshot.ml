module Machine = Tpdbt_vm.Machine
module Fault = Tpdbt_faults.Fault
module Durable = Tpdbt_durable.Durable

(* Version 1: deterministic text serialisation of a mid-run engine
   image, sealed as a durable record.  Floats travel as %h so they
   round-trip bit-exactly; the config and program are not stored, only
   digests — restore recomputes all derived state from the caller's
   copies and the digests guard against resuming under the wrong ones. *)
let magic = "TPDBT-SNAP 1"

type parsed = {
  sn_config_digest : string;
  sn_program_digest : string;
  sn_image : Engine.image;
}

(* ---- digests ----------------------------------------------------------- *)

(* Everything that steers execution; the suspension machinery itself
   (deadline, snapshot_every, suspend_on_deadline) is deliberately
   excluded so a resume may re-arm its own triggers, and so are the
   sink (observation only) and the fault plan (the image carries the
   injector's full cursor instead). *)
let config_digest (c : Engine.config) =
  let p = c.Engine.perf in
  Durable.crc_hex
    (Printf.sprintf
       "%d %d %h %d %b %b %b %b %b %h %d %d %h %h %h %h %h %h %h %h %h %d %d \
        %s %s %d %d %d"
       c.Engine.threshold c.Engine.pool_trigger c.Engine.min_branch_prob
       c.Engine.max_region_slots c.Engine.enable_duplication
       c.Engine.enable_diamonds c.Engine.trace_scheduling
       c.Engine.regions_across_calls c.Engine.adaptive
       c.Engine.reopt_side_exit_rate c.Engine.reopt_min_entries
       c.Engine.reopt_limit p.Perf_model.cold_translate_per_instr
       p.Perf_model.profiled_exec_per_instr p.Perf_model.profiling_op_cost
       p.Perf_model.translated_exec_per_instr p.Perf_model.optimize_per_instr
       p.Perf_model.optimized_dispatch p.Perf_model.side_exit_penalty
       p.Perf_model.evict_per_instr p.Perf_model.shadow_replay_per_instr
       c.Engine.max_steps c.Engine.retry_limit
       (match c.Engine.cache_capacity with
       | None -> "-"
       | Some n -> string_of_int n)
       (Code_cache.policy_name c.Engine.cache_policy)
       c.Engine.cache_backoff c.Engine.shadow_sample c.Engine.max_quarantines)

let program_digest (p : Tpdbt_isa.Program.t) =
  (* The program is pure immutable data (no closures, no cycles), so
     an unshared marshal of it is a canonical byte string. *)
  Digest.to_hex (Digest.string (Marshal.to_string p [ Marshal.No_sharing ]))

(* ---- serialisation ----------------------------------------------------- *)

module W = Durable.Writer
module R = Durable.Reader

let role_code = function
  | Region.Taken -> "t"
  | Region.Not_taken -> "n"
  | Region.Always -> "a"

let bits a = Array.map (fun b -> if b then 1 else 0) a
let spaced f l = String.concat "" (List.map f l)

let write_machine w (m : Machine.image) =
  W.line w "mem_words %d" m.Machine.im_mem_words;
  W.ints w "regs" m.Machine.im_regs;
  W.line w "mem %d%s"
    (Array.length m.Machine.im_mem)
    (spaced
       (fun (a, v) -> Printf.sprintf " %d %d" a v)
       (Array.to_list m.Machine.im_mem));
  W.line w "pc %d" m.Machine.im_pc;
  W.ints w "ret" m.Machine.im_ret_stack;
  let ph, pl, pzh, pzl = m.Machine.im_prng in
  W.line w "prng %d %d %d %d" ph pl pzh pzl;
  W.ints w "outputs" m.Machine.im_outputs;
  W.line w "msteps %d" m.Machine.im_steps;
  W.line w "halted %d" (if m.Machine.im_halted then 1 else 0);
  W.ints w "poisoned" (Array.of_list m.Machine.im_poisoned)

(* Everything but the machine: the model's half of an image. *)
let write_model w (im : Engine.image) =
  W.ints w "use" im.Engine.ex_use;
  W.ints w "taken" im.Engine.ex_taken;
  W.ints w "bstate" im.Engine.ex_state;
  W.ints w "touched" (bits im.Engine.ex_touched);
  W.ints w "dissolve" im.Engine.ex_dissolve;
  W.line w "regions %d" (List.length im.Engine.ex_regions);
  List.iter
    (fun (r : Region.t) ->
      W.line w "region %d %s" r.Region.id
        (match r.Region.kind with
        | Region.Trace -> "trace"
        | Region.Loop -> "loop");
      W.ints w "slots" r.Region.slots;
      let edges tag es =
        W.line w "%s %d%s" tag (List.length es)
          (spaced
             (fun (e : Region.edge) ->
               Printf.sprintf " %d %d %s" e.Region.src e.Region.dst
                 (role_code e.Region.role))
             es)
      in
      edges "edges" r.Region.edges;
      edges "back" r.Region.back_edges;
      W.ints w "fuse" r.Region.frozen_use;
      W.ints w "ftaken" r.Region.frozen_taken;
      let e, s, lt, ls, dis =
        match List.assoc_opt r.Region.id im.Engine.ex_monitors with
        | Some mon -> mon
        | None -> invalid_arg "Exec_snapshot: region without monitor"
      in
      W.line w "monitor %d %d %d %d %d" e s lt ls (if dis then 1 else 0))
    im.Engine.ex_regions;
  W.line w "next_region %d" im.Engine.ex_next_region_id;
  W.ints w "pool" (Array.of_list im.Engine.ex_pool);
  W.line w "pool_trigger %d" im.Engine.ex_pool_trigger_now;
  W.ints w "fault_fails" im.Engine.ex_fault_fails;
  W.ints w "quarantined" (bits im.Engine.ex_quarantined);
  W.line w "qcount %d" im.Engine.ex_quarantine_count;
  W.line w "degraded %d" (if im.Engine.ex_degraded then 1 else 0);
  W.line w "last_round %d" im.Engine.ex_last_round_step;
  W.line w "cache %d" (List.length im.Engine.ex_cache);
  List.iter
    (fun (rank, id, size, stamp, corrupt) ->
      W.line w "centry %d %d %d %d %s" rank id size stamp
        (match corrupt with None -> "-" | Some s -> Int64.to_string s))
    im.Engine.ex_cache;
  let ev, fl, ei, pk = im.Engine.ex_cache_stats in
  W.line w "cache_stats %d %d %d %d" ev fl ei pk;
  Perf_model.write_counters w im.Engine.ex_counters;
  W.line w "pending %d" (List.length im.Engine.ex_pending);
  List.iter
    (fun (a : Fault.arm) ->
      W.line w "arm %d %s %Ld" a.Fault.step (Fault.kind_name a.Fault.kind)
        a.Fault.salt)
    im.Engine.ex_pending;
  W.line w "fired %d" (List.length im.Engine.ex_fired);
  List.iter
    (fun (s : Fault.shot) ->
      W.line w "shot %d %s %Ld %d %d" s.Fault.arm.Fault.step
        (Fault.kind_name s.Fault.arm.Fault.kind)
        s.Fault.arm.Fault.salt s.Fault.fired_step s.Fault.target)
    im.Engine.ex_fired

let payload ~config_digest:cd ~program_digest:pd (im : Engine.image) =
  let w = W.create () in
  W.line w "config %s" cd;
  W.line w "program %s" pd;
  write_machine w im.Engine.ex_machine;
  write_model w im;
  W.line w "end";
  W.contents w

let to_string ~config ~program image =
  Durable.seal ~magic
    (payload ~config_digest:(config_digest config)
       ~program_digest:(program_digest program) image)

(* ---- parsing ----------------------------------------------------------- *)

let flag r field =
  match R.int r field with
  | 0 -> false
  | 1 -> true
  | _ -> R.fail r field "not a 0/1 flag"

let flags r tag = Array.of_list (R.list r tag (fun r -> flag r tag))

let edge tag r =
  let src = R.int r tag in
  let dst = R.int r tag in
  let role =
    match R.word r tag with
    | "t" -> Region.Taken
    | "n" -> Region.Not_taken
    | "a" -> Region.Always
    | role -> R.fail r tag ("bad edge role " ^ role)
  in
  { Region.src; dst; role }

let arm r tag =
  let step = R.int r tag in
  let name = R.word r tag in
  let salt = R.int64 r tag in
  match Fault.kind_of_name name with
  | Some kind -> { Fault.step; kind; salt }
  | None -> R.fail r tag ("unknown fault kind " ^ name)

let region r =
  R.tagged r "region";
  let id = R.int r "region" in
  let kind =
    match R.word r "region" with
    | "trace" -> Region.Trace
    | "loop" -> Region.Loop
    | k -> R.fail r "region" ("bad region kind " ^ k)
  in
  let slots = R.ints r "slots" in
  let edges = R.list r "edges" (edge "edges") in
  let back_edges = R.list r "back" (edge "back") in
  let frozen_use = R.ints r "fuse" in
  let frozen_taken = R.ints r "ftaken" in
  let region =
    { Region.id; kind; slots; edges; back_edges; frozen_use; frozen_taken }
  in
  (match Region.validate region with
  | Ok _ -> ()
  | Error reason ->
      R.fail r "region" (Printf.sprintf "region %d: %s" id reason));
  R.tagged r "monitor";
  let e = R.int r "monitor" in
  let s = R.int r "monitor" in
  let lt = R.int r "monitor" in
  let ls = R.int r "monitor" in
  (region, (id, (e, s, lt, ls, flag r "monitor")))

let read_machine r =
  R.tagged r "mem_words";
  let im_mem_words = R.int r "mem_words" in
  let im_regs = R.ints r "regs" in
  let im_mem =
    R.list r "mem" (fun r ->
        let a = R.int r "mem" in
        (a, R.int r "mem"))
  in
  R.tagged r "pc";
  let im_pc = R.int r "pc" in
  let im_ret_stack = R.ints r "ret" in
  R.tagged r "prng";
  let ph = R.int r "prng" in
  let pl = R.int r "prng" in
  let pzh = R.int r "prng" in
  let im_prng = (ph, pl, pzh, R.int r "prng") in
  let im_outputs = R.ints r "outputs" in
  R.tagged r "msteps";
  let im_steps = R.int r "msteps" in
  R.tagged r "halted";
  let im_halted = flag r "halted" in
  let im_poisoned = Array.to_list (R.ints r "poisoned") in
  {
    Machine.im_mem_words;
    im_regs;
    im_mem = Array.of_list im_mem;
    im_pc;
    im_ret_stack;
    im_prng;
    im_outputs;
    im_steps;
    im_halted;
    im_poisoned;
  }

let read_model r ex_machine =
  let ex_use = R.ints r "use" in
  let ex_taken = R.ints r "taken" in
  let ex_state = R.ints r "bstate" in
  let ex_touched = flags r "touched" in
  let ex_dissolve = R.ints r "dissolve" in
  let with_monitors = R.list r "regions" region in
  R.tagged r "next_region";
  let ex_next_region_id = R.int r "next_region" in
  let ex_pool = Array.to_list (R.ints r "pool") in
  R.tagged r "pool_trigger";
  let ex_pool_trigger_now = R.int r "pool_trigger" in
  let ex_fault_fails = R.ints r "fault_fails" in
  let ex_quarantined = flags r "quarantined" in
  R.tagged r "qcount";
  let ex_quarantine_count = R.int r "qcount" in
  R.tagged r "degraded";
  let ex_degraded = flag r "degraded" in
  R.tagged r "last_round";
  let ex_last_round_step = R.int r "last_round" in
  let ex_cache =
    R.list r "cache" (fun r ->
        R.tagged r "centry";
        let rank = R.int r "centry" in
        let id = R.int r "centry" in
        let size = R.int r "centry" in
        let stamp = R.int r "centry" in
        match R.word r "centry" with
        | "-" -> (rank, id, size, stamp, None)
        | salt -> (
            match Int64.of_string_opt salt with
            | Some salt -> (rank, id, size, stamp, Some salt)
            | None -> R.fail r "centry" ("not an int64: " ^ salt)))
  in
  R.tagged r "cache_stats";
  let ev = R.int r "cache_stats" in
  let fl = R.int r "cache_stats" in
  let ei = R.int r "cache_stats" in
  let ex_cache_stats = (ev, fl, ei, R.int r "cache_stats") in
  let ex_counters = Perf_model.read_counters r in
  let ex_pending =
    R.list r "pending" (fun r ->
        R.tagged r "arm";
        arm r "arm")
  in
  let ex_fired =
    R.list r "fired" (fun r ->
        R.tagged r "shot";
        let arm = arm r "shot" in
        let fired_step = R.int r "shot" in
        { Fault.arm; fired_step; target = R.int r "shot" })
  in
  {
    Engine.ex_machine;
    ex_use;
    ex_taken;
    ex_state;
    ex_touched;
    ex_dissolve;
    ex_regions = List.map fst with_monitors;
    ex_monitors = List.sort compare (List.map snd with_monitors);
    ex_next_region_id;
    ex_pool;
    ex_pool_trigger_now;
    ex_fault_fails;
    ex_quarantined;
    ex_quarantine_count;
    ex_degraded;
    ex_last_round_step;
    ex_cache;
    ex_cache_stats;
    ex_counters;
    ex_pending;
    ex_fired;
  }

let read_payload r =
  R.tagged r "config";
  let sn_config_digest = R.word r "config" in
  R.tagged r "program";
  let sn_program_digest = R.word r "program" in
  let sn_image = read_model r (read_machine r) in
  R.finish r;
  { sn_config_digest; sn_program_digest; sn_image }

let of_string = Durable.parse ~magic read_payload

(* ---- restore ----------------------------------------------------------- *)

let digests_match ~what ~expected ~found =
  if String.equal expected found then Ok ()
  else
    Error
      (Printf.sprintf "%s mismatch: snapshot taken under %s, resuming under %s"
         what found expected)

let restore ~config ~program parsed =
  let ( let* ) = Result.bind in
  let* () =
    digests_match ~what:"config" ~expected:(config_digest config)
      ~found:parsed.sn_config_digest
  in
  let* () =
    digests_match ~what:"program" ~expected:(program_digest program)
      ~found:parsed.sn_program_digest
  in
  match Engine.restore ~config program parsed.sn_image with
  | t -> Ok t
  | exception Invalid_argument reason -> Error reason

(* ---- group records ------------------------------------------------------ *)

(* Version 1: one driver and its models — the machine once, then each
   member's label, config digest, position in the block stream and
   model state in the engine snapshot's own lines. *)
let group_magic = "TPDBT-GROUP 1"

type group_parsed = {
  gp_program_digest : string;
  gp_members : (string * string) list;
  gp_image : Engine.group_image;
}

let is_group text =
  String.starts_with ~prefix:(String.sub group_magic 0 12) text

let write_position w = function
  | Engine.At_dispatch -> W.line w "at dispatch"
  | Engine.In_region { region; slot } -> W.line w "at region %d %d" region slot
  | Engine.Stopped { steps; outputs; error } ->
      let why =
        match error with
        | None -> "halt"
        | Some (Error.Limit_exceeded { steps; max_steps }) ->
            Printf.sprintf "limit %d %d" steps max_steps
        | Some (Error.Deadline_exceeded { steps; deadline }) ->
            Printf.sprintf "deadline %d %d" steps deadline
        | Some (Error.Dispatch_lost { pc }) -> Printf.sprintf "lost %d" pc
        | Some e ->
            invalid_arg
              ("Exec_snapshot.group_to_string: a member stopped with "
             ^ Error.to_string e)
      in
      W.line w "at stopped %d %d %s" steps outputs why

let group_to_string ~program members (g : Engine.group_image) =
  if List.length members <> List.length g.Engine.gi_members then
    invalid_arg "Exec_snapshot.group_to_string: member count";
  let w = W.create () in
  W.line w "program %s" (program_digest program);
  write_machine w g.Engine.gi_machine;
  W.line w "members %d" (List.length members);
  List.iter2
    (fun (label, config) (at, image) ->
      W.line w "member %s %s" label (config_digest config);
      write_position w at;
      write_model w image)
    members g.Engine.gi_members;
  W.line w "end";
  Durable.seal ~magic:group_magic (W.contents w)

let read_position r =
  R.tagged r "at";
  match R.word r "at" with
  | "dispatch" -> Engine.At_dispatch
  | "region" ->
      let region = R.int r "at" in
      Engine.In_region { region; slot = R.int r "at" }
  | "stopped" ->
      let steps = R.int r "at" in
      let outputs = R.int r "at" in
      let error =
        match R.word r "at" with
        | "halt" -> None
        | "limit" ->
            let steps = R.int r "at" in
            Some (Error.Limit_exceeded { steps; max_steps = R.int r "at" })
        | "deadline" ->
            let steps = R.int r "at" in
            Some (Error.Deadline_exceeded { steps; deadline = R.int r "at" })
        | "lost" -> Some (Error.Dispatch_lost { pc = R.int r "at" })
        | why -> R.fail r "at" ("bad stop " ^ why)
      in
      Engine.Stopped { steps; outputs; error }
  | at -> R.fail r "at" ("bad position " ^ at)

let read_group r =
  R.tagged r "program";
  let gp_program_digest = R.word r "program" in
  let machine = read_machine r in
  let members =
    R.list r "members" (fun r ->
        R.tagged r "member";
        let label = R.word r "member" in
        let digest = R.word r "member" in
        let at = read_position r in
        ((label, digest), (at, read_model r machine)))
  in
  R.finish r;
  {
    gp_program_digest;
    gp_members = List.map fst members;
    gp_image =
      { Engine.gi_machine = machine; gi_members = List.map snd members };
  }

let group_of_string = Durable.parse ~magic:group_magic read_group

let group_restore ~program members parsed =
  let ( let* ) = Result.bind in
  let* () =
    digests_match ~what:"program" ~expected:(program_digest program)
      ~found:parsed.gp_program_digest
  in
  let* () =
    if List.length members <> List.length parsed.gp_members then
      Error
        (Printf.sprintf "the group holds %d members, not %d"
           (List.length parsed.gp_members) (List.length members))
    else
      List.fold_left2
        (fun acc (label, config) (found_label, found) ->
          let* () = acc in
          if not (String.equal label found_label) then
            Error
              (Printf.sprintf "member %s where %s was expected" found_label
                 label)
          else
            digests_match ~what:("config of " ^ label)
              ~expected:(config_digest config) ~found)
        (Ok ()) members parsed.gp_members
  in
  match Engine.Group.restore program (List.map snd members) parsed.gp_image with
  | g -> Ok g
  | exception Invalid_argument reason -> Error reason

(* ---- info -------------------------------------------------------------- *)

type info = {
  steps : int;
  halted : bool;
  pc : int;
  blocks : int;
  optimized_blocks : int;
  regions : int;
  pool : int;
  cache_entries : int;
  quarantines : int;
  degraded : bool;
  pending_faults : int;
  fired_faults : int;
  cycles : float;
  config_digest : string;
  program_digest : string;
}

let info parsed =
  let im = parsed.sn_image in
  {
    steps = im.Engine.ex_machine.Machine.im_steps;
    halted = im.Engine.ex_machine.Machine.im_halted;
    pc = im.Engine.ex_machine.Machine.im_pc;
    blocks = Array.length im.Engine.ex_use;
    optimized_blocks =
      Array.fold_left (fun n s -> if s = 2 then n + 1 else n) 0
        im.Engine.ex_state;
    regions = List.length im.Engine.ex_regions;
    pool = List.length im.Engine.ex_pool;
    cache_entries = List.length im.Engine.ex_cache;
    quarantines = im.Engine.ex_quarantine_count;
    degraded = im.Engine.ex_degraded;
    pending_faults = List.length im.Engine.ex_pending;
    fired_faults = List.length im.Engine.ex_fired;
    cycles = im.Engine.ex_counters.Perf_model.cycles;
    config_digest = parsed.sn_config_digest;
    program_digest = parsed.sn_program_digest;
  }
