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

let role_code = function
  | Region.Taken -> "t"
  | Region.Not_taken -> "n"
  | Region.Always -> "a"

let payload ~config_digest:cd ~program_digest:pd (im : Engine.image) =
  let buf = Buffer.create 16384 in
  let add fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let add_ints name a =
    Buffer.add_string buf name;
    Buffer.add_char buf ' ';
    Buffer.add_string buf (string_of_int (Array.length a));
    Array.iter
      (fun v ->
        Buffer.add_char buf ' ';
        Buffer.add_string buf (string_of_int v))
      a;
    Buffer.add_char buf '\n'
  in
  let add_bools name a = add_ints name (Array.map (fun b -> if b then 1 else 0) a) in
  let add_arm (a : Fault.arm) =
    add "arm %d %s %Ld" a.Fault.step (Fault.kind_name a.Fault.kind) a.Fault.salt
  in
  add "config %s" cd;
  add "program %s" pd;
  let m = im.Engine.ex_machine in
  add "mem_words %d" m.Machine.im_mem_words;
  add_ints "regs" m.Machine.im_regs;
  add "mem %d%s"
    (Array.length m.Machine.im_mem)
    (String.concat ""
       (Array.to_list
          (Array.map
             (fun (a, v) -> Printf.sprintf " %d %d" a v)
             m.Machine.im_mem)));
  add "pc %d" m.Machine.im_pc;
  add_ints "ret" m.Machine.im_ret_stack;
  let ph, pl, pzh, pzl = m.Machine.im_prng in
  add "prng %d %d %d %d" ph pl pzh pzl;
  add_ints "outputs" m.Machine.im_outputs;
  add "msteps %d" m.Machine.im_steps;
  add "halted %d" (if m.Machine.im_halted then 1 else 0);
  add "poisoned %d%s"
    (List.length m.Machine.im_poisoned)
    (String.concat ""
       (List.map (fun p -> " " ^ string_of_int p) m.Machine.im_poisoned));
  add_ints "use" im.Engine.ex_use;
  add_ints "taken" im.Engine.ex_taken;
  add_ints "bstate" im.Engine.ex_state;
  add_bools "touched" im.Engine.ex_touched;
  add_ints "dissolve" im.Engine.ex_dissolve;
  add "regions %d" (List.length im.Engine.ex_regions);
  List.iter
    (fun (r : Region.t) ->
      add "region %d %s" r.Region.id
        (match r.Region.kind with Region.Trace -> "trace" | Region.Loop -> "loop");
      add_ints "slots" r.Region.slots;
      let edges name es =
        add "%s %d%s" name (List.length es)
          (String.concat ""
             (List.map
                (fun (e : Region.edge) ->
                  Printf.sprintf " %d %d %s" e.Region.src e.Region.dst
                    (role_code e.Region.role))
                es))
      in
      edges "edges" r.Region.edges;
      edges "back" r.Region.back_edges;
      add_ints "fuse" r.Region.frozen_use;
      add_ints "ftaken" r.Region.frozen_taken;
      let e, s, lt, ls, dis =
        match List.assoc_opt r.Region.id im.Engine.ex_monitors with
        | Some mon -> mon
        | None -> invalid_arg "Exec_snapshot: region without monitor"
      in
      add "monitor %d %d %d %d %d" e s lt ls (if dis then 1 else 0))
    im.Engine.ex_regions;
  add "next_region %d" im.Engine.ex_next_region_id;
  add "pool %d%s"
    (List.length im.Engine.ex_pool)
    (String.concat ""
       (List.map (fun b -> " " ^ string_of_int b) im.Engine.ex_pool));
  add "pool_trigger %d" im.Engine.ex_pool_trigger_now;
  add_ints "fault_fails" im.Engine.ex_fault_fails;
  add_bools "quarantined" im.Engine.ex_quarantined;
  add "qcount %d" im.Engine.ex_quarantine_count;
  add "degraded %d" (if im.Engine.ex_degraded then 1 else 0);
  add "last_round %d" im.Engine.ex_last_round_step;
  add "cache %d" (List.length im.Engine.ex_cache);
  List.iter
    (fun (rank, id, size, stamp, corrupt) ->
      add "centry %d %d %d %d %s" rank id size stamp
        (match corrupt with None -> "-" | Some s -> Int64.to_string s))
    im.Engine.ex_cache;
  let ev, fl, ei, pk = im.Engine.ex_cache_stats in
  add "cache_stats %d %d %d %d" ev fl ei pk;
  add "%s" (Perf_model.counters_to_line im.Engine.ex_counters);
  add "pending %d" (List.length im.Engine.ex_pending);
  List.iter add_arm im.Engine.ex_pending;
  add "fired %d" (List.length im.Engine.ex_fired);
  List.iter
    (fun (s : Fault.shot) ->
      add "shot %d %s %Ld %d %d" s.Fault.arm.Fault.step
        (Fault.kind_name s.Fault.arm.Fault.kind)
        s.Fault.arm.Fault.salt s.Fault.fired_step s.Fault.target)
    im.Engine.ex_fired;
  add "end";
  Buffer.contents buf

let to_string ~config ~program image =
  Durable.seal ~magic
    (payload ~config_digest:(config_digest config)
       ~program_digest:(program_digest program) image)

(* ---- parsing ----------------------------------------------------------- *)

exception Malformed of string

let parse_payload text =
  let lines = Array.of_list (String.split_on_char '\n' text) in
  let cursor = ref 0 in
  let next () =
    if !cursor >= Array.length lines then
      raise (Malformed "payload ends mid-record")
    else (
      incr cursor;
      lines.(!cursor - 1))
  in
  let int_exn s =
    match int_of_string_opt s with
    | Some v -> v
    | None -> raise (Malformed (Printf.sprintf "not an integer: %S" s))
  in
  let words () = String.split_on_char ' ' (next ()) in
  let tagged tag =
    match words () with
    | t :: rest when t = tag -> rest
    | _ -> raise (Malformed (Printf.sprintf "bad %s line" tag))
  in
  let tagged1 tag =
    match tagged tag with
    | [ v ] -> v
    | _ -> raise (Malformed (Printf.sprintf "bad %s line" tag))
  in
  let int1 tag = int_exn (tagged1 tag) in
  let bool1 tag =
    match int1 tag with
    | 0 -> false
    | 1 -> true
    | _ -> raise (Malformed (Printf.sprintf "bad %s flag" tag))
  in
  let counted tag =
    match tagged tag with
    | n :: rest when List.length rest = int_exn n -> rest
    | _ -> raise (Malformed (Printf.sprintf "bad %s line" tag))
  in
  let int_array tag = Array.of_list (List.map int_exn (counted tag)) in
  let bool_array tag =
    Array.map
      (function
        | 0 -> false
        | 1 -> true
        | _ -> raise (Malformed (Printf.sprintf "bad %s flag" tag)))
      (int_array tag)
  in
  let pairs tag =
    match tagged tag with
    | n :: rest when List.length rest = 2 * int_exn n ->
        let rec go = function
          | [] -> []
          | a :: v :: rest -> (int_exn a, int_exn v) :: go rest
          | _ -> raise (Malformed (Printf.sprintf "bad %s line" tag))
        in
        go rest
    | _ -> raise (Malformed (Printf.sprintf "bad %s line" tag))
  in
  let role_of = function
    | "t" -> Region.Taken
    | "n" -> Region.Not_taken
    | "a" -> Region.Always
    | s -> raise (Malformed (Printf.sprintf "bad edge role %S" s))
  in
  let edge_list tag =
    match tagged tag with
    | n :: rest when List.length rest = 3 * int_exn n ->
        let rec go = function
          | [] -> []
          | s :: d :: r :: rest ->
              { Region.src = int_exn s; dst = int_exn d; role = role_of r }
              :: go rest
          | _ -> raise (Malformed (Printf.sprintf "bad %s line" tag))
        in
        go rest
    | _ -> raise (Malformed (Printf.sprintf "bad %s line" tag))
  in
  let kind_of_name name =
    match Fault.kind_of_name name with
    | Some k -> k
    | None -> raise (Malformed (Printf.sprintf "unknown fault kind %S" name))
  in
  let int64_exn s =
    match Int64.of_string_opt s with
    | Some v -> v
    | None -> raise (Malformed (Printf.sprintf "not an int64: %S" s))
  in
  try
    let sn_config_digest = tagged1 "config" in
    let sn_program_digest = tagged1 "program" in
    let im_mem_words = int1 "mem_words" in
    let im_regs = int_array "regs" in
    let im_mem = Array.of_list (pairs "mem") in
    let im_pc = int1 "pc" in
    let im_ret_stack = int_array "ret" in
    let im_prng =
      match tagged "prng" with
      | [ a; b; c; d ] -> (int_exn a, int_exn b, int_exn c, int_exn d)
      | _ -> raise (Malformed "bad prng line")
    in
    let im_outputs = int_array "outputs" in
    let im_steps = int1 "msteps" in
    let im_halted = bool1 "halted" in
    let im_poisoned = List.map int_exn (counted "poisoned") in
    let ex_use = int_array "use" in
    let ex_taken = int_array "taken" in
    let ex_state = int_array "bstate" in
    let ex_touched = bool_array "touched" in
    let ex_dissolve = int_array "dissolve" in
    let nregions = int1 "regions" in
    if nregions < 0 then raise (Malformed "negative region count");
    let with_monitors =
      List.init nregions (fun _ ->
          let id, kind =
            match tagged "region" with
            | [ id; "trace" ] -> (int_exn id, Region.Trace)
            | [ id; "loop" ] -> (int_exn id, Region.Loop)
            | _ -> raise (Malformed "bad region line")
          in
          let slots = int_array "slots" in
          let edges = edge_list "edges" in
          let back_edges = edge_list "back" in
          let frozen_use = int_array "fuse" in
          let frozen_taken = int_array "ftaken" in
          let monitor =
            match tagged "monitor" with
            | [ e; s; lt; ls; d ] ->
                ( int_exn e,
                  int_exn s,
                  int_exn lt,
                  int_exn ls,
                  match int_exn d with
                  | 0 -> false
                  | 1 -> true
                  | _ -> raise (Malformed "bad monitor flag") )
            | _ -> raise (Malformed "bad monitor line")
          in
          let r =
            {
              Region.id;
              kind;
              slots;
              edges;
              back_edges;
              frozen_use;
              frozen_taken;
            }
          in
          (match Region.validate r with
          | Ok () -> ()
          | Error reason ->
              raise (Malformed (Printf.sprintf "region %d: %s" id reason)));
          (r, (id, monitor)))
    in
    let ex_regions = List.map fst with_monitors in
    let ex_monitors = List.sort compare (List.map snd with_monitors) in
    let ex_next_region_id = int1 "next_region" in
    let ex_pool = List.map int_exn (counted "pool") in
    let ex_pool_trigger_now = int1 "pool_trigger" in
    let ex_fault_fails = int_array "fault_fails" in
    let ex_quarantined = bool_array "quarantined" in
    let ex_quarantine_count = int1 "qcount" in
    let ex_degraded = bool1 "degraded" in
    let ex_last_round_step = int1 "last_round" in
    let ncache = int1 "cache" in
    if ncache < 0 then raise (Malformed "negative cache count");
    let ex_cache =
      List.init ncache (fun _ ->
          match tagged "centry" with
          | [ rank; id; size; stamp; salt ] ->
              ( int_exn rank,
                int_exn id,
                int_exn size,
                int_exn stamp,
                if salt = "-" then None else Some (int64_exn salt) )
          | _ -> raise (Malformed "bad centry line"))
    in
    let ex_cache_stats =
      match tagged "cache_stats" with
      | [ e; f; i; p ] -> (int_exn e, int_exn f, int_exn i, int_exn p)
      | _ -> raise (Malformed "bad cache_stats line")
    in
    let ex_counters =
      match Perf_model.counters_of_line (next ()) with
      | Ok c -> c
      | Error reason -> raise (Malformed reason)
    in
    let npending = int1 "pending" in
    if npending < 0 then raise (Malformed "negative pending count");
    let ex_pending =
      List.init npending (fun _ ->
          match tagged "arm" with
          | [ step; kind; salt ] ->
              {
                Fault.step = int_exn step;
                kind = kind_of_name kind;
                salt = int64_exn salt;
              }
          | _ -> raise (Malformed "bad arm line"))
    in
    let nfired = int1 "fired" in
    if nfired < 0 then raise (Malformed "negative fired count");
    let ex_fired =
      List.init nfired (fun _ ->
          match tagged "shot" with
          | [ step; kind; salt; fired_step; target ] ->
              {
                Fault.arm =
                  {
                    Fault.step = int_exn step;
                    kind = kind_of_name kind;
                    salt = int64_exn salt;
                  };
                fired_step = int_exn fired_step;
                target = int_exn target;
              }
          | _ -> raise (Malformed "bad shot line"))
    in
    (match next () with
    | "end" -> ()
    | _ -> raise (Malformed "missing end marker"));
    if not (!cursor = Array.length lines - 1 && lines.(!cursor) = "") then
      raise (Malformed "trailing garbage after end marker");
    Durable.Valid
      {
        sn_config_digest;
        sn_program_digest;
        sn_image =
          {
            Engine.ex_machine =
              {
                Machine.im_mem_words;
                im_regs;
                im_mem;
                im_pc;
                im_ret_stack;
                im_prng;
                im_outputs;
                im_steps;
                im_halted;
                im_poisoned;
              };
            ex_use;
            ex_taken;
            ex_state;
            ex_touched;
            ex_dissolve;
            ex_regions;
            ex_monitors;
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
          };
      }
  with Malformed reason -> Durable.Corrupt reason

let of_string text = Durable.bind (Durable.unseal ~magic text) parse_payload

(* ---- restore ----------------------------------------------------------- *)

let restore ~config ~program parsed =
  let cd = config_digest config in
  let pd = program_digest program in
  if not (String.equal cd parsed.sn_config_digest) then
    Error
      (Printf.sprintf "config mismatch: snapshot taken under %s, resuming under %s"
         parsed.sn_config_digest cd)
  else if not (String.equal pd parsed.sn_program_digest) then
    Error
      (Printf.sprintf
         "program mismatch: snapshot taken under %s, resuming under %s"
         parsed.sn_program_digest pd)
  else
    match Engine.restore ~config program parsed.sn_image with
    | t -> Ok t
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
