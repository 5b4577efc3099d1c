(* Groups at the chunk edges: a group's driver records the block stream
   in chunks of [Engine.Group.chunk_events] events and every member
   replays each chunk in turn, so a member's stop, a halt, a trap and a
   suspension can each fall on the first, a middle or the last event of
   a chunk.  Wherever it falls, every member must end exactly as its own
   engine does, and a group suspended mid-chunk must resume to the
   uninterrupted group's results. *)

module Assembler = Tpdbt_isa.Assembler
module Machine = Tpdbt_vm.Machine
module Block_map = Tpdbt_dbt.Block_map
module Code_cache = Tpdbt_dbt.Code_cache
module Engine = Tpdbt_dbt.Engine
module Error = Tpdbt_dbt.Error
module Perf_model = Tpdbt_dbt.Perf_model
module Snap = Tpdbt_dbt.Exec_snapshot
module Durable = Tpdbt_durable.Durable
module Spec = Tpdbt_workloads.Spec
module Suite = Tpdbt_workloads.Suite

let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string
let chunk = Engine.Group.chunk_events

(* Everything a member reports: steps, outputs, error, counters (cycles
   included), region stats and the profile text. *)
let result_text (r : Engine.result) =
  let w = Durable.Writer.create () in
  let line fmt = Durable.Writer.line w fmt in
  line "steps %d" r.Engine.steps;
  Durable.Writer.ints w "outputs" (Array.of_list r.Engine.outputs);
  line "error %s"
    (match r.Engine.error with None -> "none" | Some e -> Error.to_string e);
  Perf_model.write_counters w r.Engine.counters;
  List.iter
    (fun (id, (s : Engine.region_stats)) ->
      line "regstat %d %d %d %d %d" id s.Engine.entries s.Engine.side_exits
        s.Engine.loop_back_taken s.Engine.loop_back_seen)
    r.Engine.region_stats;
  Durable.Writer.section w "profile"
    (Tpdbt_profiles.Profile_io.to_string r.Engine.snapshot);
  Durable.Writer.contents w

(* The step count after each block the driver runs, from the machine
   alone: a block runs its whole size unless it halts or traps first,
   and the stream ends where no block starts. *)
let block_stream ?mem_words ~seed program ~limit =
  let m = Machine.create ?mem_words ~seed program in
  let bmap = Block_map.build program in
  let rec go acc k =
    if k = limit || Machine.halted m then Array.of_list (List.rev acc)
    else
      match Block_map.block_at bmap (Machine.pc m) with
      | None -> Array.of_list (List.rev acc)
      | Some b ->
          let rec run i =
            if i > 0 && not (Machine.halted m) then begin
              ignore (Machine.step_code m);
              run (i - 1)
            end
          in
          run (Block_map.block bmap b).Block_map.size;
          go (Machine.steps m :: acc) (k + 1)
  in
  go [] 0

(* Budgets that stop a member on event [e] of the stream, or at the
   first dispatch point after it for a member inside a region: the
   first, a middle and the last event of the first chunk, the first
   and an early event of the second, and a middle event of the
   second. *)
let edge_budgets stream =
  List.filter_map
    (fun e -> if e < Array.length stream then Some stream.(e) else None)
    [ 0; chunk / 2; chunk - 1; chunk; chunk + 2; chunk + (chunk / 2) ]

let configs_at budgets =
  List.concat_map
    (fun max_steps ->
      List.map
        (fun c -> { c with Engine.max_steps })
        [
          Engine.profiling_only;
          Engine.config ~threshold:1 ();
          Engine.config ~threshold:5 ~pool_trigger:1 ();
          Engine.config ~threshold:50 ();
          (* members whose side exits, cache and slot costs take the
             replay loop's hand-offs: dissolution, eviction, and the
             pipelined schedule *)
          { (Engine.config ~threshold:5 ~adaptive:true ()) with
            Engine.reopt_min_entries = 8 };
          Engine.config ~threshold:5 ~cache_capacity:32
            ~cache_policy:Code_cache.Lru ();
          { (Engine.config ~threshold:50 ()) with Engine.trace_scheduling = true };
        ])
    budgets

let solo ?mem_words ~seed program config =
  Engine.run (Engine.create ~config ?mem_words ~seed program)

(* Every member of one group against its own engine.  With [every], the
   group suspends every that many steps, which ends a chunk there, and
   runs on in place. *)
let check_group ?mem_words ?(every = 0) ~seed label program configs =
  let g =
    Engine.Group.create ?mem_words ~seed program
      (List.map (fun c -> { c with Engine.snapshot_every = every }) configs)
  in
  let rec finish () =
    match Engine.Group.run g with
    | None -> ()
    | Some (Error.Suspended _) when every > 0 -> finish ()
    | Some e ->
        Alcotest.failf "%s: the group stopped with %s" label
          (Error.to_string e)
  in
  finish ();
  List.iteri
    (fun i (c, grouped) ->
      checks
        (Printf.sprintf "%s member %d (T=%d, budget %d)" label i
           c.Engine.threshold c.Engine.max_steps)
        (result_text (solo ?mem_words ~seed program c))
        (result_text grouped))
    (List.combine configs (Engine.Group.results g))

let bench_program name =
  let bench = Option.get (Suite.find name) in
  let program, ref_input, _ = Spec.build bench in
  (Spec.apply_input program ref_input, ref_input.Spec.seed)

let test_suite_member_edges () =
  let program, seed = bench_program "gzip" in
  let stream = block_stream ~seed program ~limit:(2 * chunk) in
  checki "gzip runs two chunks" (2 * chunk) (Array.length stream);
  check_group ~seed "gzip" program
    (configs_at (edge_budgets stream @ [ 60_000 ]))

(* A generated program runs a few hundred blocks, less than a chunk:
   its one chunk ends with the run, and a group suspension ends one
   early.  The first seed whose stream reaches 300 events. *)
let test_generated_edges () =
  let mem_words = Tpdbt_fuzz.Gen.default.Tpdbt_fuzz.Gen.mem_words in
  let rec find seed =
    if seed > 200 then Alcotest.fail "no generated program runs 300 blocks"
    else
      let program =
        Tpdbt_fuzz.Gen.program
          (Tpdbt_vm.Prng.create ~seed:(Int64.of_int seed))
          { Tpdbt_fuzz.Gen.default with Tpdbt_fuzz.Gen.size = 400 }
      in
      let stream = block_stream ~mem_words ~seed:1L program ~limit:chunk in
      if Array.length stream >= 300 then (program, stream) else find (seed + 1)
  in
  let program, stream = find 1 in
  let n = Array.length stream in
  let at events = List.map (fun e -> stream.(e)) events in
  check_group ~mem_words ~seed:1L "generated" program
    (configs_at (at [ 0; n / 2; n - 1 ] @ [ max_int ]));
  (* The suspension ends the first chunk on event [p]; the next starts
     on [p + 1]. *)
  let p = n / 3 in
  check_group ~mem_words ~every:stream.(p) ~seed:1L "generated, suspending"
    program
    (configs_at (at [ p - 1; p; p + 1; p + 2; n - 1 ] @ [ max_int ]))

(* A loop of three or four blocks an iteration: [trips] iterations end
   past the first chunk, then [tail] runs. *)
let loop_src ~trips ~tail =
  Printf.sprintf
    {|
.entry main
main:
    movi r1, %d
    movi r2, 0
    movi r4, 0
loop:
    addi r2, r2, 1
    andi r3, r2, 3
    bgt r3, r0, skip
    addi r2, r2, 2
    out r2
skip:
    subi r1, r1, 1
    bgt r1, r0, loop
    out r2
%s
|}
    trips tail

let run_to_end_configs =
  [
    Engine.profiling_only;
    Engine.config ~threshold:1 ();
    Engine.config ~threshold:5 ~pool_trigger:1 ();
    Engine.config ~threshold:50 ();
    Engine.config ~threshold:100000 ();
  ]

(* The run's last event lands mid-chunk: after [chunk + chunk / 2]
   events or so, by a halt or by a division by zero. *)
let test_halt_and_trap_mid_chunk () =
  List.iter
    (fun (label, tail, check_error) ->
      let program =
        Assembler.assemble_exn (loop_src ~trips:550 ~tail)
      in
      let stream = block_stream ~seed:3L program ~limit:(4 * chunk) in
      let n = Array.length stream in
      if n mod chunk < 4 || n mod chunk > chunk - 4 || n < chunk then
        Alcotest.failf "%s: %d events do not end mid-chunk" label n;
      check_group ~seed:3L label program
        (run_to_end_configs @ configs_at (edge_budgets stream));
      check_error
        (solo ~seed:3L program Engine.profiling_only).Engine.error)
    [
      ( "halt",
        "    halt",
        fun e -> if e <> None then Alcotest.fail "halt: the run did not halt" );
      ( "trap",
        "    movi r5, 0\n    div r6, r2, r5\n    halt",
        function
        | Some (Error.Trap _) -> ()
        | _ -> Alcotest.fail "trap: the run did not trap" );
    ]

(* Suspend a group mid-chunk, send it through its record and back, and
   resume it: the same results as the group that never stopped, and the
   suspension where the first block boundary at or past the trigger
   lies. *)
let test_suspend_mid_chunk () =
  let program, seed = bench_program "gzip" in
  let stream = block_stream ~seed program ~limit:(2 * chunk) in
  let every = stream.(chunk + (chunk / 2) - 1) + 1 in
  let expected = stream.(chunk + (chunk / 2)) in
  let configs = configs_at [ 40_000 ] in
  let members =
    List.mapi
      (fun i c -> (Printf.sprintf "m%d" i, { c with Engine.snapshot_every = every }))
      configs
  in
  let straight = Engine.Group.create ~seed program configs in
  ignore (Engine.Group.run straight);
  let g = Engine.Group.create ~seed program (List.map snd members) in
  (match Engine.Group.run g with
  | Some (Error.Suspended { steps; deadline = false }) ->
      checki "suspended at the first boundary past the trigger" expected steps
  | _ -> Alcotest.fail "the group did not suspend");
  let text =
    Snap.group_to_string ~program members (Engine.Group.capture g)
  in
  let restored =
    match Snap.group_of_string text with
    | Durable.Valid parsed -> (
        match Snap.group_restore ~program members parsed with
        | Ok g -> g
        | Error reason -> Alcotest.fail ("restore refused: " ^ reason))
    | _ -> Alcotest.fail "the group record does not parse"
  in
  let rec finish g =
    match Engine.Group.run g with
    | Some (Error.Suspended _) -> finish g
    | Some e -> Alcotest.fail (Error.to_string e)
    | None -> Engine.Group.results g
  in
  List.iteri
    (fun i (a, b) ->
      checks (Printf.sprintf "member %d" i) (result_text a) (result_text b))
    (List.combine (Engine.Group.results straight) (finish restored))

(* A one-block loop of [inner] trips inside a loop of [outer] trips:
   the stream is mostly runs of one block and outcome, [inner - 1]
   events long, and they straddle the chunk edges. *)
let runs_src ~outer ~inner =
  Printf.sprintf
    {|
.entry main
main:
    movi r1, %d
    movi r2, 0
outer:
    movi r3, %d
inner:
    addi r2, r2, 1
    subi r3, r3, 1
    bgt r3, r0, inner
    out r2
    out r1
    subi r1, r1, 1
    bgt r1, r0, outer
    halt
|}
    outer inner

(* Replay takes a run of repeated events in one step only as far as the
   member's state cannot change inside it.  Here every edge of that
   lands inside a run: the inner block's registration (T = 100, and
   T = 1000 three trips of the outer loop later), its second threshold
   (2T = 200 and 2000), a round fired by the registration itself
   (pool trigger 1), the step budget, the chunk's end and a group
   suspension.  The inner block's runs then replay as a one-block loop
   region, whose loop-back counters rise by the run.  One member's
   charges are not whole numbers, so its cycle sum is exact only if a
   run's charges are added one by one. *)
let test_runs_at_every_edge () =
  let program = Assembler.assemble_exn (runs_src ~outer:12 ~inner:300) in
  let stream = block_stream ~seed:1L program ~limit:(8 * chunk) in
  (* Event [e] and its neighbours run the inner block, the only one of
     three instructions. *)
  let in_run e =
    e >= 3
    && e + 1 < Array.length stream
    && List.for_all
         (fun k -> stream.(k) - stream.(k - 1) = 3)
         [ e - 1; e; e + 1 ]
  in
  let budgets =
    List.map
      (fun e ->
        if not (in_run e) then Alcotest.failf "event %d is not inside a run" e;
        stream.(e))
      [ 50; 150; chunk - 1; chunk; chunk + 1; (2 * chunk) + 100 ]
  in
  let members =
    [
      Engine.profiling_only;
      Engine.config ~threshold:1 ();
      Engine.config ~threshold:37 ~pool_trigger:1 ();
      Engine.config ~threshold:100 ();
      Engine.config ~threshold:1000 ();
      {
        (Engine.config ~threshold:100 ()) with
        Engine.perf =
          {
            Perf_model.default with
            Perf_model.profiled_exec_per_instr = 0.1;
            profiling_op_cost = 0.3;
          };
      };
    ]
  in
  let at budgets =
    List.concat_map
      (fun max_steps ->
        List.map (fun c -> { c with Engine.max_steps }) members)
      budgets
  in
  check_group ~seed:1L "runs" program
    (members @ at budgets @ configs_at budgets);
  (* A suspension every [stream.(150)] steps: the first lands inside the
     first trip's run, the next ones wherever the period falls. *)
  check_group ~every:stream.(150) ~seed:1L "runs, suspending" program
    (members @ at budgets)

let suite =
  [
    Alcotest.test_case "suite member stops at chunk edges" `Quick
      test_suite_member_edges;
    Alcotest.test_case "generated program stops at chunk edges" `Quick
      test_generated_edges;
    Alcotest.test_case "halt and trap mid-chunk" `Quick
      test_halt_and_trap_mid_chunk;
    Alcotest.test_case "suspend mid-chunk and resume" `Quick
      test_suspend_mid_chunk;
    Alcotest.test_case "runs at every edge" `Quick test_runs_at_every_edge;
  ]
