(* The zero-allocation hot path.  Five contracts pin it down:
   - the hand-split 32-bit-halves PRNG must match a straightforward
     Int64 SplitMix64 reference bit for bit, on every derived draw;
   - the reference stepper ([Machine.step_code]) must be step-identical
     to the test tree's own interpreter ([Vm_ref]) over a population of
     generated programs, traps, PRNG draws and final memory images
     included, at a memory size whose prefix grows on demand as well;
   - a block run through its translated closure chain
     ([Machine.exec_block]) must leave exactly the machine the stepper
     leaves, at every block boundary: on generated programs, on every
     trap kind wherever it sits in a block, on a pc poisoned after its
     block was translated, on a chain asked for another size and on a
     machine restored from a mid-run image;
   - the steady-state interpreter loop must not allocate, translated or
     stepped (a hard [Gc.minor_words] budget per million steps — this
     is the number the CI alloc-gate keeps honest end to end), and
     neither may a group of translator models fed by one driver;
   - [tpdbt perfdiff] must refuse BENCH files without host metadata
     (exit 2) and must judge alloc_per_instr alone. *)

module Instr = Tpdbt_isa.Instr
module Program = Tpdbt_isa.Program
module Reg = Tpdbt_isa.Reg
module Machine = Tpdbt_vm.Machine
module Prng = Tpdbt_vm.Prng
module Gen = Tpdbt_fuzz.Gen

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let r = Reg.of_int

(* ------------------------------------------------------------------ *)
(* PRNG vs Int64 SplitMix64 reference                                   *)
(* ------------------------------------------------------------------ *)

(* The textbook formulation the split-halves implementation must
   reproduce exactly. *)
let sm64_next state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let seeds =
  [ 0L; 1L; 2L; 42L; -1L; 0x123456789ABCDEFL; Int64.max_int; Int64.min_int ]

let test_prng_matches_reference () =
  List.iter
    (fun seed ->
      let p = Prng.create ~seed and state = ref seed in
      for i = 1 to 10_000 do
        let want = sm64_next state in
        let got = Prng.next_int64 p in
        if got <> want then
          Alcotest.failf "seed %Ld draw %d: got %Lx want %Lx" seed i got want
      done)
    seeds

let test_prng_below_matches_reference () =
  let bounds = [| 1; 2; 3; 7; 10; 100; 12345; 1 lsl 30 |] in
  List.iter
    (fun seed ->
      let p = Prng.create ~seed and state = ref seed in
      for i = 1 to 10_000 do
        let bound = bounds.(i mod Array.length bounds) in
        let z = sm64_next state in
        let want = Int64.to_int (Int64.shift_right_logical z 2) mod bound in
        let got = Prng.below p bound in
        if got <> want then
          Alcotest.failf "seed %Ld draw %d below %d: got %d want %d" seed i
            bound got want
      done)
    seeds

let test_prng_float_matches_reference () =
  List.iter
    (fun seed ->
      let p = Prng.create ~seed and state = ref seed in
      for i = 1 to 10_000 do
        let z = sm64_next state in
        let want =
          float_of_int (Int64.to_int (Int64.shift_right_logical z 11))
          /. 9007199254740992.0
        in
        let got = Prng.float p in
        if got <> want then
          Alcotest.failf "seed %Ld draw %d: got %h want %h" seed i got want
      done)
    seeds

(* ------------------------------------------------------------------ *)
(* Reference stepper vs the test tree's interpreter, in lockstep        *)
(* ------------------------------------------------------------------ *)

(* Generated programs terminate (halt, trap, or fall off the end) well
   under this; see Gen's termination argument. *)
let lockstep_cap = 300_000

let show_result = function
  | Ok Vm_ref.Stepped -> "stepped"
  | Ok (Vm_ref.Branched { taken }) ->
      if taken then "branch-taken" else "branch-not-taken"
  | Ok Vm_ref.Jumped -> "jumped"
  | Ok Vm_ref.Called -> "called"
  | Ok Vm_ref.Returned -> "returned"
  | Ok Vm_ref.Halted -> "halted"
  | Error t -> Format.asprintf "trap %a" Machine.pp_trap t

let lockstep seed prog ~mem_words =
  let fast = Machine.create ~mem_words ~seed prog in
  let spec = Vm_ref.create ~mem_words ~seed prog in
  let steps = ref 0 in
  let running = ref true in
  while !running && !steps < lockstep_cap do
    let ef = Vm_ref.machine_step fast in
    let es = Vm_ref.step spec in
    if ef <> es then
      Alcotest.failf "seed %Ld step %d: machine %s vs spec %s" seed !steps
        (show_result ef) (show_result es);
    if Machine.pc fast <> spec.Vm_ref.pc then
      Alcotest.failf "seed %Ld step %d: pc %d vs %d" seed !steps
        (Machine.pc fast) spec.Vm_ref.pc;
    incr steps;
    match ef with Ok Vm_ref.Halted | Error _ -> running := false | Ok _ -> ()
  done;
  checkb "terminated under the cap" false !running;
  checkb "traps agree" true (Machine.last_trap fast = spec.Vm_ref.trap);
  let image = Machine.capture fast in
  checkb
    (Printf.sprintf "seed %Ld: images agree" seed)
    true
    (image = Vm_ref.image spec);
  image

(* Words a fresh machine materialises for [prog]: the 4096-word floor or
   enough to hold its highest data binding. *)
let initial_prefix prog =
  List.fold_left
    (fun top (addr, _) -> max top (addr + 1))
    4096 prog.Program.data_init

(* Runs [check] over 30 generated programs and returns how many stored
   above their machine's initial prefix, i.e. ran the memory growth
   path, as the image [check] returns shows. *)
let population check ~mem_words =
  let params = { Gen.default with Gen.mem_words } in
  let grew = ref 0 in
  for seed = 1 to 30 do
    let seed = Int64.of_int (seed * 7919) in
    let prog = Gen.program (Prng.create ~seed) params in
    let image = check seed prog ~mem_words in
    if
      Array.exists
        (fun (addr, _) -> addr >= initial_prefix prog)
        image.Machine.im_mem
    then incr grew
  done;
  !grew

(* At the fuzzer's 1024 words the whole memory is materialised up
   front; at 2^16 generated addresses reach past the initial prefix. *)
let test_population check () =
  ignore (population check ~mem_words:Gen.default.Gen.mem_words);
  checkb "some programs grow memory" true
    (population check ~mem_words:(1 lsl 16) > 0)

(* ------------------------------------------------------------------ *)
(* Translated blocks vs the reference stepper                           *)
(* ------------------------------------------------------------------ *)

module Block_map = Tpdbt_dbt.Block_map

(* What [exec_block m size] must do: [step_code] until an instruction
   does more than step, or [size] have run. *)
let rec step_block m size =
  let c = Machine.step_code m in
  if c = Machine.ev_stepped && size > 1 then step_block m (size - 1) else c

(* Run [translated] block by block through [exec_block] and [stepped]
   through [step_block], each block's size given by [size_at] at the
   pc, and compare the codes and the two machines' images at every
   block boundary, up to a terminal code.  Returns the number of blocks
   run. *)
let agree ?(cap = 100_000) ~what ~size_at translated stepped =
  let rec go n =
    if n >= cap then Alcotest.failf "%s: still running after %d blocks" what n
    else
      let size = size_at (Machine.pc translated) in
      let ct = Machine.exec_block translated size in
      let cs = step_block stepped size in
      if ct <> cs then
        Alcotest.failf "%s: block %d (size %d): code %d translated, %d stepped"
          what n size ct cs;
      if Machine.capture translated <> Machine.capture stepped then
        Alcotest.failf "%s: block %d (size %d): images differ (steps %d vs %d)"
          what n size (Machine.steps translated) (Machine.steps stepped);
      if ct <= Machine.ev_returned then go (n + 1) else n + 1
  in
  go 0

(* The block map's size for the block starting at the pc, as the
   engine's driver reads it; 1 where no block starts. *)
let block_sizes prog =
  match Block_map.build_result prog with
  | Error e -> Alcotest.failf "block map: %s" (Tpdbt_dbt.Error.to_string e)
  | Ok bmap -> (
      fun pc ->
        match Block_map.id_at bmap pc with
        | -1 -> 1
        | id -> (Block_map.block bmap id).Block_map.size)

let translated seed prog ~mem_words =
  let translated = Machine.create ~mem_words ~seed prog in
  let stepped = Machine.create ~mem_words ~seed prog in
  ignore
    (agree
       ~what:(Printf.sprintf "seed %Ld" seed)
       ~size_at:(block_sizes prog) translated stepped);
  Machine.capture translated

(* A five-instruction block from pc 0 whose instruction at [at] is
   [ins] and the others add to r1, then a halt.  The record is built
   directly, so a branch target may lie outside the code. *)
let trap_block ins ~at =
  let filler = Instr.Binopi (Instr.Add, r 1, r 1, 1) in
  {
    Program.code =
      Array.init 6 (fun pc ->
          if pc = at then ins else if pc = 5 then Instr.Halt else filler);
    entry = 0;
    data_init = [];
  }

(* Every trap kind, each with the trap it must raise from [pc].  All
   registers start at 0, so r2 divides by zero and a load or store at
   r0 - 1 faults; the call-stack overflow calls the block itself until
   the stack is full. *)
let trap_kinds =
  [
    ("div", Instr.Binop (Instr.Div, r 3, r 1, r 2),
     fun pc -> Machine.Division_by_zero pc);
    ("rem", Instr.Binop (Instr.Rem, r 3, r 1, r 2),
     fun pc -> Machine.Division_by_zero pc);
    ("divi", Instr.Binopi (Instr.Div, r 3, r 1, 0),
     fun pc -> Machine.Division_by_zero pc);
    ("remi", Instr.Binopi (Instr.Rem, r 3, r 1, 0),
     fun pc -> Machine.Division_by_zero pc);
    ("load", Instr.Load (r 3, r 0, -1),
     fun pc -> Machine.Memory_fault { pc; addr = -1 });
    ("store", Instr.Store (r 3, r 0, -1),
     fun pc -> Machine.Memory_fault { pc; addr = -1 });
    ("rnd", Instr.Rnd (r 3, 0),
     fun pc -> Machine.Invalid_rnd_bound { pc; bound = 0 });
    ("br", Instr.Br (Instr.Eq, r 0, r 0, 99),
     fun pc -> Machine.Branch_out_of_range { pc; target = 99 });
    ("jmp", Instr.Jmp 99,
     fun pc -> Machine.Branch_out_of_range { pc; target = 99 });
    ("call", Instr.Call 99,
     fun pc -> Machine.Branch_out_of_range { pc; target = 99 });
    ("call overflow", Instr.Call 0,
     fun pc -> Machine.Call_stack_overflow pc);
    ("ret", Instr.Ret, fun pc -> Machine.Return_without_call pc);
  ]

(* Each trap at the first, a middle and the last instruction of a
   five-instruction block: the trap counts its instruction, leaves the
   pc on it, and no instruction after it runs. *)
let test_translated_traps () =
  List.iter
    (fun (kind, ins, trap) ->
      List.iter
        (fun at ->
          let prog = trap_block ins ~at in
          let translated = Machine.create ~mem_words:64 prog in
          let stepped = Machine.create ~mem_words:64 prog in
          let what = Printf.sprintf "%s at %d" kind at in
          let blocks = agree ~what ~size_at:(fun _ -> 5) translated stepped in
          checkb (what ^ ": trapped") true
            (Machine.last_trap translated = Some (trap at));
          checki (what ^ ": pc on the trap") at (Machine.pc translated);
          checki (what ^ ": steps")
            (blocks * (at + 1))
            (Machine.steps translated);
          checki (what ^ ": no later instruction ran") (blocks * at)
            (Machine.reg translated (r 1)))
        [ 0; 2; 4 ])
    trap_kinds

(* A counted loop: the prologue block loads the trip count, the loop
   body (pcs 1-3) calls a three-instruction callee (6-8) that prints,
   and the branch at 4 closes the loop. *)
let loop_prog trips =
  Program.make ~data_init:[ (0, trips) ]
    [|
      Instr.Load (r 4, r 0, 0);
      Instr.Binopi (Instr.Add, r 1, r 1, 1);
      Instr.Binopi (Instr.Mul, r 2, r 1, 3);
      Instr.Call 6;
      Instr.Br (Instr.Lt, r 1, r 4, 1);
      Instr.Halt;
      Instr.Binopi (Instr.Xor, r 3, r 2, 5);
      Instr.Out (r 3);
      Instr.Ret;
    |]

(* Poisoning a pc inside a block that is already translated: the next
   execution traps there, exactly as the stepper does. *)
let test_poison_after_translation () =
  let prog = loop_prog 1000 in
  let size_at = block_sizes prog in
  let translated = Machine.create ~mem_words:64 prog in
  let stepped = Machine.create ~mem_words:64 prog in
  for _ = 1 to 20 do
    ignore (Machine.exec_block translated (size_at (Machine.pc translated)));
    ignore (step_block stepped (size_at (Machine.pc stepped)))
  done;
  checkb "the loop is still running" false (Machine.halted translated);
  List.iter (fun m -> Machine.poison m 2) [ translated; stepped ];
  ignore (agree ~what:"poisoned" ~size_at translated stepped);
  checkb "the poisoned pc traps" true
    (Machine.last_trap translated = Some (Machine.Illegal_instruction 2));
  checki "the pc stays on it" 2 (Machine.pc translated)

(* A chain runs only for the size it was built for: the same start pc
   asked for another size runs that many instructions, and a size that
   reaches past the code takes the stepper. *)
let test_translated_size () =
  let add reg = Instr.Binopi (Instr.Add, r reg, r reg, 1) in
  let prog = Program.make [| add 1; add 2; add 3; Instr.Jmp 0 |] in
  let translated = Machine.create ~mem_words:64 prog in
  let stepped = Machine.create ~mem_words:64 prog in
  List.iteri
    (fun i size ->
      let what = Printf.sprintf "block %d (size %d)" i size in
      let ct = Machine.exec_block translated size in
      checki (what ^ ": code") (step_block stepped size) ct;
      checkb (what ^ ": images agree") true
        (Machine.capture translated = Machine.capture stepped))
    [ 2; 2; 4; 1; 3; 4; 2; 9; 2 ]

(* A machine restored from a mid-run image carries no translated block:
   it translates again on use and runs on to the same end as the
   machine it was captured from, and as the stepper. *)
let test_translated_restore () =
  let prog = loop_prog 500 in
  let size_at = block_sizes prog in
  let translated = Machine.create ~mem_words:64 prog in
  let stepped = Machine.create ~mem_words:64 prog in
  for _ = 1 to 333 do
    ignore (Machine.exec_block translated (size_at (Machine.pc translated)));
    ignore (step_block stepped (size_at (Machine.pc stepped)))
  done;
  let image = Machine.capture translated in
  checkb "the image is the stepper's" true (image = Machine.capture stepped);
  let restored = Machine.restore prog image in
  ignore (agree ~what:"restored" ~size_at restored stepped);
  ignore
    (agree ~what:"original" ~size_at translated (Machine.restore prog image));
  checkb "restored and original end alike" true
    (Machine.capture restored = Machine.capture translated);
  checkb "the run halted" true (Machine.halted restored);
  checki "every trip printed" 500 (Machine.output_count restored)

(* ------------------------------------------------------------------ *)
(* Steady-state allocation budget                                       *)
(* ------------------------------------------------------------------ *)

(* One loop iteration = 5 steps over the ALU / load / store / branch
   mix; [trips] iterations then halt. *)
let tight_loop trips =
  Program.make
    [|
      Instr.Movi (r 0, trips);
      Instr.Movi (r 2, 0);
      Instr.Movi (r 3, 64);
      Instr.Store (r 1, r 3, 0);
      Instr.Load (r 4, r 3, 0);
      Instr.Binopi (Instr.Add, r 1, r 1, 1);
      Instr.Binopi (Instr.Sub, r 0, r 0, 1);
      Instr.Br (Instr.Ne, r 0, r 2, 3);
      Instr.Halt;
    |]

(* Interpreting guest code allocates nothing per step.  The budget
   leaves room for GC bookkeeping noise but is four orders of magnitude
   below the old ~9 words/instr. *)
let alloc_budget_words_per_msteps = 10_000.0

(* Run [m] to its halt by [advance], after a warm-up that translates
   every block the loop runs, and return the words allocated per
   million steps of the metered stretch. *)
let metered m advance =
  for _ = 1 to 100 do
    ignore (advance m)
  done;
  let guard = ref 0 in
  let before = Gc.minor_words () in
  while advance m <= Machine.ev_returned && !guard < 2_000_000 do
    incr guard
  done;
  let after = Gc.minor_words () in
  checkb "loop ran to the halt" true (Machine.halted m);
  checkb "loop was long enough to meter" true (Machine.steps m > 1_000_000);
  (after -. before) /. (float_of_int (Machine.steps m) /. 1e6)

(* The reference stepper, and the driver's path: one translated block
   per call, each of the block map's size. *)
let test_steady_state_allocation () =
  let prog = tight_loop 200_000 in
  let size_at = block_sizes prog in
  List.iter
    (fun (path, advance) ->
      let m = Machine.create ~mem_words:1024 ~seed:1L prog in
      let per_msteps = metered m advance in
      if per_msteps > alloc_budget_words_per_msteps then
        Alcotest.failf
          "%s: steady state allocates %.0f words per 1M steps (budget %.0f)"
          path per_msteps alloc_budget_words_per_msteps)
    [
      ("step_code", Machine.step_code);
      ("exec_block", fun m -> Machine.exec_block m (size_at (Machine.pc m)));
    ]

(* One driver feeding a profiling model and optimising models, as the
   sweep's group does: past the first optimisation rounds every block
   is a table lookup and a few counter updates per model, so a whole
   group run stays inside the interpreter's budget. *)
let test_group_allocation () =
  let module Engine = Tpdbt_dbt.Engine in
  let configs =
    [
      Engine.profiling_only;
      Engine.config ~threshold:2 ();
      Engine.config ~threshold:50 ();
    ]
  in
  let g =
    Engine.Group.create ~mem_words:1024 ~seed:1L (tight_loop 1_000_000) configs
  in
  let before = Gc.minor_words () in
  checkb "the group ran to the end" true (Engine.Group.run g = None);
  let after = Gc.minor_words () in
  let steps =
    List.fold_left max 0
      (List.map
         (fun (r : Engine.result) -> r.Engine.steps)
         (Engine.Group.results g))
  in
  checkb "loop was long enough to meter" true (steps > 1_000_000);
  let per_msteps = (after -. before) /. (float_of_int steps /. 1e6) in
  if per_msteps > alloc_budget_words_per_msteps then
    Alcotest.failf "a group run allocates %.0f words per 1M steps (budget %.0f)"
      per_msteps alloc_budget_words_per_msteps

(* ------------------------------------------------------------------ *)
(* perfdiff CLI: host validation and alloc-only judging                 *)
(* ------------------------------------------------------------------ *)

let tpdbt = Filename.concat (Filename.concat ".." "bin") "tpdbt.exe"

let exit_of args =
  match
    Unix.system
      (Filename.quote_command tpdbt args ~stdout:Filename.null
         ~stderr:Filename.null)
  with
  | Unix.WEXITED n -> n
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> Alcotest.fail "tpdbt killed"

let rec rm_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_tree (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_temp_dir f =
  let dir = Filename.temp_file "tpdbt-hotpath" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_tree dir) (fun () -> f dir)

let write_bench ?(host = true) path ~ips ~alloc =
  let oc = open_out path in
  output_string oc
    (Printf.sprintf
       "{%s\"benches\":[{\"name\":\"g\",\"guest_ips\":%g,\
        \"alloc_per_instr\":%g,\"cycles\":100}]}"
       (if host then "\"host\":{\"cores\":1,\"flambda\":false}," else "")
       ips alloc);
  close_out oc

let test_perfdiff_cli_host_and_alloc_only () =
  if not (Sys.file_exists tpdbt) then Alcotest.skip ()
  else
    with_temp_dir (fun dir ->
        let old_json = Filename.concat dir "old.json" in
        let new_json = Filename.concat dir "new.json" in
        let hostless = Filename.concat dir "hostless.json" in
        (* ips regressed badly, alloc unchanged *)
        write_bench old_json ~ips:1000.0 ~alloc:1.0;
        write_bench new_json ~ips:10.0 ~alloc:1.0;
        write_bench ~host:false hostless ~ips:1000.0 ~alloc:1.0;
        checki "missing host in old file is validation (2)" 2
          (exit_of [ "perfdiff"; hostless; new_json ]);
        checki "missing host in new file is validation (2)" 2
          (exit_of [ "perfdiff"; old_json; hostless ]);
        checki "a guest_ips-only regression passes (0)" 0
          (exit_of [ "perfdiff"; old_json; new_json ]);
        (* and the converse: an alloc regression is what it fails on *)
        let fat = Filename.concat dir "fat.json" in
        write_bench fat ~ips:1000.0 ~alloc:2.0;
        checki "an alloc regression fails (3)" 3
          (exit_of [ "perfdiff"; "--tolerance"; "1"; old_json; fat ]);
        checki "--alloc-only is not a flag: usage (1)" 1
          (exit_of [ "perfdiff"; "--alloc-only"; old_json; fat ]))

let suite =
  [
    Alcotest.test_case "prng matches int64 reference" `Quick
      test_prng_matches_reference;
    Alcotest.test_case "prng below matches reference" `Quick
      test_prng_below_matches_reference;
    Alcotest.test_case "prng float matches reference" `Quick
      test_prng_float_matches_reference;
    Alcotest.test_case "dispatch table step-identical to spec" `Quick
      (test_population lockstep);
    Alcotest.test_case "translated blocks match the stepper" `Quick
      (test_population translated);
    Alcotest.test_case "translated traps match the stepper" `Quick
      test_translated_traps;
    Alcotest.test_case "poison after translation traps" `Quick
      test_poison_after_translation;
    Alcotest.test_case "translated chain keeps its size" `Quick
      test_translated_size;
    Alcotest.test_case "restored machine translates again" `Quick
      test_translated_restore;
    Alcotest.test_case "steady-state allocation budget" `Quick
      test_steady_state_allocation;
    Alcotest.test_case "group run allocation budget" `Quick
      test_group_allocation;
    Alcotest.test_case "perfdiff host validation and alloc-only" `Quick
      test_perfdiff_cli_host_and_alloc_only;
  ]
