(* The zero-allocation hot path.  Four contracts pin it down:
   - the hand-split 32-bit-halves PRNG must match a straightforward
     Int64 SplitMix64 reference bit for bit, on every derived draw;
   - the predecoded dispatch table ([Machine.step]) must be
     step-identical to the retained [Instr.t]-matching reference
     decoder ([Machine.step_spec]) over a population of generated
     programs, traps, PRNG draws and final memory images included, at
     a memory size whose prefix grows on demand as well;
   - the steady-state interpreter loop must not allocate (a hard
     [Gc.minor_words] budget per million steps — this is the number
     the CI alloc-gate keeps honest end to end), and neither may a
     group of translator models fed by one driver;
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
(* Dispatch table vs reference decoder, in lockstep                     *)
(* ------------------------------------------------------------------ *)

(* Generated programs terminate (halt, trap, or fall off the end) well
   under this; see Gen's termination argument. *)
let lockstep_cap = 300_000

let show_result = function
  | Ok Machine.Stepped -> "stepped"
  | Ok (Machine.Branched { taken }) ->
      if taken then "branch-taken" else "branch-not-taken"
  | Ok Machine.Jumped -> "jumped"
  | Ok Machine.Called -> "called"
  | Ok Machine.Returned -> "returned"
  | Ok Machine.Halted -> "halted"
  | Error t -> Format.asprintf "trap %a" Machine.pp_trap t

let lockstep seed prog ~mem_words =
  let fast = Machine.create ~mem_words ~seed prog in
  let spec = Machine.create ~mem_words ~seed prog in
  let steps = ref 0 in
  let running = ref true in
  while !running && !steps < lockstep_cap do
    let ef = Machine.step fast in
    let es = Machine.step_spec spec in
    if ef <> es then
      Alcotest.failf "seed %Ld step %d: table %s vs spec %s" seed !steps
        (show_result ef) (show_result es);
    if Machine.pc fast <> Machine.pc spec then
      Alcotest.failf "seed %Ld step %d: pc %d vs %d" seed !steps
        (Machine.pc fast) (Machine.pc spec);
    incr steps;
    match ef with Ok Machine.Halted | Error _ -> running := false | Ok _ -> ()
  done;
  checkb "terminated under the cap" false !running;
  checki "steps agree" (Machine.steps spec) (Machine.steps fast);
  checkb "halt state agrees" true (Machine.halted fast = Machine.halted spec);
  checkb "traps agree" true
    (Machine.last_trap fast = Machine.last_trap spec);
  List.iter
    (fun reg ->
      checki
        (Printf.sprintf "seed %Ld: %s agrees" seed (Reg.to_string reg))
        (Machine.reg spec reg) (Machine.reg fast reg))
    Reg.all;
  checkb "outputs agree" true (Machine.outputs fast = Machine.outputs spec);
  let image = Machine.capture fast in
  checkb
    (Printf.sprintf "seed %Ld: images agree" seed)
    true
    (image = Machine.capture spec);
  image

(* Words a fresh machine materialises for [prog]: the 4096-word floor or
   enough to hold its highest data binding. *)
let initial_prefix prog =
  List.fold_left
    (fun top (addr, _) -> max top (addr + 1))
    4096 prog.Program.data_init

(* Returns how many programs stored above their machine's initial
   prefix, i.e. ran the memory growth path. *)
let lockstep_population ~mem_words =
  let params = { Gen.default with Gen.mem_words } in
  let grew = ref 0 in
  for seed = 1 to 30 do
    let seed = Int64.of_int (seed * 7919) in
    let prog = Gen.program (Prng.create ~seed) params in
    let image = lockstep seed prog ~mem_words in
    if
      Array.exists
        (fun (addr, _) -> addr >= initial_prefix prog)
        image.Machine.im_mem
    then incr grew
  done;
  !grew

let test_dispatch_table_identity () =
  (* At the fuzzer's 1024 words the whole memory is materialised up
     front; at 2^16 generated addresses reach past the initial prefix. *)
  ignore (lockstep_population ~mem_words:Gen.default.Gen.mem_words);
  checkb "some programs grow memory" true
    (lockstep_population ~mem_words:(1 lsl 16) > 0)

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

(* The tentpole's contract: interpreting guest code allocates nothing
   per step.  The budget leaves room for GC bookkeeping noise but is
   four orders of magnitude below the old ~9 words/instr. *)
let alloc_budget_words_per_msteps = 10_000.0

let test_steady_state_allocation () =
  let trips = 200_000 in
  let m = Machine.create ~mem_words:1024 ~seed:1L (tight_loop trips) in
  (* Warm through decode-adjacent one-time costs before metering. *)
  for _ = 1 to 100 do
    ignore (Machine.step_code m)
  done;
  let guard = ref 0 in
  let before = Gc.minor_words () in
  while Machine.step_code m <= Machine.ev_returned && !guard < 2_000_000 do
    incr guard
  done;
  let after = Gc.minor_words () in
  checkb "loop ran to the halt" true (Machine.halted m);
  checkb "loop was long enough to meter" true (Machine.steps m > 1_000_000);
  let words = after -. before in
  let per_msteps = words /. (float_of_int (Machine.steps m) /. 1e6) in
  if per_msteps > alloc_budget_words_per_msteps then
    Alcotest.failf "steady state allocates %.0f words per 1M steps (budget %.0f)"
      per_msteps alloc_budget_words_per_msteps

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
      test_dispatch_table_identity;
    Alcotest.test_case "steady-state allocation budget" `Quick
      test_steady_state_allocation;
    Alcotest.test_case "group run allocation budget" `Quick
      test_group_allocation;
    Alcotest.test_case "perfdiff host validation and alloc-only" `Quick
      test_perfdiff_cli_host_and_alloc_only;
  ]
