(* Tests for the guest VM: semantics of every instruction, 32-bit
   wrapping, traps, determinism. *)

module Instr = Tpdbt_isa.Instr
module Program = Tpdbt_isa.Program
module Assembler = Tpdbt_isa.Assembler
module Machine = Tpdbt_vm.Machine
module Prng = Tpdbt_vm.Prng
module Reg = Tpdbt_isa.Reg

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let r = Reg.of_int

let run_src ?(seed = 1L) ?(mem_words = 1 lsl 16) src =
  let p = Assembler.assemble_exn src in
  let m = Machine.create ~mem_words ~seed p in
  match Machine.run m with
  | Ok () -> m
  | Error trap -> Alcotest.failf "trap: %a" Machine.pp_trap trap

let run_expect_trap src =
  let p = Assembler.assemble_exn src in
  let m = Machine.create ~seed:1L p in
  match Machine.run m with
  | Ok () -> Alcotest.fail "expected a trap"
  | Error trap -> trap

(* ------------------------------------------------------------------ *)
(* Prng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:7L and b = Prng.create ~seed:7L in
  for _ = 1 to 100 do
    checkb "same stream" true (Prng.next_int64 a = Prng.next_int64 b)
  done;
  let c = Prng.create ~seed:8L in
  checkb "different seed differs" true
    (Prng.next_int64 (Prng.create ~seed:7L) <> Prng.next_int64 c)

let test_prng_below_range () =
  let p = Prng.create ~seed:3L in
  for _ = 1 to 1000 do
    let v = Prng.below p 17 in
    checkb "in range" true (v >= 0 && v < 17)
  done;
  Alcotest.check_raises "bound 0" (Invalid_argument "Prng.below: bound must be positive")
    (fun () -> ignore (Prng.below p 0))

let test_prng_below_uniformish () =
  let p = Prng.create ~seed:11L in
  let counts = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let v = Prng.below p 10 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      checkb (Printf.sprintf "bucket %d near 10%%" i) true
        (abs (c - (n / 10)) < n / 50))
    counts

let test_prng_float_range () =
  let p = Prng.create ~seed:5L in
  for _ = 1 to 1000 do
    let v = Prng.float p in
    checkb "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_prng_copy () =
  let a = Prng.create ~seed:99L in
  ignore (Prng.next_int64 a);
  let b = Prng.copy a in
  checkb "copy continues identically" true (Prng.next_int64 a = Prng.next_int64 b)

(* ------------------------------------------------------------------ *)
(* Arithmetic semantics                                                 *)
(* ------------------------------------------------------------------ *)

let test_arith () =
  let m =
    run_src
      {|
    movi r1, 7
    movi r2, 3
    add r3, r1, r2
    sub r4, r1, r2
    mul r5, r1, r2
    div r6, r1, r2
    rem r7, r1, r2
    and r8, r1, r2
    or r9, r1, r2
    xor r10, r1, r2
    shl r11, r1, r2
    shr r12, r1, r2
    halt
|}
  in
  checki "add" 10 (Machine.reg m (r 3));
  checki "sub" 4 (Machine.reg m (r 4));
  checki "mul" 21 (Machine.reg m (r 5));
  checki "div" 2 (Machine.reg m (r 6));
  checki "rem" 1 (Machine.reg m (r 7));
  checki "and" 3 (Machine.reg m (r 8));
  checki "or" 7 (Machine.reg m (r 9));
  checki "xor" 4 (Machine.reg m (r 10));
  checki "shl" 56 (Machine.reg m (r 11));
  checki "shr" 0 (Machine.reg m (r 12))

let test_immediate_forms () =
  let m =
    run_src
      {|
    movi r1, 10
    addi r2, r1, -4
    subi r3, r1, 4
    muli r4, r1, 5
    divi r5, r1, 3
    remi r6, r1, 3
    andi r7, r1, 2
    ori r8, r1, 5
    xori r9, r1, 15
    shli r10, r1, 2
    shri r11, r1, 1
    halt
|}
  in
  checki "addi" 6 (Machine.reg m (r 2));
  checki "subi" 6 (Machine.reg m (r 3));
  checki "muli" 50 (Machine.reg m (r 4));
  checki "divi" 3 (Machine.reg m (r 5));
  checki "remi" 1 (Machine.reg m (r 6));
  checki "andi" 2 (Machine.reg m (r 7));
  checki "ori" 15 (Machine.reg m (r 8));
  checki "xori" 5 (Machine.reg m (r 9));
  checki "shli" 40 (Machine.reg m (r 10));
  checki "shri" 5 (Machine.reg m (r 11))

let test_wrap32 () =
  let m =
    run_src
      {|
    movi r1, 2147483647
    addi r2, r1, 1
    movi r3, -2147483648
    subi r4, r3, 1
    muli r5, r1, 2
    halt
|}
  in
  checki "int32 max + 1 wraps" (-2147483648) (Machine.reg m (r 2));
  checki "int32 min - 1 wraps" 2147483647 (Machine.reg m (r 4));
  checki "mul wraps" (-2) (Machine.reg m (r 5))

let test_negative_div_rem () =
  let m =
    run_src
      {|
    movi r1, -7
    movi r2, 2
    div r3, r1, r2
    rem r4, r1, r2
    halt
|}
  in
  checki "trunc div" (-3) (Machine.reg m (r 3));
  checki "rem sign" (-1) (Machine.reg m (r 4))

(* ------------------------------------------------------------------ *)
(* Memory                                                               *)
(* ------------------------------------------------------------------ *)

let test_load_store () =
  let m =
    run_src
      {|
.data 100 55
    ld r1, [r0+100]
    movi r2, 200
    st r1, [r2+1]
    ld r3, [r2+1]
    halt
|}
  in
  checki "ld" 55 (Machine.reg m (r 1));
  checki "st/ld" 55 (Machine.reg m (r 3));
  checki "mem direct" 55 (Machine.mem m 201)

let test_memory_fault () =
  match run_expect_trap "movi r1, -5\nld r2, [r1]\nhalt" with
  | Machine.Memory_fault { addr = -5; _ } -> ()
  | other -> Alcotest.failf "wrong trap: %a" Machine.pp_trap other

let test_store_fault () =
  let src =
    Printf.sprintf "movi r1, %d\nst r0, [r1]\nhalt" (1 lsl 21)
  in
  match run_expect_trap src with
  | Machine.Memory_fault _ -> ()
  | other -> Alcotest.failf "wrong trap: %a" Machine.pp_trap other

(* ------------------------------------------------------------------ *)
(* Control flow                                                         *)
(* ------------------------------------------------------------------ *)

let test_loop_counts () =
  let m =
    run_src
      {|
    movi r1, 0
    movi r2, 1000
loop:
    addi r1, r1, 1
    blt r1, r2, loop
    halt
|}
  in
  checki "loop result" 1000 (Machine.reg m (r 1));
  checki "steps" (2 + (2 * 1000) + 1) (Machine.steps m)

let test_call_ret () =
  let m =
    run_src
      {|
.entry main
main:
    movi r1, 5
    call double
    call double
    halt
double:
    add r1, r1, r1
    ret
|}
  in
  checki "nested calls" 20 (Machine.reg m (r 1))

let test_recursion () =
  (* Recursive sum 1..10 via the call stack. *)
  let m =
    run_src
      {|
.entry main
main:
    movi r1, 10
    movi r2, 0
    call sum
    halt
sum:
    ble r1, r0, base
    add r2, r2, r1
    subi r1, r1, 1
    call sum
base:
    ret
|}
  in
  checki "sum 1..10" 55 (Machine.reg m (r 2))

let test_ret_without_call () =
  match run_expect_trap "ret\nhalt" with
  | Machine.Return_without_call 0 -> ()
  | other -> Alcotest.failf "wrong trap: %a" Machine.pp_trap other

let test_stack_overflow () =
  match run_expect_trap ".entry f\nf:\ncall f\nhalt" with
  | Machine.Call_stack_overflow _ -> ()
  | other -> Alcotest.failf "wrong trap: %a" Machine.pp_trap other

let test_div_by_zero () =
  match run_expect_trap "movi r1, 4\nmovi r2, 0\ndiv r3, r1, r2\nhalt" with
  | Machine.Division_by_zero 2 -> ()
  | other -> Alcotest.failf "wrong trap: %a" Machine.pp_trap other

let test_trap_sticky () =
  let p = Assembler.assemble_exn "ret\nhalt" in
  let m = Machine.create ~seed:1L p in
  (match Machine.step m with
  | Error (Machine.Return_without_call _) -> ()
  | _ -> Alcotest.fail "expected trap");
  match Machine.step m with
  | Error (Machine.Return_without_call _) -> ()
  | _ -> Alcotest.fail "trap should persist"

(* ------------------------------------------------------------------ *)
(* Events, outputs, rnd, limits                                         *)
(* ------------------------------------------------------------------ *)

let test_events () =
  let p =
    Assembler.assemble_exn
      {|
    movi r1, 1
    beq r1, r0, skip
    jmp next
skip:
    nop
next:
    call fn
    halt
fn:
    ret
|}
  in
  let m = Machine.create ~seed:1L p in
  let step () = match Machine.step m with Ok e -> e | Error _ -> Alcotest.fail "trap" in
  checkb "stepped" true (step () = Machine.Stepped);
  checkb "branch not taken" true (step () = Machine.Branched { taken = false });
  checkb "jumped" true (step () = Machine.Jumped);
  checkb "called" true (step () = Machine.Called);
  checkb "returned" true (step () = Machine.Returned);
  checkb "halted" true (step () = Machine.Halted);
  checkb "halted flag" true (Machine.halted m)

let test_outputs_order () =
  let m = run_src "movi r1, 1\nout r1\nmovi r1, 2\nout r1\nmovi r1, 3\nout r1\nhalt" in
  checkb "outputs oldest first" true (Machine.outputs m = [ 1; 2; 3 ])

let test_rnd_determinism () =
  let src = "rnd r1, 1000\nrnd r2, 1000\nout r1\nout r2\nhalt" in
  let a = run_src ~seed:42L src and b = run_src ~seed:42L src in
  checkb "same seed same stream" true (Machine.outputs a = Machine.outputs b);
  let c = run_src ~seed:43L src in
  checkb "diff seed diff stream" true (Machine.outputs a <> Machine.outputs c)

let test_rnd_probability () =
  (* A 30% branch should be taken roughly 30% of the time. *)
  let m =
    run_src ~seed:7L
      {|
    movi r1, 0
    movi r2, 100000
    movi r5, 0
loop:
    rnd r3, 1000
    movi r4, 300
    bge r3, r4, skip
    addi r5, r5, 1
skip:
    addi r1, r1, 1
    blt r1, r2, loop
    halt
|}
  in
  let taken = Machine.reg m (r 5) in
  checkb (Printf.sprintf "30%% branch (got %d/100000)" taken) true
    (taken > 28_500 && taken < 31_500)

let test_max_steps () =
  let p = Assembler.assemble_exn "loop:\njmp loop" in
  let m = Machine.create ~seed:1L p in
  (match Machine.run ~max_steps:500 m with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "no trap expected");
  checkb "not halted" false (Machine.halted m);
  checki "stopped at budget" 500 (Machine.steps m)

let test_fall_off_end () =
  (* A program whose last instruction is not a terminator halts cleanly. *)
  let p = Tpdbt_isa.Program.make [| Instr.Movi (r 1, 3); Instr.Nop |] in
  let m = Machine.create ~seed:1L p in
  (match Machine.run m with Ok () -> () | Error _ -> Alcotest.fail "trap");
  checkb "halted" true (Machine.halted m);
  checki "r1" 3 (Machine.reg m (r 1))

let test_data_init_out_of_range () =
  let p = Tpdbt_isa.Program.make ~data_init:[ (1 lsl 30, 1) ] [| Instr.Halt |] in
  match Machine.create ~mem_words:1024 ~seed:1L p with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

(* Data memory is architecturally [mem_words] zeroed words, materialised
   on first store: the highest word reads 0 before any store and
   round-trips one, and the word past it traps. *)
let test_memory_top_word () =
  let mem_words = 1 lsl 20 in
  let top = mem_words - 1 in
  let m =
    run_src ~mem_words
      (Printf.sprintf
         "movi r1, %d\nld r2, [r1]\nmovi r3, -7\nst r3, [r1]\nld r4, [r1]\nhalt"
         top)
  in
  checki "never-written top word reads 0" 0 (Machine.reg m (r 2));
  checki "store then load at the top round-trips" (-7) (Machine.reg m (r 4));
  checki "mem reads the stored top word" (-7) (Machine.mem m top);
  let fresh =
    Machine.create ~mem_words ~seed:1L (Program.make [| Instr.Halt |])
  in
  checki "mem of a fresh top word" 0 (Machine.mem fresh top);
  checkb "mem past the top is out of range" true
    (try
       ignore (Machine.mem fresh mem_words);
       false
     with Invalid_argument _ -> true);
  List.iter
    (fun access ->
      let src = Printf.sprintf "movi r1, %d\n%s\nhalt" mem_words access in
      match run_expect_trap src with
      | Machine.Memory_fault { addr; _ } when addr = mem_words -> ()
      | other ->
          Alcotest.failf "%s: wrong trap %a" access Machine.pp_trap other)
    [ "ld r2, [r1]"; "st r0, [r1]" ]

(* A run suspended after a store far above the initial prefix, captured
   and restored, ends exactly where an uninterrupted run does — at every
   split point, including one inside the loop that keeps storing high. *)
let test_resume_after_high_store () =
  let p =
    Assembler.assemble_exn
      {|
    movi r1, 900000
    movi r2, 41
    st r2, [r1]
    movi r4, 5
loop:
    ld r3, [r1]
    addi r3, r3, 1
    st r3, [r1]
    st r3, [r1+70000]
    subi r4, r4, 1
    bne r4, r0, loop
    ld r5, [r1+70000]
    out r5
    halt
|}
  in
  let run_to_end m =
    match Machine.run m with
    | Ok () -> m
    | Error trap -> Alcotest.failf "trap: %a" Machine.pp_trap trap
  in
  let reference = run_to_end (Machine.create ~seed:1L p) in
  checkb "reference output" true (Machine.outputs reference = [ 46 ]);
  List.iter
    (fun split ->
      let m = Machine.create ~seed:1L p in
      (match Machine.run ~max_steps:split m with
      | Ok () -> ()
      | Error trap -> Alcotest.failf "trap: %a" Machine.pp_trap trap);
      let resumed = run_to_end (Machine.restore p (Machine.capture m)) in
      checkb
        (Printf.sprintf "split at %d ends identical" split)
        true
        (Machine.capture resumed = Machine.capture reference))
    [ 3; 8; 15 ]

(* Creating an engine at the default 2^20-word memory must not allocate
   the memory up front.  Emptying the minor heap before each reading
   makes [Gc.quick_stat]'s counts exact. *)
let test_engine_create_allocation () =
  let bench = Option.get (Tpdbt_workloads.Suite.find "gzip") in
  let program, input, _ = Tpdbt_workloads.Spec.build bench in
  let program = Tpdbt_workloads.Spec.apply_input program input in
  let words () =
    Gc.minor ();
    let st = Gc.quick_stat () in
    st.Gc.minor_words +. st.Gc.major_words -. st.Gc.promoted_words
  in
  let before = words () in
  let engine =
    Tpdbt_dbt.Engine.create ~seed:input.Tpdbt_workloads.Spec.seed program
  in
  let allocated = words () -. before in
  ignore (Sys.opaque_identity engine);
  if allocated >= 65536.0 then
    Alcotest.failf "Engine.create allocated %.0f words (budget 65536)" allocated

let test_shift_masking () =
  (* Shift amounts are masked to 5 bits (land 31), as on real 32-bit
     hardware. *)
  let m =
    run_src
      {|
    movi r1, 1
    movi r2, 33
    shl r3, r1, r2
    movi r4, -8
    movi r5, 34
    shr r6, r4, r5
    halt
|}
  in
  checki "shl by 33 = shl by 1" 2 (Machine.reg m (r 3));
  checki "shr by 34 = asr by 2" (-2) (Machine.reg m (r 6))

let test_arithmetic_shift_right () =
  let m = run_src "movi r1, -1\nshri r2, r1, 31\nmovi r3, 8\nshri r4, r3, 2\nhalt" in
  checki "asr keeps sign" (-1) (Machine.reg m (r 2));
  checki "asr positive" 2 (Machine.reg m (r 4))

let test_machines_independent () =
  let p = Assembler.assemble_exn "main:\n  rnd r1, 1000\n  out r1\n  halt" in
  let a = Machine.create ~seed:5L p and b = Machine.create ~seed:5L p in
  (match (Machine.run a, Machine.run b) with
  | Ok (), Ok () -> ()
  | _ -> Alcotest.fail "trap");
  checkb "machines don't share PRNG state" true
    (Machine.outputs a = Machine.outputs b)

(* Machine semantics equal a reference one-liner evaluation: property
   test over random straight-line arithmetic programs. *)
let prop_machine_matches_reference =
  let open QCheck in
  let binops =
    [ Instr.Add; Instr.Sub; Instr.Mul; Instr.And; Instr.Or; Instr.Xor ]
  in
  let gen =
    Gen.(list_size (int_range 1 30) (triple (oneofl binops) (int_bound 7) (int_bound 7)))
  in
  Test.make ~name:"machine matches reference interpreter" ~count:200
    (make gen) (fun ops ->
      let wrap32 v = ((v land 0xFFFFFFFF) lxor 0x80000000) - 0x80000000 in
      let code =
        List.map (fun (op, a, b) -> Instr.Binop (op, r ((a mod 4) + 1), r ((a mod 4) + 1), r ((b mod 4) + 1))) ops
        @ [ Instr.Halt ]
      in
      (* Seed registers deterministically. *)
      let prelude =
        [ Instr.Movi (r 1, 3); Instr.Movi (r 2, -5); Instr.Movi (r 3, 1 lsl 20); Instr.Movi (r 4, 7) ]
      in
      let p = Program.make (Array.of_list (prelude @ code)) in
      let m = Machine.create ~seed:1L p in
      (match Machine.run m with Ok () -> () | Error _ -> ());
      (* Reference evaluation. *)
      let regs = Array.make 16 0 in
      regs.(1) <- 3;
      regs.(2) <- -5;
      regs.(3) <- 1 lsl 20;
      regs.(4) <- 7;
      List.iter
        (fun (op, a, b) ->
          let d = (a mod 4) + 1 and s = (b mod 4) + 1 in
          let v =
            match op with
            | Instr.Add -> regs.(d) + regs.(s)
            | Instr.Sub -> regs.(d) - regs.(s)
            | Instr.Mul -> regs.(d) * regs.(s)
            | Instr.And -> regs.(d) land regs.(s)
            | Instr.Or -> regs.(d) lor regs.(s)
            | Instr.Xor -> regs.(d) lxor regs.(s)
            | Instr.Div | Instr.Rem | Instr.Shl | Instr.Shr -> assert false
          in
          regs.(d) <- wrap32 v)
        ops;
      List.for_all (fun i -> regs.(i) = Machine.reg m (r i)) [ 1; 2; 3; 4 ])

let suite =
  [
    ("prng deterministic", `Quick, test_prng_deterministic);
    ("prng below range", `Quick, test_prng_below_range);
    ("prng below uniform-ish", `Quick, test_prng_below_uniformish);
    ("prng float range", `Quick, test_prng_float_range);
    ("prng copy", `Quick, test_prng_copy);
    ("arith", `Quick, test_arith);
    ("immediate forms", `Quick, test_immediate_forms);
    ("wrap32", `Quick, test_wrap32);
    ("negative div/rem", `Quick, test_negative_div_rem);
    ("load/store", `Quick, test_load_store);
    ("memory fault", `Quick, test_memory_fault);
    ("store fault", `Quick, test_store_fault);
    ("loop counts", `Quick, test_loop_counts);
    ("call/ret", `Quick, test_call_ret);
    ("recursion", `Quick, test_recursion);
    ("ret without call", `Quick, test_ret_without_call);
    ("stack overflow", `Quick, test_stack_overflow);
    ("div by zero", `Quick, test_div_by_zero);
    ("trap sticky", `Quick, test_trap_sticky);
    ("events", `Quick, test_events);
    ("outputs order", `Quick, test_outputs_order);
    ("rnd determinism", `Quick, test_rnd_determinism);
    ("rnd probability", `Quick, test_rnd_probability);
    ("max steps", `Quick, test_max_steps);
    ("fall off end", `Quick, test_fall_off_end);
    ("data init out of range", `Quick, test_data_init_out_of_range);
    ("memory top word", `Quick, test_memory_top_word);
    ("resume after high store", `Quick, test_resume_after_high_store);
    ("engine create allocation", `Quick, test_engine_create_allocation);
    ("shift masking", `Quick, test_shift_masking);
    ("arithmetic shift right", `Quick, test_arithmetic_shift_right);
    ("machines independent", `Quick, test_machines_independent);
    QCheck_alcotest.to_alcotest prop_machine_matches_reference;
  ]
