(* Differential fuzzing subsystem: generator guarantees, fingerprints,
   the cross-config oracle against the real engine, bug injection +
   shrinking, campaign determinism, corpus persistence, the typed
   rnd-bound trap, program vetting, the JSON round-trip properties
   driven by the fuzz PRNG, and the fuzz CLI. *)

module Prng = Tpdbt_vm.Prng
module Machine = Tpdbt_vm.Machine
module Instr = Tpdbt_isa.Instr
module Reg = Tpdbt_isa.Reg
module Program = Tpdbt_isa.Program
module Encode = Tpdbt_isa.Encode
module Block_map = Tpdbt_dbt.Block_map
module Error = Tpdbt_dbt.Error
module Engine = Tpdbt_dbt.Engine
module Json = Tpdbt_telemetry.Json
module Gen = Tpdbt_fuzz.Gen
module Fingerprint = Tpdbt_fuzz.Fingerprint
module Oracle = Tpdbt_fuzz.Oracle
module Shrink = Tpdbt_fuzz.Shrink
module Driver = Tpdbt_fuzz.Driver

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)
let r0 = Reg.of_int 0

let contains haystack needle =
  let n = String.length needle and m = String.length haystack in
  let rec at i = i + n <= m && (String.sub haystack i n = needle || at (i + 1)) in
  at 0

let read_file = Tpdbt_durable.Durable.read_file

let with_temp_dir f =
  let dir = Filename.temp_file "tpdbt-fuzz" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> rm dir) (fun () -> f dir)

(* ------------------------------------------------------------------ *)
(* Generator                                                            *)
(* ------------------------------------------------------------------ *)

let test_generator_deterministic_and_well_formed () =
  for seed = 1 to 30 do
    let gen () =
      Gen.program (Prng.create ~seed:(Int64.of_int seed)) Gen.default
    in
    let p = gen () in
    checkb "same prng state, same program" true (p = gen ());
    (match Block_map.build_result p with
    | Ok _ -> ()
    | Error e ->
        Alcotest.failf "seed %d: generated program rejected: %s" seed
          (Error.to_string e));
    (match p.Program.code.(Array.length p.Program.code - 1) with
    | Instr.Halt | Instr.Ret -> ()
    | _ -> Alcotest.failf "seed %d: last instruction not halt/ret" seed);
    (* Termination by construction: nothing close to the oracle budget. *)
    let m = Machine.create ~mem_words:Oracle.mem_words p in
    (match Machine.run ~max_steps:Oracle.max_steps m with
    | Error _trap -> () (* wild instructions may trap; that is in scope *)
    | Ok () ->
        checkb
          (Printf.sprintf "seed %d halts within budget" seed)
          true (Machine.halted m))
  done

let test_adversarial_string_deterministic () =
  let draw () =
    let prng = Prng.create ~seed:99L in
    List.init 20 (fun _ -> Gen.adversarial_string prng ~max_len:32)
  in
  checkb "same seed, same strings" true (draw () = draw ())

(* ------------------------------------------------------------------ *)
(* Fingerprints                                                         *)
(* ------------------------------------------------------------------ *)

let test_fingerprint_equal_and_diff () =
  let p = Gen.program (Prng.create ~seed:5L) Gen.default in
  let fp () =
    let m = Machine.create ~mem_words:Oracle.mem_words ~seed:3L p in
    let result = Machine.run ~max_steps:Oracle.max_steps m in
    let status = Fingerprint.status_of_run result ~halted:(Machine.halted m) in
    (Fingerprint.of_machine ~status ~mem_words:Oracle.mem_words m, m)
  in
  let a, _ = fp () in
  let b, m = fp () in
  checkb "identical runs fingerprint equal" true (Fingerprint.equal a b);
  checki "no differences" 0 (List.length (Fingerprint.diff a b));
  Machine.set_reg m r0 (Machine.reg m r0 + 1);
  let c =
    Fingerprint.of_machine ~status:a.Fingerprint.status
      ~mem_words:Oracle.mem_words m
  in
  checkb "register change detected" true (not (Fingerprint.equal a c));
  checkb "diff names the register" true
    (List.exists (fun d -> contains d "r0") (Fingerprint.diff a c));
  (match Json.validate (Fingerprint.to_json a) with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("fingerprint json: " ^ msg))

(* ------------------------------------------------------------------ *)
(* Oracle on the real engine                                            *)
(* ------------------------------------------------------------------ *)

let test_oracle_clean_on_current_engine () =
  for case = 0 to 39 do
    let prng = Prng.create ~seed:(Int64.of_int (1000 + case)) in
    let guest_seed = Prng.next_int64 prng in
    let p = Gen.program prng Gen.default in
    let v = Oracle.check ~seed:guest_seed p in
    (match v.Oracle.skipped with
    | Some why -> Alcotest.failf "case %d skipped: %s" case why
    | None -> ());
    (match v.Oracle.divergences with
    | [] -> ()
    | d :: _ ->
        Alcotest.failf "case %d diverged: [%s] %s: %s" case d.Oracle.arm
          d.Oracle.kind d.Oracle.detail);
    checkb "checks were performed" true (v.Oracle.checks > 0)
  done

let has_xor p =
  Array.exists
    (function Instr.Binop (Instr.Xor, _, _, _) -> true | _ -> false)
    p.Program.code

(* The acceptance-bar harness: inject a translator bug — "the engine
   mis-executes any program containing xor" — via the oracle's perturb
   hook, and demand that the campaign machinery detects it and shrinks
   the reproducer to a handful of instructions. *)
let test_injected_bug_detected_and_shrunk () =
  let guest_seed = 11L in
  let still_fails p =
    let bug ~arm:_ fp =
      if has_xor p then
        { fp with Fingerprint.steps = fp.Fingerprint.steps + 1 }
      else fp
    in
    let v = Oracle.check ~perturb:bug ~seed:guest_seed p in
    v.Oracle.skipped = None && v.Oracle.divergences <> []
  in
  (* Find a generated program that contains the "buggy" opcode. *)
  let rec find seed =
    if seed > 200 then Alcotest.fail "no xor-bearing program in 200 seeds"
    else
      let p = Gen.program (Prng.create ~seed:(Int64.of_int seed)) Gen.default in
      if has_xor p && still_fails p then p else find (seed + 1)
  in
  let p = find 1 in
  let clean = Oracle.check ~seed:guest_seed p in
  checkb "without the bug the case is clean" true
    (clean.Oracle.divergences = []);
  let shrunk = Shrink.minimize ~still_fails p in
  checkb "shrunk program still fails" true (still_fails shrunk);
  checkb "shrunk program keeps the buggy opcode" true (has_xor shrunk);
  let active = Shrink.active shrunk in
  if active > 10 then
    Alcotest.failf "reproducer not minimal: %d active instructions" active;
  checkb "shrinking reduced the program" true (active < Shrink.active p)

(* ------------------------------------------------------------------ *)
(* Campaign driver                                                      *)
(* ------------------------------------------------------------------ *)

let test_campaign_deterministic_across_jobs () =
  let cfg jobs =
    {
      Driver.budget = 12;
      size = 32;
      seed = 5L;
      jobs = Some jobs;
      corpus_dir = None;
    }
  in
  let s1 = Driver.summary_json (Driver.run (cfg 1)) in
  let s3 = Driver.summary_json (Driver.run (cfg 3)) in
  let s3' = Driver.summary_json (Driver.run (cfg 3)) in
  checks "jobs 1 vs 3" s1 s3;
  checks "repeat run" s3 s3';
  (match Json.validate s1 with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("summary json: " ^ msg));
  checkb "clean engine, clean campaign" true (contains s1 "\"divergent_cases\":0")

let test_campaign_persists_reproducers () =
  with_temp_dir (fun dir ->
      (* Unconditional bug on one arm: every case must diverge, shrink
         and land in the corpus. *)
      let bug ~arm fp =
        if String.equal arm "t2" then
          { fp with Fingerprint.steps = fp.Fingerprint.steps + 1 }
        else fp
      in
      let s =
        Driver.run ~perturb:bug
          {
            Driver.budget = 2;
            size = 24;
            seed = 9L;
            jobs = Some 1;
            corpus_dir = Some dir;
          }
      in
      checki "every case diverges" 2 (List.length s.Driver.failures);
      List.iter
        (fun (f : Driver.failure) ->
          checkb "divergence is on the buggy arm" true
            (List.exists
               (fun (d : Oracle.divergence) -> d.Oracle.arm = "t2")
               f.Driver.divergences);
          if f.Driver.shrunk_active > 10 then
            Alcotest.failf "case %d: reproducer not minimal: %d instrs"
              f.Driver.case f.Driver.shrunk_active;
          checki "three corpus files" 3 (List.length f.Driver.saved);
          List.iter
            (fun path ->
              checkb (path ^ " exists") true (Sys.file_exists path))
            f.Driver.saved;
          (* The .g32 must decode back to the shrunk program, the .json
             must be valid JSON. *)
          List.iter
            (fun path ->
              if Filename.check_suffix path ".g32" then
                match Encode.read_file path with
                | Ok p -> checkb "g32 roundtrip" true (p = f.Driver.shrunk)
                | Error msg -> Alcotest.fail msg
              else if Filename.check_suffix path ".json" then
                match Json.validate (read_file path) with
                | Ok () -> ()
                | Error msg -> Alcotest.fail (path ^ ": " ^ msg))
            f.Driver.saved)
        s.Driver.failures;
      let json = Driver.summary_json s in
      checkb "summary counts the divergences" true
        (contains json "\"divergent_cases\":2"))

(* ------------------------------------------------------------------ *)
(* Typed trap / vetting satellites                                      *)
(* ------------------------------------------------------------------ *)

let test_rnd_bound_trap () =
  let p = Program.make [| Instr.Rnd (r0, 0); Instr.Halt |] in
  let m = Machine.create p in
  (match Machine.run m with
  | Error (Machine.Invalid_rnd_bound { pc = 0; bound = 0 }) -> ()
  | Error trap ->
      Alcotest.failf "wrong trap: %s"
        (Format.asprintf "%a" Machine.pp_trap trap)
  | Ok () -> Alcotest.fail "non-positive rnd bound did not trap");
  (* The engine must surface the same typed trap, not an exception... *)
  let eng = Engine.create ~seed:1L p in
  let res = Engine.run eng in
  (match Engine.trap res with
  | Some (Machine.Invalid_rnd_bound { pc = 0; bound = 0 }) -> ()
  | _ -> Alcotest.fail "engine did not surface the rnd-bound trap");
  (* ... which is exactly what makes the oracle see it as equivalent. *)
  let v = Oracle.check ~seed:1L p in
  checkb "trap identity across all arms" true (v.Oracle.divergences = [])

let test_build_result_vetting () =
  (match Block_map.build_result (Program.make [| Instr.Halt |]) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Error.to_string e));
  (match Block_map.build_result (Program.make [| Instr.Jmp 0 |]) with
  | Ok _ -> () (* jmp at end is fine: no fall-through edge needed *)
  | Error e -> Alcotest.fail (Error.to_string e));
  (match
     Block_map.build_result (Program.make [| Instr.Br (Instr.Eq, r0, r0, 0) |])
   with
  | Error (Error.Invalid_program msg) ->
      checkb "message names the pc" true (contains msg "pc 0")
  | Error e -> Alcotest.fail ("wrong error: " ^ Error.to_string e)
  | Ok _ -> Alcotest.fail "trailing branch accepted");
  match
    Block_map.build_result (Program.make [| Instr.Nop; Instr.Call 0 |])
  with
  | Error (Error.Invalid_program _) -> ()
  | Error e -> Alcotest.fail ("wrong error: " ^ Error.to_string e)
  | Ok _ -> Alcotest.fail "trailing call accepted"

(* ------------------------------------------------------------------ *)
(* JSON round-trip properties                                           *)
(* ------------------------------------------------------------------ *)

let test_json_string_roundtrip_property () =
  let prng = Prng.create ~seed:4242L in
  for i = 1 to 1000 do
    let s = Gen.adversarial_string prng ~max_len:40 in
    let q = Json.quote s in
    (match Json.validate q with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "iter %d: quote not valid: %s (%S)" i msg s);
    match Json.parse q with
    | Ok (Json.Str s') ->
        if s' <> s then Alcotest.failf "iter %d: %S roundtripped to %S" i s s'
    | Ok _ -> Alcotest.failf "iter %d: parsed to a non-string" i
    | Error msg -> Alcotest.failf "iter %d: parse failed: %s (%S)" i msg s
  done

let test_json_document_roundtrip_property () =
  let prng = Prng.create ~seed:777L in
  for i = 1 to 200 do
    let k = Gen.adversarial_string prng ~max_len:16 in
    let v = Gen.adversarial_string prng ~max_len:24 in
    let doc =
      Json.obj
        [
          (k, Json.quote v);
          ("list", Json.arr [ Json.quote k; "1"; "null"; "true" ]);
        ]
    in
    (match Json.validate doc with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "iter %d: emitted doc invalid: %s" i msg);
    match Json.parse doc with
    | Ok d -> (
        match Json.member k d with
        | Some (Json.Str v') when v' = v -> ()
        | _ ->
            (* Duplicate keys are legal in our emitter and lookup
               returns the first — only demand the member when the two
               adversarial keys differ. *)
            if k <> "list" then
              Alcotest.failf "iter %d: member %S lost" i k)
    | Error msg -> Alcotest.failf "iter %d: parse failed: %s" i msg
  done

let test_json_deep_nesting () =
  let deep = ref "0" in
  for _ = 1 to 100 do
    deep := Json.arr [ !deep ]
  done;
  (match Json.validate !deep with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("deep array: " ^ msg));
  match Json.parse !deep with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail ("deep parse: " ^ msg)

(* ------------------------------------------------------------------ *)
(* CLI                                                                  *)
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

let normalized_help sub =
  let out = Filename.temp_file "tpdbt-help" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
      (match
         Unix.system
           (Filename.quote_command tpdbt
              [ sub; "--help=plain" ]
              ~stdout:out ~stderr:Filename.null)
       with
      | Unix.WEXITED 0 -> ()
      | _ -> Alcotest.failf "%s --help failed" sub);
      String.concat " "
        (List.filter
           (fun w -> w <> "")
           (String.split_on_char ' '
              (String.map
                 (function '\n' | '\t' -> ' ' | c -> c)
                 (read_file out)))))

let test_cli_seed_flag_uniform () =
  if not (Sys.file_exists tpdbt) then Alcotest.skip ()
  else
    (* One seed flag, one meaning, one help string — fuzz, chaos and
       faults must all describe --seed identically. *)
    List.iter
      (fun sub ->
        let help = normalized_help sub in
        checkb (sub ^ " documents --seed") true (contains help "--seed=SEED");
        checkb
          (sub ^ " uses the shared seed doc")
          true
          (contains help "PRNG seed for the guest rnd stream."))
      [ "fuzz"; "chaos"; "faults" ]

let test_cli_fuzz_exit_codes_and_determinism () =
  if not (Sys.file_exists tpdbt) then Alcotest.skip ()
  else begin
    checki "zero budget is usage (1)" 1 (exit_of [ "fuzz"; "--budget"; "0" ]);
    with_temp_dir (fun dir ->
        let corpus = Filename.concat dir "corpus" in
        let s1 = Filename.concat dir "s1.json" in
        let s2 = Filename.concat dir "s2.json" in
        let run summary jobs =
          exit_of
            [
              "fuzz"; "--budget"; "5"; "--size"; "24"; "--seed"; "42";
              "--jobs"; jobs; "--corpus"; corpus; "--summary"; summary;
            ]
        in
        checki "clean campaign exits 0" 0 (run s1 "1");
        checki "clean campaign exits 0 (parallel)" 0 (run s2 "3");
        checks "summary byte-identical across jobs" (read_file s1)
          (read_file s2);
        match Json.validate (read_file s1) with
        | Ok () -> ()
        | Error msg -> Alcotest.fail ("cli summary: " ^ msg))
  end

let suite =
  [
    Alcotest.test_case "generator deterministic and well-formed" `Quick
      test_generator_deterministic_and_well_formed;
    Alcotest.test_case "adversarial strings deterministic" `Quick
      test_adversarial_string_deterministic;
    Alcotest.test_case "fingerprint equal and diff" `Quick
      test_fingerprint_equal_and_diff;
    Alcotest.test_case "oracle clean on current engine" `Quick
      test_oracle_clean_on_current_engine;
    Alcotest.test_case "injected bug detected and shrunk" `Quick
      test_injected_bug_detected_and_shrunk;
    Alcotest.test_case "campaign deterministic across jobs" `Quick
      test_campaign_deterministic_across_jobs;
    Alcotest.test_case "campaign persists reproducers" `Quick
      test_campaign_persists_reproducers;
    Alcotest.test_case "rnd bound trap is typed" `Quick test_rnd_bound_trap;
    Alcotest.test_case "build_result vets untrusted programs" `Quick
      test_build_result_vetting;
    Alcotest.test_case "json string roundtrip property" `Quick
      test_json_string_roundtrip_property;
    Alcotest.test_case "json document roundtrip property" `Quick
      test_json_document_roundtrip_property;
    Alcotest.test_case "json deep nesting" `Quick test_json_deep_nesting;
    Alcotest.test_case "cli seed flag uniform" `Quick test_cli_seed_flag_uniform;
    Alcotest.test_case "cli fuzz exit codes and determinism" `Quick
      test_cli_fuzz_exit_codes_and_determinism;
  ]
