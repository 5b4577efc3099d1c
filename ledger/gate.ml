(* The correctness gate.  An operation counts as failed unless:

   - every benchmark's checkpoint text digests to the committed golden
     value for it, so sweep, sweep-par, durable, resume and served sweep
     results are byte-identical to each other and to earlier commits
     (the digests are recorded only after the check below passes for
     every member);
   - for the benchmarks of a run's first measured operation, the
     stage-by-stage pipeline reproduces that digest and every stage ends
     in the guest state the plain interpreter reaches after the same
     number of instructions (registers, pc, outputs);
   - a served [run] or [translate] reply matches the same request
     executed locally, whose end state again matches the interpreter;
   - the figure tables of the warm-up pair digest to the committed
     value. *)

module Engine = Tpdbt_dbt.Engine
module Error = Tpdbt_dbt.Error
module Perf_model = Tpdbt_dbt.Perf_model
module Machine = Tpdbt_vm.Machine
module Spec = Tpdbt_workloads.Spec
module Runner = Tpdbt_experiments.Runner
module Checkpoint = Tpdbt_experiments.Checkpoint
module Table = Tpdbt_experiments.Table
module Json = Tpdbt_telemetry.Json

type t = {
  golden : (string, string) Hashtbl.t;  (** ["data gzip"] -> digest *)
  replies : (string, string * bool) Hashtbl.t;
      (** request payload -> first reply and its verdict *)
  mutable errors : string list;  (** newest first *)
}

let parse_golden text =
  let table = Hashtbl.create 64 in
  List.iter
    (fun line ->
      match String.split_on_char ' ' (String.trim line) with
      | [ kind; key; digest ] when kind <> "#" ->
          Hashtbl.replace table (kind ^ " " ^ key) digest
      | _ -> ())
    (String.split_on_char '\n' text);
  table

let create () =
  {
    golden = parse_golden Golden_text.text;
    replies = Hashtbl.create 256;
    errors = [];
  }

let fail t fmt =
  Printf.ksprintf
    (fun msg ->
      t.errors <- msg :: t.errors;
      false)
    fmt

let digest s = Digest.to_hex (Digest.string s)

let figures_digest figures =
  digest
    (String.concat ""
       (List.map (fun (id, table) -> id ^ "\n" ^ Table.to_csv table) figures))

(* Interpreter replay of one input: advance a fresh machine to each
   stage's instruction count, in ascending order, comparing states. *)
let replay (ends : Pipeline.stage_end list) =
  match
    List.sort
      (fun (a : Pipeline.stage_end) b ->
        compare a.state.Pipeline.fp_steps b.state.Pipeline.fp_steps)
      ends
  with
  | [] -> true
  | first :: _ as sorted ->
      let m = Machine.create ~seed:first.input.Spec.seed first.program in
      List.for_all
        (fun (e : Pipeline.stage_end) ->
          let ahead = e.state.Pipeline.fp_steps - Machine.steps m in
          ignore (Machine.run ~max_steps:ahead m);
          Pipeline.fingerprint m = e.state)
        sorted

let interpreter_agrees ends =
  let train, reference =
    List.partition (fun (e : Pipeline.stage_end) -> e.stage = Runner.Train) ends
  in
  replay train && replay reference

(* Run the benchmark stage by stage outside any trace and check it
   against the interpreter and its golden digest. *)
let verify_bench t bench =
  let name = bench.Spec.name in
  match Pipeline.benchmark bench with
  | exception Pipeline.Stage_failed msg -> fail t "%s" msg
  | data, ends ->
      let d = digest (Checkpoint.data_to_string data) in
      if not (interpreter_agrees ends) then
        fail t "%s: a stage's end state differs from the interpreter's" name
      else if Hashtbl.find_opt t.golden ("data " ^ name) <> Some d then
        fail t "%s: stage-by-stage digest %s is not the golden one" name d
      else true

(* A benchmark's checkpoint text, as returned, saved to disk or served. *)
let text t bench s =
  let name = bench.Spec.name in
  match Hashtbl.find_opt t.golden ("data " ^ name) with
  | None -> fail t "%s: no golden digest" name
  | Some g ->
      let d = digest s in
      d = g || fail t "%s: digest %s, golden %s" name d g

(* The stage-by-stage check of [benches], run after the measured
   operations so that it stays out of the measured memory. *)
let finish t benches = List.iter (fun b -> ignore (verify_bench t b)) benches

let data t (d : Runner.data) =
  text t d.Runner.bench (Checkpoint.data_to_string d)

(* Data of a whole operation: every benchmark present and correct. *)
let sweep t ~benches (s : Runner.sweep) =
  let names = List.map (fun (b : Spec.t) -> b.Spec.name) in
  List.iter
    (fun { Runner.failed; error } ->
      ignore (fail t "%s failed: %s" failed.Spec.name (Error.to_string error)))
    s.Runner.failures;
  s.Runner.failures = []
  && names (List.map (fun (d : Runner.data) -> d.Runner.bench) s.Runner.data)
     = names benches
  && List.for_all (data t) s.Runner.data

(* The figure tables of the warm-up pair. *)
let figures t figures =
  match Hashtbl.find_opt t.golden "figures warm-up" with
  | None -> fail t "no golden figures digest"
  | Some g ->
      let d = figures_digest figures in
      d = g || fail t "warm-up figure tables digest %s, golden %s" d g

(* ---- served replies --------------------------------------------------- *)

let num v = Option.bind v Json.as_number

let int_list v =
  Option.map
    (List.filter_map (fun x -> Option.map int_of_float (Json.as_number x)))
    (Option.bind v Json.as_list)

(* Execute a run or translate request locally; [None] if the engine's
   end state disagrees with the interpreter. *)
let local ~config ~seed program =
  let e = Engine.create ~config ~seed program in
  let r = Engine.run e in
  let m = Machine.create ~seed program in
  ignore (Machine.run ~max_steps:r.Engine.steps m);
  if Pipeline.fingerprint m = Pipeline.fingerprint (Engine.machine e) then
    Some r
  else None

let expect_fields doc (r : Engine.result) =
  let c = r.Engine.counters in
  let error =
    match r.Engine.error with
    | None -> Json.Null
    | Some e -> Json.Str (Error.to_string e)
  in
  num (Json.member "steps" doc) = Some (float_of_int r.Engine.steps)
  && num (Json.member "cycles" doc) = Some c.Perf_model.cycles
  && num (Json.member "regions" doc)
     = Some (float_of_int c.Perf_model.regions_formed)
  && int_list (Json.member "outputs" doc) = Some r.Engine.outputs
  && Json.member "error" doc = Some error
  && match r.Engine.error with Some e -> not (Error.fatal e) | None -> true

let check_reply t (req : Inputs.request) doc =
  match req with
  | Inputs.Ping | Inputs.Status -> true
  | Inputs.Run { bench; threshold; steps; _ } -> (
      let name = bench.Spec.name in
      let program, input, _ = Spec.build bench in
      let config =
        { (Engine.config ~threshold ()) with Engine.max_steps = steps }
      in
      match
        local ~config ~seed:input.Spec.seed (Spec.apply_input program input)
      with
      | None ->
          fail t "run %s: local engine disagrees with the interpreter" name
      | Some r ->
          expect_fields doc r
          || fail t "run %s t=%d: reply differs from a local run" name
               threshold)
  | Inputs.Translate_req { bench; threshold; seed } -> (
      let name = bench.Spec.name in
      match Tpdbt_isa.Assembler.assemble (Spec.source bench) with
      | Error msg -> fail t "translate %s: %s" name msg
      | Ok program -> (
          let config = Engine.config ~threshold () in
          match local ~config ~seed:(Int64.of_int seed) program with
          | None ->
              fail t "translate %s: local engine disagrees with the interpreter"
                name
          | Some r ->
              let profile =
                Tpdbt_profiles.Profile_io.to_string r.Engine.snapshot
              in
              let blocks = r.Engine.counters.Perf_model.blocks_translated in
              (expect_fields doc r
              && num (Json.member "blocks" doc) = Some (float_of_int blocks)
              && Option.bind (Json.member "profile" doc) Json.as_string
                 = Some profile)
              || fail t "translate %s: reply differs from a local run" name))
  | Inputs.Sweep_req benches -> (
      match Option.bind (Json.member "benches" doc) Json.as_list with
      | Some rows when List.length rows = List.length benches ->
          List.for_all2
            (fun bench row ->
              match
                ( Option.bind (Json.member "status" row) Json.as_string,
                  Option.bind (Json.member "result" row) Json.as_string )
              with
              | Some "ok", Some s -> text t bench s
              | _ -> fail t "sweep: %s did not come back ok" bench.Spec.name)
            benches rows
      | _ -> fail t "sweep reply lists the wrong benchmarks")

(* A [run] or [translate] reply is verified once per distinct request;
   a repeated one is a warm-cache hit and must come back byte-identical.
   Every other reply is checked as it comes. *)
let reply t req text =
  let key = Inputs.payload req in
  match Json.parse text with
  | Error msg -> fail t "unparsable reply: %s" msg
  | Ok doc when Json.member "ok" doc <> Some (Json.Bool true) ->
      fail t "request %s refused: %s" key text
  | Ok doc -> (
      match req with
      | Inputs.Ping | Inputs.Status | Inputs.Sweep_req _ ->
          check_reply t req doc
      | Inputs.Run _ | Inputs.Translate_req _ -> (
          match Hashtbl.find_opt t.replies key with
          | Some (first, verdict) ->
              verdict
              && (first = text || fail t "repeated %s changed its reply" key)
          | None ->
              let verdict = check_reply t req doc in
              Hashtbl.replace t.replies key (text, verdict);
              verdict))

(* Parse a served sweep back into data, for the figures check. *)
let served_data benches text =
  match Json.parse text with
  | Error _ -> None
  | Ok doc -> (
      match Option.bind (Json.member "benches" doc) Json.as_list with
      | Some rows when List.length rows = List.length benches ->
          let parsed =
            List.map2
              (fun bench row ->
                match Option.bind (Json.member "result" row) Json.as_string with
                | Some s -> (
                    match Checkpoint.data_of_string bench s with
                    | Checkpoint.Valid (Checkpoint.Finished d) -> Some d
                    | _ -> None)
                | None -> None)
              benches rows
          in
          if List.mem None parsed then None
          else Some (List.filter_map Fun.id parsed)
      | _ -> None)
