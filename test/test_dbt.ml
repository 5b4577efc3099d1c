(* Tests for the DBT layer: block discovery, regions, the optimiser and
   the two-phase engine. *)

module Assembler = Tpdbt_isa.Assembler
module Instr = Tpdbt_isa.Instr
module Reg = Tpdbt_isa.Reg
module Machine = Tpdbt_vm.Machine
module Block_map = Tpdbt_dbt.Block_map
module Region = Tpdbt_dbt.Region
module Region_former = Tpdbt_dbt.Region_former
module Ir = Tpdbt_dbt.Ir
module Optimizer = Tpdbt_dbt.Optimizer
module Engine = Tpdbt_dbt.Engine
module Error = Tpdbt_dbt.Error
module Snapshot = Tpdbt_dbt.Snapshot
module Perf_model = Tpdbt_dbt.Perf_model

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let r = Reg.of_int

(* ------------------------------------------------------------------ *)
(* Block map                                                            *)
(* ------------------------------------------------------------------ *)

let simple_loop_src =
  {|
.entry main
main:
    movi r1, 0
    movi r2, 10
loop:
    addi r1, r1, 1
    blt r1, r2, loop
    out r1
    halt
|}

let test_block_map_simple_loop () =
  let p = Assembler.assemble_exn simple_loop_src in
  let bmap = Block_map.build p in
  checki "three blocks" 3 (Block_map.block_count bmap);
  let b0 = Block_map.block bmap 0 in
  checki "b0 start" 0 b0.Block_map.start_pc;
  checki "b0 size" 2 b0.Block_map.size;
  (match b0.Block_map.terminator with
  | Block_map.Fallthrough 1 -> ()
  | _ -> Alcotest.fail "b0 should fall through to the loop");
  let b1 = Block_map.block bmap 1 in
  (match b1.Block_map.terminator with
  | Block_map.Cond { taken = 1; fallthrough = 2 } -> ()
  | _ -> Alcotest.fail "b1 should be the loop branch");
  let b2 = Block_map.block bmap 2 in
  (match b2.Block_map.terminator with
  | Block_map.Stop -> ()
  | _ -> Alcotest.fail "b2 should halt");
  checki "entry block" 0 (Block_map.entry_block bmap)

let test_block_map_lookup () =
  let p = Assembler.assemble_exn simple_loop_src in
  let bmap = Block_map.build p in
  checkb "block_at leader" true (Block_map.block_at bmap 2 = Some 1);
  checkb "block_at mid-block" true (Block_map.block_at bmap 1 = None);
  checkb "block_containing" true (Block_map.block_containing bmap 1 = Some 0);
  checkb "block_at out of range" true (Block_map.block_at bmap 99 = None)

let test_block_map_successors () =
  let p = Assembler.assemble_exn simple_loop_src in
  let bmap = Block_map.build p in
  checkb "loop succs" true (Block_map.successors bmap 1 = [ 1; 2 ]);
  checkb "fall succ" true (Block_map.successors bmap 0 = [ 1 ]);
  checkb "halt succs" true (Block_map.successors bmap 2 = [])

let test_block_map_call () =
  let p =
    Assembler.assemble_exn
      {|
main:
    call fn
    halt
fn:
    ret
|}
  in
  let bmap = Block_map.build p in
  checki "three blocks" 3 (Block_map.block_count bmap);
  match (Block_map.block bmap 0).Block_map.terminator with
  | Block_map.Call_to { callee = 2; retsite = 1 } -> ()
  | _ -> Alcotest.fail "call terminator wrong"

let test_block_map_every_pc_covered () =
  let p = Assembler.assemble_exn simple_loop_src in
  let bmap = Block_map.build p in
  for pc = 0 to Tpdbt_isa.Program.length p - 1 do
    match Block_map.block_containing bmap pc with
    | None -> Alcotest.failf "pc %d not covered" pc
    | Some id ->
        let b = Block_map.block bmap id in
        checkb "pc within block" true
          (pc >= b.Block_map.start_pc && pc <= b.Block_map.end_pc)
  done

let test_block_map_of_blocks () =
  let p = Assembler.assemble_exn simple_loop_src in
  let bmap = Block_map.build p in
  (* Round trip through the serialisable representation. *)
  (match
     Block_map.of_blocks ~entry_block:(Block_map.entry_block bmap)
       (Block_map.blocks bmap)
   with
  | Ok rebuilt ->
      checki "count" (Block_map.block_count bmap) (Block_map.block_count rebuilt);
      checkb "same successors" true
        (List.for_all
           (fun b ->
             Block_map.successors bmap b.Block_map.id
             = Block_map.successors rebuilt b.Block_map.id)
           (Block_map.blocks bmap))
  | Error msg -> Alcotest.fail msg);
  (* Error paths. *)
  let blk id start_pc end_pc =
    {
      Block_map.id;
      start_pc;
      end_pc;
      size = end_pc - start_pc + 1;
      terminator = Block_map.Stop;
    }
  in
  checkb "empty rejected" true
    (Result.is_error (Block_map.of_blocks ~entry_block:0 []));
  checkb "gap rejected" true
    (Result.is_error
       (Block_map.of_blocks ~entry_block:0 [ blk 0 0 1; blk 1 3 4 ]));
  checkb "bad ids rejected" true
    (Result.is_error
       (Block_map.of_blocks ~entry_block:0 [ blk 1 0 1 ]));
  checkb "bad entry rejected" true
    (Result.is_error (Block_map.of_blocks ~entry_block:5 [ blk 0 0 1 ]))

(* ------------------------------------------------------------------ *)
(* Region structure                                                     *)
(* ------------------------------------------------------------------ *)

let mk_region ?(kind = Region.Trace) ?(edges = []) ?(back_edges = []) slots =
  let n = Array.length slots in
  {
    Region.id = 0;
    kind;
    slots;
    edges;
    back_edges;
    frozen_use = Array.make n 100;
    frozen_taken = Array.make n 70;
  }

let test_region_accessors () =
  let region =
    mk_region [| 5; 6; 7 |]
      ~edges:
        [
          { Region.src = 0; dst = 1; role = Region.Taken };
          { Region.src = 1; dst = 2; role = Region.Always };
        ]
  in
  checki "entry" 5 (Region.entry_block region);
  checki "slots" 3 (Region.slot_count region);
  checki "tail" 2 (Region.layout region).Region.tail;
  checkb "slots_of_block" true (Region.slots_of_block region 6 = [ 1 ]);
  checkb "validate" true (Result.is_ok (Region.validate region));
  match Region.frozen_branch_prob region 0 with
  | Some p -> Alcotest.check (Alcotest.float 1e-9) "frozen prob" 0.7 p
  | None -> Alcotest.fail "expected prob"

let test_region_validate_rejects () =
  let bad_edge =
    mk_region [| 1 |] ~edges:[ { Region.src = 0; dst = 5; role = Region.Always } ]
  in
  checkb "bad edge" true (Result.is_error (Region.validate bad_edge));
  let bad_kind =
    mk_region ~kind:Region.Loop [| 1 |]
  in
  checkb "loop without back edge" true (Result.is_error (Region.validate bad_kind));
  let unreachable =
    mk_region [| 1; 2 |]  (* no edge to slot 1 *)
  in
  checkb "unreachable slot" true (Result.is_error (Region.validate unreachable))

let test_region_duplicated_block () =
  let region =
    mk_region [| 5; 6; 5 |]
      ~edges:
        [
          { Region.src = 0; dst = 1; role = Region.Taken };
          { Region.src = 1; dst = 2; role = Region.Always };
        ]
  in
  checkb "two copies of block 5" true (Region.slots_of_block region 5 = [ 0; 2 ])

(* The layout against a reference written here: the old graph-based
   checks (a [Graph_ref] graph of the forward edges, its topological
   sort, a depth-first search from slot 0) for the verdict, and list
   searches over the edges for the tables. *)

module Graph = Graph_ref.Graph

let reference_verdict (region : Region.t) =
  let open Region in
  let n = Array.length region.slots in
  let bad e = e.src < 0 || e.src >= n || e.dst < 0 || e.dst >= n in
  if n = 0 then Error "region has no slots"
  else if
    Array.length region.frozen_use <> n
    || Array.length region.frozen_taken <> n
  then Error "frozen counter arrays do not match slot count"
  else if List.exists bad (region.edges @ region.back_edges) then
    Error "edge slot out of range"
  else if List.exists (fun e -> e.dst <> 0) region.back_edges then
    Error "back edge not targeting slot 0"
  else if (region.kind = Loop) <> (region.back_edges <> []) then
    Error "kind/back-edge mismatch"
  else
    let g = Graph.create () in
    Array.iteri (fun slot _ -> Graph.add_node g slot) region.slots;
    List.iter (fun e -> Graph.add_edge g e.src e.dst) region.edges;
    match Graph_ref.topological_sort g with
    | Error _ -> Error "forward edges contain a cycle"
    | Ok _ ->
        let seen = Array.make n false in
        let rec visit slot =
          if not seen.(slot) then begin
            seen.(slot) <- true;
            List.iter visit (Graph.succs g slot)
          end
        in
        visit 0;
        if Array.for_all Fun.id seen then Ok ()
        else Error "not all slots reachable from entry"

(* Distinct sources of [edges] in first-edge order, each with the roles
   of its edges in edge order. *)
let reference_preds edges =
  let open Region in
  let sources =
    List.fold_left
      (fun acc e -> if List.mem e.src acc then acc else acc @ [ e.src ])
      [] edges
  in
  List.map
    (fun from ->
      let roles =
        List.filter_map
          (fun e -> if e.src = from then Some e.role else None)
          edges
      in
      { from; roles })
    sources

let layout_matches (region : Region.t) (l : Region.layout) =
  let open Region in
  let n = Array.length region.slots in
  let all = region.edges @ region.back_edges in
  let from slot = List.filter (fun e -> e.src = slot) in
  let first slot role =
    match List.find_opt (fun e -> e.role = role) (from slot all) with
    | Some e -> e.dst
    | None -> -1
  in
  let rec tail slot =
    if slot = 0 || from slot region.edges = [] then slot else tail (slot - 1)
  in
  let position = Array.make n (-1) in
  Array.iteri (fun i slot -> position.(slot) <- i) l.order;
  List.for_all
    (fun slot ->
      l.dst_taken.(slot) = first slot Taken
      && l.dst_not_taken.(slot) = first slot Not_taken
      && l.dst_always.(slot) = first slot Always
      && l.has_succ.(slot) = (from slot all <> [])
      && l.has_back.(slot) = (from slot region.back_edges <> [])
      && l.preds.(slot)
         = reference_preds (List.filter (fun e -> e.dst = slot) region.edges))
    (List.init n Fun.id)
  && l.tail = tail (n - 1)
  && l.back_preds = reference_preds region.back_edges
  && Array.length l.order = n
  && l.order.(0) = 0
  && Array.for_all (fun i -> i >= 0) position
  && List.for_all (fun e -> position.(e.src) < position.(e.dst)) region.edges

let layout_property region =
  match (Region.validate region, reference_verdict region) with
  | Ok l, Ok () -> layout_matches region l
  | Error reason, Error expected -> reason = expected
  | Ok _, Error _ | Error _, Ok () -> false

let role_gen = QCheck.Gen.oneofl Region.[ Taken; Not_taken; Always ]
let edge_gen src dst = QCheck.Gen.map (fun role -> { Region.src; dst; role }) role_gen

(* A valid region of [n] slots: every slot hangs off a lower one, some
   edges are copied under random roles (duplicate and parallel edges),
   and a loop has back edges to slot 0. *)
let valid_region_gen n =
  let open QCheck.Gen in
  let* spine =
    flatten_l
      (List.init (n - 1) (fun i -> int_bound i >>= fun src -> edge_gen src (i + 1)))
  in
  let* twins =
    if spine = [] then return []
    else
      list_size (int_bound 3)
        (oneofl spine >>= fun e -> edge_gen e.Region.src e.Region.dst)
  in
  let* edges = shuffle_l (spine @ twins) in
  let* loop = bool in
  let* back_edges =
    if loop then
      list_size (int_range 1 3) (int_bound (n - 1) >>= fun src -> edge_gen src 0)
    else return []
  in
  let* frozen_use = array_repeat n (int_bound 100) in
  let* frozen_taken = array_repeat n (int_bound 100) in
  return
    {
      Region.id = 0;
      kind = (if loop then Region.Loop else Region.Trace);
      slots = Array.init n (fun slot -> 10 + slot);
      edges;
      back_edges;
      frozen_use;
      frozen_taken;
    }

(* One random damage, each aimed at one check. *)
let damage_gen (region : Region.t) =
  let open QCheck.Gen in
  let open Region in
  let n = Array.length region.slots in
  let slot = int_bound (n - 1) in
  let with_edge e = { region with edges = region.edges @ [ e ] } in
  oneof
    [
      (* an edge slot out of range, at either end *)
      (let* src = slot and* far = oneofl [ -1; n ] and* role = role_gen in
       oneofl
         [
           with_edge { src; dst = far; role }; with_edge { src = far; dst = src; role };
         ]);
      (* a back edge that misses slot 0 *)
      (let* src = slot and* dst = int_range 1 (max 1 (n - 1)) in
       let* role = role_gen in
       return
         {
           region with
           kind = Loop;
           back_edges = region.back_edges @ [ { src; dst; role } ];
         });
      (* the kind flipped *)
      return
        { region with kind = (match region.kind with Trace -> Loop | Loop -> Trace) };
      (* an edge against the slot order: a cycle when its target reaches
         its source *)
      (let* a = slot and* b = slot and* role = role_gen in
       return (with_edge { src = max a b; dst = min a b; role }));
      (* a forward edge dropped: its target may be left unreachable *)
      (let* i = int_bound (max 0 (List.length region.edges - 1)) in
       return { region with edges = List.filteri (fun j _ -> j <> i) region.edges });
      (* a frozen array one short *)
      return { region with frozen_taken = Array.sub region.frozen_taken 0 (n - 1) };
      (* the slots relabelled: the only source may not be slot 0 *)
      (let perm = Array.init n Fun.id in
       let* () = shuffle_a perm in
       let m slot = if slot >= 0 && slot < n then perm.(slot) else slot in
       let move e = { e with src = m e.src; dst = m e.dst } in
       return
         {
           region with
           edges = List.map move region.edges;
           back_edges = List.map move region.back_edges;
         });
    ]

(* Random regions of 1-8 slots, a third of them undamaged. *)
let region_gen =
  let open QCheck.Gen in
  let rec damage k region =
    if k = 0 then return region else damage_gen region >>= damage (k - 1)
  in
  let* n = int_range 1 8 in
  let* k = frequency [ (1, return 0); (1, return 1); (1, int_range 2 3) ] in
  valid_region_gen n >>= damage k

let prop_region_layout =
  QCheck.Test.make ~name:"region layout matches reference" ~count:3000
    (QCheck.make ~print:(Format.asprintf "%a" Region.pp) region_gen)
    layout_property

let test_region_layout_cases () =
  let region ?(kind = Region.Trace) ?(back_edges = []) n edges =
    let edge (src, dst) = { Region.src; dst; role = Region.Always } in
    mk_region ~kind ~edges:(List.map edge edges)
      ~back_edges:(List.map edge back_edges) (Array.make n 1)
  in
  let verdict what expected region =
    checkb (what ^ " (reference)") true (reference_verdict region = expected);
    checkb what true (Result.map ignore (Region.validate region) = expected)
  in
  verdict "no slots" (Error "region has no slots") (region 0 []);
  (* Every slot but 0 has a predecessor, yet slot 1 is the only source. *)
  verdict "only source is slot 1" (Error "not all slots reachable from entry")
    (region 2 [ (1, 0) ]);
  (* Slot 3 is unreachable too; the cycle's reason comes first. *)
  verdict "cycle and unreachable slot" (Error "forward edges contain a cycle")
    (region 4 [ (0, 1); (1, 2); (2, 1) ]);
  verdict "a loop" (Ok ())
    (region ~kind:Region.Loop ~back_edges:[ (1, 0) ] 2 [ (0, 1) ]);
  (* The generator draws every verdict. *)
  let rand = Random.State.make [| 19 |] in
  let verdicts = Hashtbl.create 8 in
  for _ = 1 to 3000 do
    let key =
      match Region.validate (region_gen rand) with
      | Ok _ -> "ok"
      | Error reason -> reason
    in
    Hashtbl.replace verdicts key ()
  done;
  List.iter
    (fun key -> checkb ("generator draws " ^ key) true (Hashtbl.mem verdicts key))
    [
      "ok";
      "frozen counter arrays do not match slot count";
      "edge slot out of range";
      "back edge not targeting slot 0";
      "kind/back-edge mismatch";
      "forward edges contain a cycle";
      "not all slots reachable from entry";
    ]

(* ------------------------------------------------------------------ *)
(* Region former                                                        *)
(* ------------------------------------------------------------------ *)

(* Hot loop followed by a cold exit: former should build a loop region. *)
let test_former_loop_region () =
  let p = Assembler.assemble_exn simple_loop_src in
  let bmap = Block_map.build p in
  let use = [| 1; 1000; 1 |] and taken = [| 0; 900; 0 |] in
  let config = { Region_former.default_config with threshold = 100 } in
  match
    Region_former.form config ~block_map:bmap ~use ~taken
      ~owner:(fun _ -> Region_former.Unowned)
      ~seeds:[ 1 ] ~first_id:7
  with
  | [ region ] ->
      checki "id assigned" 7 region.Region.id;
      checkb "loop kind" true (region.Region.kind = Region.Loop);
      checkb "single slot" true (region.Region.slots = [| 1 |]);
      checkb "back edge taken role" true
        (region.Region.back_edges
        = [ { Region.src = 0; dst = 0; role = Region.Taken } ]);
      checki "frozen use" 1000 region.Region.frozen_use.(0);
      checkb "valid" true (Result.is_ok (Region.validate region))
  | other -> Alcotest.failf "expected one region, got %d" (List.length other)

(* Straight hot chain: b0 -> b1 -> b2 via highly-taken branches. *)
let chain_src =
  {|
.entry a
a:
    movi r1, 1
    beq r1, r1, b     ; always taken
x:
    halt
b:
    movi r2, 2
    beq r2, r2, c
y:
    halt
c:
    out r2
    halt
|}

let test_former_trace () =
  let p = Assembler.assemble_exn chain_src in
  let bmap = Block_map.build p in
  let n = Block_map.block_count bmap in
  let use = Array.make n 500 and taken = Array.make n 500 in
  (* Block ids: a=0, x=1, b=2, y=3, c=4.  a and b always take. *)
  let config = { Region_former.default_config with threshold = 100 } in
  match
    Region_former.form config ~block_map:bmap ~use ~taken
      ~owner:(fun _ -> Region_former.Unowned)
      ~seeds:[ 0 ] ~first_id:0
  with
  | [ region ] ->
      checkb "trace kind" true (region.Region.kind = Region.Trace);
      checkb "chain slots" true (region.Region.slots = [| 0; 2; 4 |]);
      checkb "roles" true
        (region.Region.edges
        = [
            { Region.src = 0; dst = 1; role = Region.Taken };
            { Region.src = 1; dst = 2; role = Region.Taken };
          ]);
      checki "tail" 2 (Region.layout region).Region.tail
  | other -> Alcotest.failf "expected one region, got %d" (List.length other)

let test_former_stops_at_cold () =
  let p = Assembler.assemble_exn chain_src in
  let bmap = Block_map.build p in
  let n = Block_map.block_count bmap in
  let use = Array.make n 500 and taken = Array.make n 500 in
  use.(4) <- 10;
  (* c is cold *)
  let config = { Region_former.default_config with threshold = 100 } in
  match
    Region_former.form config ~block_map:bmap ~use ~taken
      ~owner:(fun _ -> Region_former.Unowned)
      ~seeds:[ 0 ] ~first_id:0
  with
  | [ region ] -> checkb "stops before cold" true (region.Region.slots = [| 0; 2 |])
  | other -> Alcotest.failf "expected one region, got %d" (List.length other)

let test_former_low_prob_stops () =
  let p = Assembler.assemble_exn chain_src in
  let bmap = Block_map.build p in
  let n = Block_map.block_count bmap in
  let use = Array.make n 500 in
  let taken = Array.make n 300 in
  (* 60% taken < 0.7: no extension, and the 40% fallthrough also < 0.7;
     diamonds need both arms hot and rejoining, which doesn't hold here. *)
  let config =
    { Region_former.default_config with threshold = 100; enable_diamonds = false }
  in
  match
    Region_former.form config ~block_map:bmap ~use ~taken
      ~owner:(fun _ -> Region_former.Unowned)
      ~seeds:[ 0 ] ~first_id:0
  with
  | [ region ] -> checkb "singleton" true (region.Region.slots = [| 0 |])
  | other -> Alcotest.failf "expected one region, got %d" (List.length other)

let test_former_duplication () =
  let p = Assembler.assemble_exn chain_src in
  let bmap = Block_map.build p in
  let n = Block_map.block_count bmap in
  let use = Array.make n 500 and taken = Array.make n 500 in
  let config = { Region_former.default_config with threshold = 100 } in
  (* Block 2 is already owned; with duplication on it is copied, with
     duplication off growth stops. *)
  let owner b = if b = 2 then Region_former.Owned else Region_former.Unowned in
  (match
     Region_former.form config ~block_map:bmap ~use ~taken ~owner ~seeds:[ 0 ]
       ~first_id:0
   with
  | [ region ] -> checkb "duplicated" true (region.Region.slots = [| 0; 2; 4 |])
  | other -> Alcotest.failf "dup: expected one region, got %d" (List.length other));
  let config = { config with enable_duplication = false } in
  match
    Region_former.form config ~block_map:bmap ~use ~taken ~owner ~seeds:[ 0 ]
      ~first_id:0
  with
  | [ region ] -> checkb "no duplication" true (region.Region.slots = [| 0 |])
  | other -> Alcotest.failf "nodup: expected one region, got %d" (List.length other)

let test_former_max_slots () =
  let p = Assembler.assemble_exn chain_src in
  let bmap = Block_map.build p in
  let n = Block_map.block_count bmap in
  let use = Array.make n 500 and taken = Array.make n 500 in
  let config = { Region_former.default_config with threshold = 100; max_slots = 2 } in
  match
    Region_former.form config ~block_map:bmap ~use ~taken
      ~owner:(fun _ -> Region_former.Unowned)
      ~seeds:[ 0 ] ~first_id:0
  with
  | [ region ] -> checki "capped" 2 (Region.slot_count region)
  | other -> Alcotest.failf "expected one region, got %d" (List.length other)

let call_src =
  {|
.entry main
main:
    movi r1, 1
    call fn
    out r1
    halt
fn:
    addi r1, r1, 1
    ret
|}

let test_former_across_calls () =
  let p = Assembler.assemble_exn call_src in
  let bmap = Block_map.build p in
  let n = Block_map.block_count bmap in
  let use = Array.make n 500 and taken = Array.make n 0 in
  let base = { Region_former.default_config with threshold = 100 } in
  (* Default: growth stops at the call. *)
  (match
     Region_former.form base ~block_map:bmap ~use ~taken
       ~owner:(fun _ -> Region_former.Unowned)
       ~seeds:[ 0 ] ~first_id:0
   with
  | [ region ] -> checki "stops at call" 1 (Region.slot_count region)
  | other -> Alcotest.failf "expected one region, got %d" (List.length other));
  (* With across_calls: the callee joins the region. *)
  let config = { base with Region_former.across_calls = true } in
  match
    Region_former.form config ~block_map:bmap ~use ~taken
      ~owner:(fun _ -> Region_former.Unowned)
      ~seeds:[ 0 ] ~first_id:0
  with
  | [ region ] ->
      checki "caller + callee" 2 (Region.slot_count region);
      checkb "call edge role" true
        (region.Region.edges
        = [ { Region.src = 0; dst = 1; role = Region.Always } ]);
      checkb "valid" true (Result.is_ok (Region.validate region))
  | other -> Alcotest.failf "expected one region, got %d" (List.length other)

let test_engine_across_calls_semantics () =
  let src =
    {|
.entry main
main:
    movi r1, 0
    movi r2, 20000
loop:
    call work
    addi r1, r1, 1
    blt r1, r2, loop
    out r5
    halt
work:
    rnd r3, 100
    movi r4, 80
    blt r3, r4, hot
    addi r5, r5, 1
hot:
    ret
|}
  in
  let p = Assembler.assemble_exn src in
  let run regions_across_calls =
    let config =
      { (Engine.config ~threshold:30 ()) with Engine.regions_across_calls }
    in
    Engine.run (Engine.create ~config ~seed:17L p)
  in
  let plain = run false and inlined = run true in
  checkb "same outputs" true (plain.Engine.outputs = inlined.Engine.outputs);
  checkb "same steps" true (plain.Engine.steps = inlined.Engine.steps);
  (* The inlined former must create at least one region spanning a call
     (caller block followed by the callee block). *)
  let bmap = Engine.block_map (Engine.create ~seed:17L p) in
  let spans_call region =
    List.exists
      (fun e ->
        match
          (Block_map.block bmap region.Region.slots.(e.Region.src))
            .Block_map.terminator
        with
        | Block_map.Call_to _ -> true
        | _ -> false)
      region.Region.edges
  in
  checkb "a region spans the call" true
    (List.exists spans_call inlined.Engine.snapshot.Snapshot.regions);
  checkb "no region spans without the flag" false
    (List.exists spans_call plain.Engine.snapshot.Snapshot.regions)

(* Balanced diamond that rejoins: expect a hammock region. *)
let diamond_src =
  {|
.entry a
a:
    rnd r1, 100
    movi r2, 50
    blt r1, r2, t
f:
    addi r3, r3, 1
    jmp j
t:
    addi r4, r4, 1
    jmp j
j:
    out r3
    halt
|}

let test_former_diamond () =
  let p = Assembler.assemble_exn diamond_src in
  let bmap = Block_map.build p in
  let n = Block_map.block_count bmap in
  (* ids: a=0, f=1, t=2, j=3 *)
  let use = Array.make n 1000 in
  let taken = [| 500; 1000; 1000; 0 |] in
  let config = { Region_former.default_config with threshold = 100 } in
  match
    Region_former.form config ~block_map:bmap ~use ~taken
      ~owner:(fun _ -> Region_former.Unowned)
      ~seeds:[ 0 ] ~first_id:0
  with
  | [ region ] ->
      checkb "diamond slots" true (region.Region.slots = [| 0; 2; 1; 3 |]);
      checki "four slots" 4 (Region.slot_count region);
      checki "tail is join" 3 (Region.layout region).Region.tail;
      checkb "valid" true (Result.is_ok (Region.validate region))
  | other -> Alcotest.failf "expected one region, got %d" (List.length other)

let test_former_skips_swallowed_seed () =
  let p = Assembler.assemble_exn chain_src in
  let bmap = Block_map.build p in
  let n = Block_map.block_count bmap in
  let use = Array.make n 500 and taken = Array.make n 500 in
  let config = { Region_former.default_config with threshold = 100 } in
  let regions =
    Region_former.form config ~block_map:bmap ~use ~taken
      ~owner:(fun _ -> Region_former.Unowned)
      ~seeds:[ 0; 2; 4 ] ~first_id:0
  in
  checki "one region covers all seeds" 1 (List.length regions)

(* ------------------------------------------------------------------ *)
(* Optimizer                                                            *)
(* ------------------------------------------------------------------ *)

let test_lower_block () =
  let instrs =
    [| Instr.Movi (r 1, 5); Instr.Nop; Instr.Br (Instr.Eq, r 1, r 2, 0) |]
  in
  match Ir.lower_block instrs with
  | [ Ir.Move (1, Ir.Imm 5); Ir.Branch ] -> ()
  | other -> Alcotest.failf "unexpected lowering (%d ops)" (List.length other)

let test_const_fold () =
  let ops =
    [
      Ir.Move (1, Ir.Imm 6);
      Ir.Move (2, Ir.Imm 7);
      Ir.Arith (Instr.Mul, 3, Ir.Reg 1, Ir.Reg 2);
      Ir.Arith (Instr.Add, 4, Ir.Reg 3, Ir.Imm 1);
    ]
  in
  match Optimizer.const_fold ops with
  | [ _; _; Ir.Move (3, Ir.Imm 42); Ir.Move (4, Ir.Imm 43) ] -> ()
  | other ->
      Alcotest.failf "folding failed: %s"
        (String.concat "; " (List.map (Format.asprintf "%a" Ir.pp_op) other))

let test_const_fold_div_zero_untouched () =
  let ops =
    [ Ir.Move (1, Ir.Imm 0); Ir.Arith (Instr.Div, 2, Ir.Imm 5, Ir.Reg 1) ]
  in
  match Optimizer.const_fold ops with
  | [ _; Ir.Arith (Instr.Div, 2, Ir.Imm 5, Ir.Imm 0) ] -> ()
  | _ -> Alcotest.fail "division by zero must not be folded away"

let test_const_fold_kill_on_load () =
  let ops =
    [
      Ir.Move (1, Ir.Imm 5);
      Ir.Load (1, Ir.Reg 0, 0);
      Ir.Arith (Instr.Add, 2, Ir.Reg 1, Ir.Imm 1);
    ]
  in
  match Optimizer.const_fold ops with
  | [ _; _; Ir.Arith (Instr.Add, 2, Ir.Reg 1, Ir.Imm 1) ] -> ()
  | _ -> Alcotest.fail "load must kill the constant"

let test_dead_def_elim () =
  let ops =
    [
      Ir.Move (1, Ir.Imm 5);      (* dead: overwritten below, no use *)
      Ir.Move (1, Ir.Imm 6);
      Ir.Arith (Instr.Add, 2, Ir.Reg 1, Ir.Imm 1);
    ]
  in
  checki "dead def removed" 2 (List.length (Optimizer.dead_def_elim ops));
  let with_use =
    [
      Ir.Move (1, Ir.Imm 5);
      Ir.Arith (Instr.Add, 2, Ir.Reg 1, Ir.Imm 1);  (* uses r1 *)
      Ir.Move (1, Ir.Imm 6);
    ]
  in
  checki "used def kept" 3 (List.length (Optimizer.dead_def_elim with_use));
  let side_effect = [ Ir.Rnd (1, 10); Ir.Move (1, Ir.Imm 0) ] in
  checki "side effects kept" 2 (List.length (Optimizer.dead_def_elim side_effect))

let test_schedule_parallelism () =
  (* Two independent adds can dual-issue: 1 cycle + latency. *)
  let independent =
    [
      Ir.Arith (Instr.Add, 1, Ir.Imm 1, Ir.Imm 2);
      Ir.Arith (Instr.Add, 2, Ir.Imm 3, Ir.Imm 4);
    ]
  in
  checki "dual issue" 1 (Optimizer.schedule_cycles independent);
  (* A dependent chain serialises. *)
  let chain =
    [
      Ir.Arith (Instr.Add, 1, Ir.Imm 1, Ir.Imm 2);
      Ir.Arith (Instr.Add, 2, Ir.Reg 1, Ir.Imm 1);
      Ir.Arith (Instr.Add, 3, Ir.Reg 2, Ir.Imm 1);
    ]
  in
  checki "chain length" 3 (Optimizer.schedule_cycles chain);
  checki "empty" 0 (Optimizer.schedule_cycles [])

let test_schedule_latency () =
  (* mul (latency 3) feeding an add: 3 + 1 cycles. *)
  let ops =
    [
      Ir.Arith (Instr.Mul, 1, Ir.Imm 3, Ir.Imm 4);
      Ir.Arith (Instr.Add, 2, Ir.Reg 1, Ir.Imm 1);
    ]
  in
  checki "mul latency respected" 4 (Optimizer.schedule_cycles ops)

let test_schedule_memory_order () =
  (* Store then load stay ordered even without register deps. *)
  let ops =
    [ Ir.Store (Ir.Imm 1, Ir.Imm 100, 0); Ir.Load (1, Ir.Imm 100, 0) ]
  in
  checkb "memory serialised" true (Optimizer.schedule_cycles ops >= 2)

let test_optimize_block_improves () =
  let instrs =
    [|
      Instr.Movi (r 1, 6);
      Instr.Movi (r 2, 7);
      Instr.Binop (Instr.Mul, r 3, r 1, r 2);
      Instr.Binopi (Instr.Add, r 4, r 3, 1);
      Instr.Br (Instr.Lt, r 4, r 5, 0);
    |]
  in
  let result = Optimizer.optimize_block instrs in
  checki "ops before" 5 result.Optimizer.ops_before;
  checkb "cycles below naive" true (result.Optimizer.cycles < 5);
  checkb "ops not increased" true
    (result.Optimizer.ops_after <= result.Optimizer.ops_before)

let test_pipelined_region_cycles () =
  (* Pipelined (trace) scheduling never costs a slot more than per-block
     scheduling, and the tail slot costs the same: read from each
     block's own schedule, which is all a slot's cost depends on. *)
  let p = Assembler.assemble_exn chain_src in
  let bmap = Block_map.build p in
  let region =
    {
      Region.id = 0;
      kind = Region.Trace;
      slots = [| 0; 2; 4 |];
      edges =
        [
          { Region.src = 0; dst = 1; role = Region.Taken };
          { Region.src = 1; dst = 2; role = Region.Taken };
        ];
      back_edges = [];
      frozen_use = [| 10; 10; 10 |];
      frozen_taken = [| 10; 10; 10 |];
    }
  in
  let layout = Region.layout region in
  let code = p.Tpdbt_isa.Program.code in
  let cost slot ~pipelined =
    let b = Block_map.block bmap region.Region.slots.(slot) in
    Optimizer.slot_cycles
      (Optimizer.optimize_block
         (Array.sub code b.Block_map.start_pc b.Block_map.size))
      ~pipelined ~has_succ:layout.Region.has_succ.(slot)
  in
  Array.iteri
    (fun slot _ ->
      checkb
        (Printf.sprintf "slot %d pipelined <= per-block" slot)
        true
        (cost slot ~pipelined:true <= cost slot ~pipelined:false))
    region.Region.slots;
  checkb "tail slot pays full schedule" true
    (cost 2 ~pipelined:true = cost 2 ~pipelined:false)

(* Property tests over random IR blocks. *)
let ir_ops_gen =
  let open QCheck.Gen in
  let operand = oneof [ map (fun r -> Ir.Reg r) (int_bound 7); map (fun v -> Ir.Imm v) (int_range (-100) 100) ] in
  let binop =
    oneofl
      [ Instr.Add; Instr.Sub; Instr.Mul; Instr.And; Instr.Or; Instr.Xor ]
  in
  let op =
    frequency
      [
        ( 4,
          let* bop = binop in
          let* dst = int_bound 7 in
          let* a = operand in
          let* b = operand in
          return (Ir.Arith (bop, dst, a, b)) );
        ( 2,
          let* dst = int_bound 7 in
          let* src = operand in
          return (Ir.Move (dst, src)) );
        ( 1,
          let* dst = int_bound 7 in
          let* base = operand in
          return (Ir.Load (dst, base, 0)) );
        ( 1,
          let* src = operand in
          let* base = operand in
          return (Ir.Store (src, base, 0)) );
      ]
  in
  list_size (int_range 1 20) op

let ir_arbitrary =
  QCheck.make
    ~print:(fun ops ->
      String.concat "; " (List.map (Format.asprintf "%a" Ir.pp_op) ops))
    ir_ops_gen

let prop_const_fold_idempotent =
  QCheck.Test.make ~name:"const_fold is idempotent" ~count:300 ir_arbitrary
    (fun ops ->
      let once = Optimizer.const_fold ops in
      Optimizer.const_fold once = once)

let prop_dce_idempotent =
  QCheck.Test.make ~name:"dead_def_elim is idempotent" ~count:300 ir_arbitrary
    (fun ops ->
      let once = Optimizer.dead_def_elim ops in
      Optimizer.dead_def_elim once = once)

let prop_passes_never_grow =
  QCheck.Test.make ~name:"passes never add ops" ~count:300 ir_arbitrary
    (fun ops ->
      let n = List.length ops in
      List.length (Optimizer.const_fold ops) = n
      && List.length (Optimizer.dead_def_elim ops) <= n)

let prop_schedule_bounds =
  QCheck.Test.make ~name:"schedule within issue/latency bounds" ~count:300
    ir_arbitrary (fun ops ->
      let cycles = Optimizer.schedule_cycles ops in
      let n = List.length ops in
      let latency_sum =
        List.fold_left (fun acc op -> acc + Ir.latency op) 0 ops
      in
      (* Lower bound: issue width 2.  Upper bound: fully serial. *)
      cycles >= (n + 1) / 2 && cycles <= latency_sum)

(* ------------------------------------------------------------------ *)
(* Engine                                                               *)
(* ------------------------------------------------------------------ *)

let run_engine ?(threshold = 50) ?(seed = 42L) src =
  let p = Assembler.assemble_exn src in
  let engine =
    Engine.create ~config:(Engine.config ~threshold ()) ~seed p
  in
  Engine.run engine

let hot_loop_src =
  {|
.entry main
main:
    movi r1, 0
    movi r2, 20000
loop:
    rnd r3, 100
    movi r4, 70
    blt r3, r4, hot
    addi r5, r5, 1
    jmp join
hot:
    addi r6, r6, 1
join:
    addi r1, r1, 1
    blt r1, r2, loop
    out r6
    halt
|}

let test_trace_scheduling_speeds_up () =
  (* With trace scheduling on, the same run costs no more cycles. *)
  let p = Assembler.assemble_exn hot_loop_src in
  let run trace_scheduling =
    let config =
      { (Engine.config ~threshold:50 ()) with Engine.trace_scheduling }
    in
    Engine.run (Engine.create ~config ~seed:42L p)
  in
  let base = run false and pipelined = run true in
  checkb "same outputs" true (base.Engine.outputs = pipelined.Engine.outputs);
  checkb "pipelined not slower" true
    (pipelined.Engine.counters.Perf_model.cycles
    <= base.Engine.counters.Perf_model.cycles)

let test_engine_preserves_semantics () =
  (* The DBT must not change program results: outputs match a plain
     interpreter run with the same seed. *)
  let p = Assembler.assemble_exn hot_loop_src in
  let m = Machine.create ~seed:42L p in
  (match Machine.run m with Ok () -> () | Error _ -> Alcotest.fail "trap");
  let result = run_engine ~threshold:50 ~seed:42L hot_loop_src in
  checkb "same outputs" true (Machine.outputs m = result.Engine.outputs);
  checki "same steps" (Machine.steps m) result.Engine.steps;
  checkb "no error" true (result.Engine.error = None)

let test_engine_semantics_across_thresholds () =
  let reference = run_engine ~threshold:0 hot_loop_src in
  List.iter
    (fun threshold ->
      let result = run_engine ~threshold hot_loop_src in
      checkb
        (Printf.sprintf "outputs at T=%d" threshold)
        true
        (result.Engine.outputs = reference.Engine.outputs))
    [ 1; 7; 100; 1000 ]

let test_engine_profiling_only () =
  let result = run_engine ~threshold:0 hot_loop_src in
  checkb "no regions" true (result.Engine.snapshot.Snapshot.regions = []);
  checki "no optimisation rounds" 0
    result.Engine.counters.Perf_model.optimization_rounds;
  (* AVEP counters: the loop branch executed 20000 times. *)
  let snap = result.Engine.snapshot in
  let bmap = snap.Snapshot.block_map in
  let join_block =
    (* the block ending with `blt r1, r2, loop` *)
    List.find
      (fun b ->
        match b.Block_map.terminator with
        | Block_map.Cond { taken; _ } -> taken = 1
        | _ -> false)
      (List.filter
         (fun b -> b.Block_map.id > 0)
         (Block_map.blocks bmap))
  in
  checki "join use" 20000 snap.Snapshot.use.(join_block.Block_map.id)

let test_engine_forms_regions () =
  let result = run_engine ~threshold:50 hot_loop_src in
  checkb "regions formed" true (result.Engine.snapshot.Snapshot.regions <> []);
  checkb "region entries happened" true
    (result.Engine.counters.Perf_model.region_entries > 0);
  List.iter
    (fun region ->
      checkb "region valid" true (Result.is_ok (Region.validate region)))
    result.Engine.snapshot.Snapshot.regions

let test_engine_freezes_counters () =
  (* Frozen use counts of region members must be near the threshold, far
     below the 20000 executions of the run. *)
  let threshold = 50 in
  let result = run_engine ~threshold hot_loop_src in
  List.iter
    (fun region ->
      Array.iteri
        (fun slot _block ->
          let frozen = region.Region.frozen_use.(slot) in
          checkb
            (Printf.sprintf "frozen use %d plausible" frozen)
            true
            (frozen <= 4 * threshold))
        region.Region.slots)
    result.Engine.snapshot.Snapshot.regions

let test_engine_profiling_ops_scale () =
  let small = run_engine ~threshold:10 hot_loop_src in
  let large = run_engine ~threshold:1000 hot_loop_src in
  let avep = run_engine ~threshold:0 hot_loop_src in
  checkb "ops grow with threshold" true
    (small.Engine.profiling_ops < large.Engine.profiling_ops);
  checkb "optimised run cheaper than profile-only" true
    (large.Engine.profiling_ops < avep.Engine.profiling_ops)

let test_engine_deterministic () =
  let a = run_engine ~threshold:50 hot_loop_src in
  let b = run_engine ~threshold:50 hot_loop_src in
  checkb "same cycles" true
    (a.Engine.counters.Perf_model.cycles = b.Engine.counters.Perf_model.cycles);
  checkb "same ops" true (a.Engine.profiling_ops = b.Engine.profiling_ops);
  checkb "same region count" true
    (List.length a.Engine.snapshot.Snapshot.regions
    = List.length b.Engine.snapshot.Snapshot.regions)

let test_engine_trap_reported () =
  let result =
    run_engine ~threshold:0 "movi r1, 1\nmovi r2, 0\ndiv r3, r1, r2\nhalt"
  in
  match Engine.trap result with
  | Some (Machine.Division_by_zero _) -> ()
  | Some other -> Alcotest.failf "wrong trap: %a" Machine.pp_trap other
  | None -> Alcotest.fail "expected trap"

let test_engine_max_steps () =
  let p = Assembler.assemble_exn "loop:\njmp loop" in
  let config = { (Engine.config ~threshold:0 ()) with max_steps = 1000 } in
  let engine = Engine.create ~config ~seed:1L p in
  let result = Engine.run engine in
  checkb "stopped at budget" true (result.Engine.steps <= 1001);
  match result.Engine.error with
  | Some (Error.Limit_exceeded { max_steps; _ } as e) ->
      checki "budget reported" 1000 max_steps;
      (* Budget exhaustion must stay non-fatal: the sweep harness keeps
         budget-limited partial runs (mcf outlives the default budget). *)
      checkb "limit is non-fatal" false (Error.fatal e)
  | Some other -> Alcotest.failf "wrong error: %s" (Error.to_string other)
  | None -> Alcotest.fail "expected Limit_exceeded"

let simple_loop_10k =
  {|
.entry main
main:
    movi r1, 0
    movi r2, 10000
loop:
    addi r1, r1, 1
    blt r1, r2, loop
    out r1
    halt
|}

let test_engine_loop_backs_counted () =
  let result = run_engine ~threshold:20 simple_loop_10k in
  checkb "loop backs observed" true
    (result.Engine.counters.Perf_model.loop_backs > 1000)

let test_engine_side_exits_on_phase_change () =
  (* A branch that flips direction mid-run: regions formed early must
     take side exits after the flip. *)
  let src =
    {|
.entry main
main:
    movi r1, 0
    movi r2, 20000
    movi r7, 10000
loop:
    blt r1, r7, early
    addi r5, r5, 1
    jmp join
early:
    addi r6, r6, 1
join:
    addi r1, r1, 1
    blt r1, r2, loop
    halt
|}
  in
  let result = run_engine ~threshold:20 src in
  checkb "side exits after phase flip" true
    (result.Engine.counters.Perf_model.side_exits > 1000)

(* -- Adaptive mode (paper §5 extension) ------------------------------ *)

(* A branch that flips direction at iteration 10000 of 40000: a fixed
   translator keeps side-exiting; the adaptive one dissolves and
   re-optimises. *)
let adaptive_src =
  {|
.entry main
main:
    movi r1, 0
    movi r2, 40000
    movi r7, 10000
loop:
    blt r1, r7, early
    addi r5, r5, 1
    jmp join
early:
    addi r6, r6, 1
join:
    addi r1, r1, 1
    blt r1, r2, loop
    out r5
    halt
|}

let run_adaptive ~adaptive src =
  let p = Assembler.assemble_exn src in
  let config = Engine.config ~adaptive ~threshold:20 () in
  Engine.run (Engine.create ~config ~seed:3L p)

let test_adaptive_dissolves () =
  let fixed = run_adaptive ~adaptive:false adaptive_src in
  let adaptive = run_adaptive ~adaptive:true adaptive_src in
  checki "fixed never dissolves" 0
    fixed.Engine.counters.Perf_model.regions_dissolved;
  checkb "adaptive dissolves" true
    (adaptive.Engine.counters.Perf_model.regions_dissolved > 0);
  checkb "adaptive reduces side exits" true
    (adaptive.Engine.counters.Perf_model.side_exits
    < fixed.Engine.counters.Perf_model.side_exits)

let test_adaptive_preserves_semantics () =
  let fixed = run_adaptive ~adaptive:false adaptive_src in
  let adaptive = run_adaptive ~adaptive:true adaptive_src in
  checkb "same outputs" true (fixed.Engine.outputs = adaptive.Engine.outputs);
  checki "same steps" fixed.Engine.steps adaptive.Engine.steps

let test_adaptive_reopt_limit () =
  (* A 75%-taken branch grows a trace whose inherent side-exit rate
     (0.25) exceeds an aggressive dissolve threshold (0.2): every
     re-formed region looks the same, so without the re-opt limit the
     translator would thrash forever.  Dissolutions must stop at the
     limit. *)
  let src =
    {|
.entry main
main:
    movi r1, 0
    movi r2, 40000
loop:
    rnd r3, 4
    movi r4, 3
    blt r3, r4, a
    addi r5, r5, 1
    jmp join
a:
    addi r6, r6, 1
join:
    addi r1, r1, 1
    blt r1, r2, loop
    halt
|}
  in
  let p = Assembler.assemble_exn src in
  let config =
    {
      (Engine.config ~adaptive:true ~threshold:20 ()) with
      Engine.reopt_side_exit_rate = 0.2;
      enable_diamonds = false;
    }
  in
  let result = Engine.run (Engine.create ~config ~seed:3L p) in
  let dissolved = result.Engine.counters.Perf_model.regions_dissolved in
  checkb
    (Printf.sprintf "dissolutions bounded (%d)" dissolved)
    true
    (dissolved > 0 && dissolved <= 60)

let test_adaptive_snapshot_has_fresh_regions () =
  let adaptive = run_adaptive ~adaptive:true adaptive_src in
  (* Surviving regions validate and have monitors reported. *)
  List.iter
    (fun region ->
      checkb "surviving region valid" true
        (Result.is_ok (Region.validate region)))
    adaptive.Engine.snapshot.Snapshot.regions;
  List.iter
    (fun region ->
      checkb "stats exist for surviving regions" true
        (List.mem_assoc region.Region.id adaptive.Engine.region_stats))
    adaptive.Engine.snapshot.Snapshot.regions

let test_continuous_loop_profiling () =
  (* A stable loop: the live loop-back ratio must match the loop's trip
     count even though counters are frozen. *)
  let result = run_adaptive ~adaptive:false simple_loop_10k in
  let live_lps =
    List.filter_map
      (fun (id, stats) ->
        match Snapshot.find_region result.Engine.snapshot id with
        | Some region
          when region.Region.kind = Region.Loop
               && stats.Engine.loop_back_seen > 1000 ->
            Some
              (float_of_int stats.Engine.loop_back_taken
              /. float_of_int stats.Engine.loop_back_seen)
        | Some _ | None -> None)
      result.Engine.region_stats
  in
  checkb "found a live loop" true (live_lps <> []);
  List.iter
    (fun lp ->
      checkb
        (Printf.sprintf "live LP ~ (10000-1)/10000 (got %.4f)" lp)
        true
        (abs_float (lp -. 0.9999) < 0.001))
    live_lps

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_dot_export () =
  let result = run_engine ~threshold:50 hot_loop_src in
  let snap = result.Engine.snapshot in
  let cfg_dot =
    Tpdbt_dbt.Dot.block_map ~use:snap.Snapshot.use ~taken:snap.Snapshot.taken
      snap.Snapshot.block_map
  in
  checkb "digraph header" true (contains cfg_dot "digraph cfg");
  checkb "has nodes" true (contains cfg_dot "b0 [label=");
  checkb "has probability labels" true (contains cfg_dot "T 0.");
  match snap.Snapshot.regions with
  | region :: _ ->
      let region_dot = Tpdbt_dbt.Dot.region region in
      checkb "region digraph" true (contains region_dot "digraph region");
      checkb "entry bold" true (contains region_dot "style=bold")
  | [] -> Alcotest.fail "expected regions"

let test_snapshot_api () =
  let result = run_engine ~threshold:0 hot_loop_src in
  let snap = result.Engine.snapshot in
  checkb "executed blocks nonempty" true (Snapshot.executed_blocks snap <> []);
  checki "profiling ops consistent" result.Engine.profiling_ops
    (Snapshot.profiling_ops snap);
  checkb "freq of bad id" true (Snapshot.block_freq snap (-1) = 0.0);
  checkb "region lookup absent" true (Snapshot.find_region snap 0 = None)

let suite =
  [
    ("block map simple loop", `Quick, test_block_map_simple_loop);
    ("block map lookup", `Quick, test_block_map_lookup);
    ("block map successors", `Quick, test_block_map_successors);
    ("block map call", `Quick, test_block_map_call);
    ("block map covers pcs", `Quick, test_block_map_every_pc_covered);
    ("block map of_blocks", `Quick, test_block_map_of_blocks);
    ("region accessors", `Quick, test_region_accessors);
    ("region validate rejects", `Quick, test_region_validate_rejects);
    ("region duplicated block", `Quick, test_region_duplicated_block);
    ("region layout cases", `Quick, test_region_layout_cases);
    QCheck_alcotest.to_alcotest prop_region_layout;
    ("former loop region", `Quick, test_former_loop_region);
    ("former trace", `Quick, test_former_trace);
    ("former stops at cold", `Quick, test_former_stops_at_cold);
    ("former low prob stops", `Quick, test_former_low_prob_stops);
    ("former duplication", `Quick, test_former_duplication);
    ("former max slots", `Quick, test_former_max_slots);
    ("former across calls", `Quick, test_former_across_calls);
    ("engine across calls semantics", `Quick, test_engine_across_calls_semantics);
    ("former diamond", `Quick, test_former_diamond);
    ("former skips swallowed seed", `Quick, test_former_skips_swallowed_seed);
    ("lower block", `Quick, test_lower_block);
    ("const fold", `Quick, test_const_fold);
    ("const fold div zero", `Quick, test_const_fold_div_zero_untouched);
    ("const fold kill on load", `Quick, test_const_fold_kill_on_load);
    ("dead def elim", `Quick, test_dead_def_elim);
    ("schedule parallelism", `Quick, test_schedule_parallelism);
    ("schedule latency", `Quick, test_schedule_latency);
    ("schedule memory order", `Quick, test_schedule_memory_order);
    ("optimize block improves", `Quick, test_optimize_block_improves);
    QCheck_alcotest.to_alcotest prop_const_fold_idempotent;
    QCheck_alcotest.to_alcotest prop_dce_idempotent;
    QCheck_alcotest.to_alcotest prop_passes_never_grow;
    QCheck_alcotest.to_alcotest prop_schedule_bounds;
    ("pipelined region cycles", `Quick, test_pipelined_region_cycles);
    ("trace scheduling speeds up", `Quick, test_trace_scheduling_speeds_up);
    ("engine preserves semantics", `Quick, test_engine_preserves_semantics);
    ("engine semantics across thresholds", `Quick,
     test_engine_semantics_across_thresholds);
    ("engine profiling only", `Quick, test_engine_profiling_only);
    ("engine forms regions", `Quick, test_engine_forms_regions);
    ("engine freezes counters", `Quick, test_engine_freezes_counters);
    ("engine profiling ops scale", `Quick, test_engine_profiling_ops_scale);
    ("engine deterministic", `Quick, test_engine_deterministic);
    ("engine trap reported", `Quick, test_engine_trap_reported);
    ("engine max steps", `Quick, test_engine_max_steps);
    ("engine loop backs", `Quick, test_engine_loop_backs_counted);
    ("engine side exits on phase change", `Quick,
     test_engine_side_exits_on_phase_change);
    ("adaptive dissolves", `Quick, test_adaptive_dissolves);
    ("adaptive preserves semantics", `Quick, test_adaptive_preserves_semantics);
    ("adaptive reopt limit", `Quick, test_adaptive_reopt_limit);
    ("adaptive snapshot regions", `Quick,
     test_adaptive_snapshot_has_fresh_regions);
    ("continuous loop profiling", `Quick, test_continuous_loop_profiling);
    ("dot export", `Quick, test_dot_export);
    ("snapshot api", `Quick, test_snapshot_api);
  ]
