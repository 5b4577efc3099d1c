module Snapshot = Tpdbt_dbt.Snapshot
module Block_map = Tpdbt_dbt.Block_map
module Region = Tpdbt_dbt.Region
module Error = Tpdbt_dbt.Error
module Durable = Tpdbt_durable.Durable
module W = Durable.Writer
module R = Durable.Reader

(* The body: checkpoints embed it and translate replies carry it. *)
let magic = "TPDBT-PROFILE 1"

(* A standalone file: the body sealed as a durable record. *)
let file_magic = "TPDBT-PROFILE 2"

let term_to_string = function
  | Block_map.Cond { taken; fallthrough } ->
      Printf.sprintf "cond %d %d" taken fallthrough
  | Block_map.Goto b -> Printf.sprintf "goto %d" b
  | Block_map.Call_to { callee; retsite } ->
      Printf.sprintf "call %d %d" callee retsite
  | Block_map.Return -> "return"
  | Block_map.Stop -> "stop"
  | Block_map.Fallthrough b -> Printf.sprintf "fall %d" b

let role_to_char = function
  | Region.Taken -> 'T'
  | Region.Not_taken -> 'N'
  | Region.Always -> 'A'

let write_blocks w bmap =
  let n = Block_map.block_count bmap in
  W.line w "%s" magic;
  W.line w "blocks %d entry %d" n (Block_map.entry_block bmap);
  for id = 0 to n - 1 do
    let b = Block_map.block bmap id in
    W.line w "block %d %d %d %s" id b.Block_map.start_pc b.Block_map.end_pc
      (term_to_string b.Block_map.terminator)
  done

let to_string (snapshot : Snapshot.t) =
  let w = W.create () in
  write_blocks w snapshot.Snapshot.block_map;
  W.line w "counters";
  for id = 0 to Block_map.block_count snapshot.Snapshot.block_map - 1 do
    W.line w "%d %d %d" id snapshot.Snapshot.use.(id)
      snapshot.Snapshot.taken.(id)
  done;
  W.line w "regions %d" (List.length snapshot.Snapshot.regions);
  List.iter
    (fun r ->
      W.line w "region %d %s %d" r.Region.id
        (match r.Region.kind with
        | Region.Trace -> "trace"
        | Region.Loop -> "loop")
        (Array.length r.Region.slots);
      Array.iteri
        (fun slot block ->
          W.line w "slot %d %d %d %d" slot block r.Region.frozen_use.(slot)
            r.Region.frozen_taken.(slot))
        r.Region.slots;
      let emit_edge tag e =
        W.line w "%s %d %d %c" tag e.Region.src e.Region.dst
          (role_to_char e.Region.role)
      in
      List.iter (emit_edge "edge") r.Region.edges;
      List.iter (emit_edge "back") r.Region.back_edges)
    snapshot.Snapshot.regions;
  W.contents w

(* A block or slot count, or a pc, larger than this is treated as
   corruption rather than handed to [Array.make] (a hostile header could
   otherwise ask for gigabytes or raise [Invalid_argument]). *)
let max_count = 1_000_000

let bounded r field v =
  if v > max_count then
    R.fail r field (Printf.sprintf "%d exceeds limit %d" v max_count);
  v

let read_block r =
  R.tagged r "block";
  let id = R.int r "block.id" in
  let start_pc = R.int r "block.start_pc" in
  let end_pc = bounded r "block.end_pc" (R.int r "block.end_pc") in
  let field = "block.terminator" in
  let terminator =
    match R.word r field with
    | "cond" ->
        let taken = R.int r field in
        Block_map.Cond { taken; fallthrough = R.int r field }
    | "goto" -> Block_map.Goto (R.int r field)
    | "call" ->
        let callee = R.int r field in
        Block_map.Call_to { callee; retsite = R.int r field }
    | "return" -> Block_map.Return
    | "stop" -> Block_map.Stop
    | "fall" -> Block_map.Fallthrough (R.int r field)
    | t -> R.fail r field ("bad terminator " ^ t)
  in
  { Block_map.id; start_pc; end_pc; size = end_pc - start_pc + 1; terminator }

let read_blocks r =
  R.tagged r magic;
  R.tagged r "blocks";
  let header = R.line_number r in
  let n = bounded r "blocks" (R.count r "blocks") in
  if R.word r "blocks" <> "entry" then R.fail r "blocks" "bad blocks header";
  let entry_block = R.int r "entry" in
  let blocks = List.init n (fun _ -> read_block r) in
  match Block_map.of_blocks ~entry_block blocks with
  | Ok bmap -> bmap
  | Error reason -> R.fail_at header "blocks" reason

let read_edge tag r =
  R.tagged r tag;
  let src = R.int r "edge.src" in
  let dst = R.int r "edge.dst" in
  let role =
    match R.word r "edge.role" with
    | "T" -> Region.Taken
    | "N" -> Region.Not_taken
    | "A" -> Region.Always
    | s -> R.fail r "edge.role" ("bad role " ^ s)
  in
  { Region.src; dst; role }

(* Everything after the block section. *)
let read_counts r bmap =
  let nblocks = Block_map.block_count bmap in
  R.tagged r "counters";
  let use = Array.make nblocks 0 and taken = Array.make nblocks 0 in
  for id = 0 to nblocks - 1 do
    R.next r "counter";
    let i = R.int r "counter.id" in
    if i <> id then
      R.fail r "counter.id"
        (Printf.sprintf "block id %d where %d belongs" i id);
    let u = R.int r "counter.use" in
    let t = R.int r "counter.taken" in
    if u < 0 then
      R.fail r "counter.use" (Printf.sprintf "negative counter %d" u);
    if t < 0 then
      R.fail r "counter.taken" (Printf.sprintf "negative counter %d" t);
    if t > u then
      R.fail r "counter.taken" (Printf.sprintf "taken %d exceeds use %d" t u);
    use.(id) <- u;
    taken.(id) <- t
  done;
  (* Ids key every region lookup downstream: with a duplicate, a lookup
     finds the wrong region and reads, or indexes past, its slots. *)
  let seen = Hashtbl.create 16 in
  let read_region r =
    R.tagged r "region";
    let line = R.line_number r in
    let id = R.int r "region.id" in
    if Hashtbl.mem seen id then
      R.fail r "region" (Printf.sprintf "duplicate region id %d" id);
    Hashtbl.add seen id ();
    let kind =
      match R.word r "region.kind" with
      | "trace" -> Region.Trace
      | "loop" -> Region.Loop
      | k -> R.fail r "region.kind" ("bad region kind " ^ k)
    in
    let nslots = bounded r "region.slots" (R.count r "region.slots") in
    let slots = Array.make nslots 0 in
    let frozen_use = Array.make nslots 0 in
    let frozen_taken = Array.make nslots 0 in
    for i = 0 to nslots - 1 do
      R.tagged r "slot";
      let slot = R.int r "slot.index" in
      if slot <> i then
        R.fail r "slot.index"
          (Printf.sprintf "slot %d out of order (expected %d)" slot i);
      let block = R.int r "slot.block" in
      if block < 0 || block >= nblocks then
        R.fail r "slot.block"
          (Printf.sprintf "block id %d out of range [0,%d)" block nblocks);
      let fu = R.int r "slot.frozen_use" in
      let ft = R.int r "slot.frozen_taken" in
      if fu < 0 || ft < 0 then R.fail r "slot" "negative frozen counter";
      slots.(i) <- block;
      frozen_use.(i) <- fu;
      frozen_taken.(i) <- ft
    done;
    (* edges until a non-edge line *)
    let rec edges es backs =
      match R.peek r with
      | Some "edge" -> edges (read_edge "edge" r :: es) backs
      | Some "back" -> edges es (read_edge "back" r :: backs)
      | _ -> (List.rev es, List.rev backs)
    in
    let edges, back_edges = edges [] [] in
    let region =
      { Region.id; kind; slots; edges; back_edges; frozen_use; frozen_taken }
    in
    match Region.validate region with
    | Ok () -> region
    | Error msg -> R.fail_at line "region" ("invalid region: " ^ msg)
  in
  let regions = R.list r "regions" read_region in
  R.eof r;
  { Snapshot.block_map = bmap; use; taken; regions }

let read r = read_counts r (read_blocks r)

let blocks_text bmap =
  let w = W.create () in
  write_blocks w bmap;
  W.contents w

let same_program (a : Snapshot.t) (b : Snapshot.t) =
  String.equal
    (blocks_text a.Snapshot.block_map)
    (blocks_text b.Snapshot.block_map)

(* Profiles of one program — a checkpoint's stages — repeat one block
   section: the first is parsed, every later one must match it byte for
   byte, and all share its block map. *)
let reader_sharing_blocks () =
  let first = ref None in
  fun r ->
    match !first with
    | None ->
        let bmap = read_blocks r in
        first := Some (blocks_text bmap, bmap);
        read_counts r bmap
    | Some (text, bmap) ->
        let line = R.line_number r + 1 in
        let n = 2 + Block_map.block_count bmap in
        if not (String.equal text (R.lines r "blocks" n)) then
          R.fail_at line "blocks" "differs from the first profile's";
        read_counts r bmap

let corrupt line field reason =
  Error (Error.Corrupt_profile { line; field; reason })

let of_string text =
  match R.run text read with
  | Ok s -> Ok s
  | Error { line; field; reason } -> corrupt line field reason

let save path snapshot =
  Durable.atomic_write path
    (Durable.seal ~magic:file_magic (to_string snapshot))

let load path =
  match Durable.read_file path with
  | exception Sys_error msg -> Error (Error.Io_error msg)
  | text -> (
      match Durable.unseal ~magic:file_magic text with
      | Durable.Valid payload -> (
          match R.run payload read with
          | Ok s -> Ok s
          (* payload line k is line k + 2 of the file *)
          | Error { line; field; reason } ->
              corrupt (if line = 0 then 0 else line + 2) field reason)
      | Durable.Stale_version line ->
          corrupt 1 "magic"
            (Printf.sprintf "stale profile version %S (this build reads %s)"
               line file_magic)
      | Durable.Corrupt reason -> corrupt 1 "frame" reason
      | Durable.Missing -> corrupt 1 "frame" "missing")
