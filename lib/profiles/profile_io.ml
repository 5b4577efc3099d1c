module Snapshot = Tpdbt_dbt.Snapshot
module Block_map = Tpdbt_dbt.Block_map
module Region = Tpdbt_dbt.Region
module Error = Tpdbt_dbt.Error

let magic = "TPDBT-PROFILE 1"

let term_to_string = function
  | Block_map.Cond { taken; fallthrough } ->
      Printf.sprintf "cond %d %d" taken fallthrough
  | Block_map.Goto b -> Printf.sprintf "goto %d" b
  | Block_map.Call_to { callee; retsite } ->
      Printf.sprintf "call %d %d" callee retsite
  | Block_map.Return -> "return"
  | Block_map.Stop -> "stop"
  | Block_map.Fallthrough b -> Printf.sprintf "fall %d" b

let term_of_words = function
  | [ "cond"; a; b ] -> (
      match (int_of_string_opt a, int_of_string_opt b) with
      | Some taken, Some fallthrough -> Ok (Block_map.Cond { taken; fallthrough })
      | _ -> Error "bad cond")
  | [ "goto"; a ] -> (
      match int_of_string_opt a with
      | Some b -> Ok (Block_map.Goto b)
      | None -> Error "bad goto")
  | [ "call"; a; b ] -> (
      match (int_of_string_opt a, int_of_string_opt b) with
      | Some callee, Some retsite -> Ok (Block_map.Call_to { callee; retsite })
      | _ -> Error "bad call")
  | [ "return" ] -> Ok Block_map.Return
  | [ "stop" ] -> Ok Block_map.Stop
  | [ "fall"; a ] -> (
      match int_of_string_opt a with
      | Some b -> Ok (Block_map.Fallthrough b)
      | None -> Error "bad fall")
  | _ -> Error "bad terminator"

let role_to_char = function
  | Region.Taken -> 'T'
  | Region.Not_taken -> 'N'
  | Region.Always -> 'A'

let role_of_string = function
  | "T" -> Ok Region.Taken
  | "N" -> Ok Region.Not_taken
  | "A" -> Ok Region.Always
  | s -> Error ("bad role " ^ s)

let to_string (snapshot : Snapshot.t) =
  let buf = Buffer.create 4096 in
  let bmap = snapshot.Snapshot.block_map in
  let n = Block_map.block_count bmap in
  Buffer.add_string buf (magic ^ "\n");
  Buffer.add_string buf
    (Printf.sprintf "blocks %d entry %d\n" n (Block_map.entry_block bmap));
  for id = 0 to n - 1 do
    let b = Block_map.block bmap id in
    Buffer.add_string buf
      (Printf.sprintf "block %d %d %d %s\n" id b.Block_map.start_pc
         b.Block_map.end_pc
         (term_to_string b.Block_map.terminator))
  done;
  Buffer.add_string buf "counters\n";
  for id = 0 to n - 1 do
    Buffer.add_string buf
      (Printf.sprintf "%d %d %d\n" id snapshot.Snapshot.use.(id)
         snapshot.Snapshot.taken.(id))
  done;
  Buffer.add_string buf
    (Printf.sprintf "regions %d\n" (List.length snapshot.Snapshot.regions));
  List.iter
    (fun r ->
      let kind = match r.Region.kind with Region.Trace -> "trace" | Region.Loop -> "loop" in
      Buffer.add_string buf
        (Printf.sprintf "region %d %s %d\n" r.Region.id kind
           (Array.length r.Region.slots));
      Array.iteri
        (fun slot block ->
          Buffer.add_string buf
            (Printf.sprintf "slot %d %d %d %d\n" slot block
               r.Region.frozen_use.(slot) r.Region.frozen_taken.(slot)))
        r.Region.slots;
      let emit_edge tag e =
        Buffer.add_string buf
          (Printf.sprintf "%s %d %d %c\n" tag e.Region.src e.Region.dst
             (role_to_char e.Region.role))
      in
      List.iter (emit_edge "edge") r.Region.edges;
      List.iter (emit_edge "back") r.Region.back_edges)
    snapshot.Snapshot.regions;
  Buffer.contents buf

exception Bad of Error.t

(* A counter / block / region count larger than this is treated as
   corruption rather than handed to [Array.make] (a hostile header could
   otherwise ask for gigabytes or raise [Invalid_argument]). *)
let max_count = 1_000_000

let of_string text =
  (* Lines carry their 1-based position in the original text so errors
     point at the offending line; blank lines are skipped but keep the
     numbering.  Line 0 means "at end of file". *)
  let lines =
    String.split_on_char '\n' text
    |> List.mapi (fun i l -> (i + 1, String.trim l))
    |> List.filter (fun (_, l) -> l <> "")
  in
  let fail ~line ~field reason =
    raise (Bad (Error.Corrupt_profile { line; field; reason }))
  in
  let int_exn ~line ~field s =
    match int_of_string_opt s with
    | Some v -> v
    | None -> fail ~line ~field ("not an integer: " ^ s)
  in
  let count_exn ~line ~field s =
    let v = int_exn ~line ~field s in
    if v < 0 then fail ~line ~field (Printf.sprintf "negative count %d" v);
    if v > max_count then
      fail ~line ~field (Printf.sprintf "count %d exceeds limit %d" v max_count);
    v
  in
  let eol_line rest = match rest with [] -> 0 | (line, _) :: _ -> line in
  try
    match lines with
    | (_, header) :: rest when header = magic -> (
        match rest with
        | (bline, blocks_line) :: rest ->
            let nblocks, entry =
              match String.split_on_char ' ' blocks_line with
              | [ "blocks"; n; "entry"; e ] ->
                  ( count_exn ~line:bline ~field:"blocks" n,
                    int_exn ~line:bline ~field:"entry" e )
              | _ -> fail ~line:bline ~field:"blocks" "bad blocks header"
            in
            (* blocks *)
            let rec read_blocks i acc rest =
              if i = nblocks then (List.rev acc, rest)
              else
                match rest with
                | (line, text) :: rest -> (
                    match String.split_on_char ' ' text with
                    | "block" :: id :: start_pc :: end_pc :: term_words ->
                        let id = int_exn ~line ~field:"block.id" id in
                        let start_pc =
                          int_exn ~line ~field:"block.start_pc" start_pc
                        in
                        let end_pc = int_exn ~line ~field:"block.end_pc" end_pc in
                        let terminator =
                          match term_of_words term_words with
                          | Ok t -> t
                          | Error msg -> fail ~line ~field:"block.terminator" msg
                        in
                        let b =
                          {
                            Block_map.id;
                            start_pc;
                            end_pc;
                            size = end_pc - start_pc + 1;
                            terminator;
                          }
                        in
                        read_blocks (i + 1) (b :: acc) rest
                    | _ -> fail ~line ~field:"block" "expected block line")
                | [] ->
                    fail ~line:0 ~field:"block"
                      (Printf.sprintf "truncated: %d of %d blocks" i nblocks)
            in
            let blocks, rest = read_blocks 0 [] rest in
            let bmap =
              match Block_map.of_blocks ~entry_block:entry blocks with
              | Ok m -> m
              | Error msg -> fail ~line:bline ~field:"blocks" msg
            in
            (* counters *)
            let rest =
              match rest with
              | (_, "counters") :: rest -> rest
              | _ ->
                  fail ~line:(eol_line rest) ~field:"counters"
                    "expected counters header"
            in
            let use = Array.make nblocks 0 and taken = Array.make nblocks 0 in
            let rec read_counters i rest =
              if i = nblocks then rest
              else
                match rest with
                | (line, text) :: rest -> (
                    match String.split_on_char ' ' text with
                    | [ id; u; t ] ->
                        let id = int_exn ~line ~field:"counter.id" id in
                        if id < 0 || id >= nblocks then
                          fail ~line ~field:"counter.id"
                            (Printf.sprintf "block id %d out of range [0,%d)" id
                               nblocks);
                        let u = int_exn ~line ~field:"counter.use" u in
                        let t = int_exn ~line ~field:"counter.taken" t in
                        if u < 0 then
                          fail ~line ~field:"counter.use"
                            (Printf.sprintf "negative counter %d" u);
                        if t < 0 then
                          fail ~line ~field:"counter.taken"
                            (Printf.sprintf "negative counter %d" t);
                        if t > u then
                          fail ~line ~field:"counter.taken"
                            (Printf.sprintf "taken %d exceeds use %d" t u);
                        use.(id) <- u;
                        taken.(id) <- t;
                        read_counters (i + 1) rest
                    | _ -> fail ~line ~field:"counter" "bad counter line")
                | [] ->
                    fail ~line:0 ~field:"counter"
                      (Printf.sprintf "truncated: %d of %d counters" i nblocks)
            in
            let rest = read_counters 0 rest in
            (* regions *)
            let nregions, rest =
              match rest with
              | (line, text) :: rest -> (
                  match String.split_on_char ' ' text with
                  | [ "regions"; n ] ->
                      (count_exn ~line ~field:"regions" n, rest)
                  | _ -> fail ~line ~field:"regions" "expected regions header")
              | [] -> fail ~line:0 ~field:"regions" "truncated before regions"
            in
            (* Ids key every region lookup downstream: with a duplicate,
               a lookup finds the wrong region and reads, or indexes
               past, its slots. *)
            let seen = Hashtbl.create 16 in
            let read_region rest =
              match rest with
              | (rline, text) :: rest -> (
                  match String.split_on_char ' ' text with
                  | [ "region"; id; kind; nslots ] ->
                      let id = int_exn ~line:rline ~field:"region.id" id in
                      if Hashtbl.mem seen id then
                        fail ~line:rline ~field:"region"
                          (Printf.sprintf "duplicate region id %d" id);
                      Hashtbl.add seen id ();
                      let kind =
                        match kind with
                        | "trace" -> Region.Trace
                        | "loop" -> Region.Loop
                        | k ->
                            fail ~line:rline ~field:"region.kind"
                              ("bad region kind " ^ k)
                      in
                      let nslots =
                        count_exn ~line:rline ~field:"region.slots" nslots
                      in
                      let slots = Array.make nslots 0 in
                      let frozen_use = Array.make nslots 0 in
                      let frozen_taken = Array.make nslots 0 in
                      let rec read_slots i rest =
                        if i = nslots then rest
                        else
                          match rest with
                          | (line, text) :: rest -> (
                              match String.split_on_char ' ' text with
                              | [ "slot"; slot; block; fu; ft ] ->
                                  let slot =
                                    int_exn ~line ~field:"slot.index" slot
                                  in
                                  if slot <> i then
                                    fail ~line ~field:"slot.index"
                                      (Printf.sprintf "slot %d out of order \
                                                       (expected %d)"
                                         slot i);
                                  let block =
                                    int_exn ~line ~field:"slot.block" block
                                  in
                                  if block < 0 || block >= nblocks then
                                    fail ~line ~field:"slot.block"
                                      (Printf.sprintf
                                         "block id %d out of range [0,%d)"
                                         block nblocks);
                                  let fu =
                                    int_exn ~line ~field:"slot.frozen_use" fu
                                  in
                                  let ft =
                                    int_exn ~line ~field:"slot.frozen_taken" ft
                                  in
                                  if fu < 0 || ft < 0 then
                                    fail ~line ~field:"slot"
                                      "negative frozen counter";
                                  slots.(i) <- block;
                                  frozen_use.(i) <- fu;
                                  frozen_taken.(i) <- ft;
                                  read_slots (i + 1) rest
                              | _ -> fail ~line ~field:"slot" "bad slot line")
                          | [] ->
                              fail ~line:0 ~field:"slot"
                                (Printf.sprintf "truncated: %d of %d slots" i
                                   nslots)
                      in
                      let rest = read_slots 0 rest in
                      (* edges until a non-edge line *)
                      let rec read_edges edges backs rest =
                        match rest with
                        | (line, text) :: tail -> (
                            match String.split_on_char ' ' text with
                            | [ ("edge" | "back") as tag; src; dst; role ] ->
                                let e =
                                  {
                                    Region.src =
                                      int_exn ~line ~field:"edge.src" src;
                                    dst = int_exn ~line ~field:"edge.dst" dst;
                                    role =
                                      (match role_of_string role with
                                      | Ok r -> r
                                      | Error msg ->
                                          fail ~line ~field:"edge.role" msg);
                                  }
                                in
                                if tag = "edge" then
                                  read_edges (e :: edges) backs tail
                                else read_edges edges (e :: backs) tail
                            | _ -> (List.rev edges, List.rev backs, rest))
                        | [] -> (List.rev edges, List.rev backs, [])
                      in
                      let edges, back_edges, rest = read_edges [] [] rest in
                      let region =
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
                      (match Region.validate region with
                      | Ok () -> ()
                      | Error msg ->
                          fail ~line:rline ~field:"region"
                            ("invalid region: " ^ msg));
                      (region, rest)
                  | _ -> fail ~line:rline ~field:"region" "expected region line")
              | [] -> fail ~line:0 ~field:"region" "truncated regions"
            in
            let rec read_regions i acc rest =
              if i = nregions then (List.rev acc, rest)
              else
                let region, rest = read_region rest in
                read_regions (i + 1) (region :: acc) rest
            in
            let regions, rest = read_regions 0 [] rest in
            (match rest with
            | [] -> ()
            | (line, _) :: _ -> fail ~line ~field:"trailer" "trailing garbage");
            Ok { Snapshot.block_map = bmap; use; taken; regions }
        | [] ->
            Error (Error.Corrupt_profile
                     { line = 0; field = "blocks"; reason = "empty profile" }))
    | (line, _) :: _ ->
        Error (Error.Corrupt_profile
                 { line; field = "magic"; reason = "bad magic" })
    | [] ->
        Error (Error.Corrupt_profile
                 { line = 0; field = "magic"; reason = "empty file" })
  with Bad err -> Error err

let save path snapshot =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string snapshot))

let load path =
  match Tpdbt_durable.Durable.read_file path with
  | exception Sys_error msg -> Error (Error.Io_error msg)
  | text -> of_string text
