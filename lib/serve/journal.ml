module Durable = Tpdbt_durable.Durable

let magic = "TPDBT-JRNL 1"

type record =
  | Sweep_begin of { id : int; benches : string list }
  | Snapshot_ref of { id : int; bench : string }
  | Sweep_end of { id : int }
  | Drained

type recovery = {
  records : int;
  torn : int;
  inflight : (int * string list) list;
  snapshot_refs : (int * string) list;
}

type t = { oc : out_channel }

let record_to_string = function
  | Sweep_begin { id; benches } ->
      Printf.sprintf "sweep_begin %d %d%s" id (List.length benches)
        (String.concat "" (List.map (fun b -> " " ^ b) benches))
  | Snapshot_ref { id; bench } -> Printf.sprintf "snapshot_ref %d %s" id bench
  | Sweep_end { id } -> Printf.sprintf "sweep_end %d" id
  | Drained -> "drained"

let record_of_string s =
  match String.split_on_char ' ' s with
  | "sweep_begin" :: id :: n :: benches -> (
      match (int_of_string_opt id, int_of_string_opt n) with
      | Some id, Some n
        when n = List.length benches
             && List.for_all (fun b -> b <> "") benches ->
          Some (Sweep_begin { id; benches })
      | _ -> None)
  | [ "snapshot_ref"; id; bench ] when bench <> "" ->
      Option.map (fun id -> Snapshot_ref { id; bench }) (int_of_string_opt id)
  | [ "sweep_end"; id ] ->
      Option.map (fun id -> Sweep_end { id }) (int_of_string_opt id)
  | [ "drained" ] -> Some Drained
  | _ -> None

let frame_record r =
  let payload = record_to_string r in
  Printf.sprintf "R %s %d %s\n" (Durable.crc_hex payload)
    (String.length payload) payload

(* One framed line -> record, or None on any damage. *)
let parse_line line =
  match String.index_opt line ' ' with
  | Some 1 when line.[0] = 'R' -> (
      match String.split_on_char ' ' line with
      | "R" :: crc :: len :: rest -> (
          let payload = String.concat " " rest in
          match int_of_string_opt len with
          | Some n
            when n = String.length payload
                 && String.equal (Durable.crc_hex payload) crc ->
              record_of_string payload
          | _ -> None)
      | _ -> None)
  | _ -> None

(* Scan the file text: return (good_prefix_length, records, inflight).
   Stops at the first damaged line; everything after it is torn. *)
let scan text =
  let header_len = String.length magic + 1 in
  if
    String.length text < header_len
    || not (String.equal (String.sub text 0 header_len) (magic ^ "\n"))
  then None
  else begin
    let inflight = Hashtbl.create 8 in
    let order = ref [] in
    let refs = ref [] in
    let records = ref 0 in
    let pos = ref header_len in
    let good = ref header_len in
    let damaged = ref false in
    while (not !damaged) && !pos < String.length text do
      match String.index_from_opt text !pos '\n' with
      | None -> damaged := true (* torn final append: no newline *)
      | Some i -> (
          let line = String.sub text !pos (i - !pos) in
          match parse_line line with
          | None -> damaged := true
          | Some r ->
              incr records;
              (match r with
              | Sweep_begin { id; benches } ->
                  Hashtbl.replace inflight id benches;
                  order := id :: !order
              | Snapshot_ref { id; bench } -> refs := (id, bench) :: !refs
              | Sweep_end { id } ->
                  Hashtbl.remove inflight id;
                  refs := List.filter (fun (i, _) -> i <> id) !refs
              | Drained ->
                  Hashtbl.reset inflight;
                  order := [];
                  refs := []);
              pos := i + 1;
              good := !pos)
    done;
    let inflight_list =
      List.rev !order
      |> List.filter_map (fun id ->
             match Hashtbl.find_opt inflight id with
             | Some benches ->
                 (* A re-begun id keeps one entry: drop later dups. *)
                 Hashtbl.remove inflight id;
                 Some (id, benches)
             | None -> None)
    in
    (* Surviving refs point at mid-run snapshots of still-in-flight
       sweeps; a bench may appear several times (one ref per snapshot
       saved) — keep the set, in first-ref order. *)
    let snapshot_refs =
      List.fold_left
        (fun acc (id, bench) ->
          if List.mem (id, bench) acc then acc else (id, bench) :: acc)
        []
        (List.rev !refs)
      |> List.rev
    in
    Some (!good, !records, inflight_list, snapshot_refs, !damaged)
  end

let open_ ~path =
  let append () =
    { oc = open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path }
  in
  let fresh ~torn =
    Durable.atomic_write path (magic ^ "\n");
    (append (), { records = 0; torn; inflight = []; snapshot_refs = [] })
  in
  if not (Sys.file_exists path) then fresh ~torn:0
  else
    match scan (Durable.read_file path) with
    | None ->
        (* Unrecognised header: the file is not ours (or is damaged
           beyond its first line).  Crash-only: start over. *)
        fresh ~torn:1
    | Some (good, records, inflight, snapshot_refs, damaged) ->
        if damaged then Unix.truncate path good;
        ( append (),
          {
            records;
            torn = (if damaged then 1 else 0);
            inflight;
            snapshot_refs;
          } )

let append t r =
  output_string t.oc (frame_record r);
  flush t.oc;
  Unix.fsync (Unix.descr_of_out_channel t.oc)

let close t = close_out t.oc
