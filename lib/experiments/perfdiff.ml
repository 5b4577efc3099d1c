module Json = Tpdbt_telemetry.Json

type verdict = Regression | Improvement | Within

(* The judged metric: allocated words per guest instruction, a property
   of the compiled code, so it reads the same on every run. *)
let metric = "alloc_per_instr"

type delta = {
  bench : string;
  older : float;
  newer : float;
  change : float;  (** fractional: [(newer - older) /. older] *)
  verdict : verdict;
}

type report = {
  tolerance : float;
  deltas : delta list;
  missing : string list;  (** benches in the old file only *)
  added : string list;  (** benches in the new file only *)
  host_note : string option;
      (** set when the two files carry different host metadata *)
}

let judge ~tolerance ~older ~newer =
  let change =
    if Float.abs older > 1e-12 then (newer -. older) /. older
    else if Float.abs newer > 1e-12 then 1.0
    else 0.0
  in
  let verdict =
    if Float.abs change <= tolerance then Within
    else if change > 0.0 then Regression
    else Improvement
  in
  (change, verdict)

(* ---- reading BENCH_perf.json ------------------------------------------ *)

let ( let* ) = Result.bind

let bench_rows doc =
  match Option.bind (Json.member "benches" doc) Json.as_list with
  | None -> Error "no \"benches\" array"
  | Some rows ->
      let rec walk acc = function
        | [] -> Ok (List.rev acc)
        | row :: tl -> (
            match
              ( Option.bind (Json.member "name" row) Json.as_string,
                Option.bind (Json.member metric row) Json.as_number )
            with
            | None, _ -> Error "bench row lacks string \"name\""
            | Some _, None ->
                Error (Printf.sprintf "bench row lacks numeric %S" metric)
            | Some name, Some v -> walk ((name, v) :: acc) tl)
      in
      walk [] rows

(* The host stanza is load-bearing: a BENCH file that does not say what
   machine and compiler it came from cannot be judged.  Missing or
   non-object [host] is a validation error (CLI exit 2), not a silent
   "hosts match". *)
let host_string doc =
  match Json.member "host" doc with
  | Some (Json.Obj members) ->
      Ok
        (String.concat ";"
           (List.filter_map
              (fun (k, v) ->
                match v with
                | Json.Num n -> Some (Printf.sprintf "%s=%.17g" k n)
                | Json.Str s -> Some (Printf.sprintf "%s=%s" k s)
                | Json.Bool b -> Some (Printf.sprintf "%s=%b" k b)
                | _ -> None)
              members))
  | Some _ -> Error "\"host\" is not an object"
  | None -> Error "no \"host\" object"

let of_strings ~tolerance old_s new_s =
  let read label s =
    Result.map_error
      (fun e -> label ^ " file: " ^ e)
      (let* doc = Json.parse s in
       let* host = host_string doc in
       let* rows = bench_rows doc in
       Ok (host, rows))
  in
  let* oh, old_rows = read "old" old_s in
  let* nh, new_rows = read "new" new_s in
  let deltas =
    List.filter_map
      (fun (bench, older) ->
        Option.map
          (fun newer ->
            let change, verdict = judge ~tolerance ~older ~newer in
            { bench; older; newer; change; verdict })
          (List.assoc_opt bench new_rows))
      old_rows
  in
  let only_in rows others =
    List.filter_map
      (fun (b, _) -> if List.mem_assoc b others then None else Some b)
      rows
  in
  let host_note =
    if oh <> nh then
      Some (Printf.sprintf "hosts differ: old [%s] vs new [%s]" oh nh)
    else None
  in
  Ok
    {
      tolerance;
      deltas;
      missing = only_in old_rows new_rows;
      added = only_in new_rows old_rows;
      host_note;
    }

let regressions r =
  List.filter (fun d -> d.verdict = Regression) r.deltas

let verdict_name = function
  | Regression -> "REGRESSION"
  | Improvement -> "improvement"
  | Within -> "ok"

let render r =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "perfdiff %s (tolerance %.1f%%):\n" metric
       (100.0 *. r.tolerance));
  Buffer.add_string buf
    "  bench                 old           new      change  verdict\n";
  List.iter
    (fun d ->
      Buffer.add_string buf
        (Printf.sprintf "  %-12s %12.4g  %12.4g  %+9.2f%%  %s\n" d.bench
           d.older d.newer (100.0 *. d.change) (verdict_name d.verdict)))
    r.deltas;
  List.iter
    (fun b ->
      Buffer.add_string buf (Printf.sprintf "  %-12s missing from new file\n" b))
    r.missing;
  List.iter
    (fun b ->
      Buffer.add_string buf (Printf.sprintf "  %-12s new bench (no baseline)\n" b))
    r.added;
  (match r.host_note with
  | Some note -> Buffer.add_string buf ("  note: " ^ note ^ "\n")
  | None -> ());
  let n = List.length (regressions r) in
  Buffer.add_string buf
    (if n = 0 then "  no regressions\n"
     else Printf.sprintf "  %d regression(s)\n" n);
  Buffer.contents buf
