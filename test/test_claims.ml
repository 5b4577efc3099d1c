(* The "Reproduction summary" verdicts of EXPERIMENTS.md, decided on the
   committed full-length tables in results/ ([make figures-check] ties
   those files to a fresh run).  The golden bytes say that a number
   moved; these checks say whether the moved tables still reproduce the
   paper.  Each check names the summary row it decides. *)

let results = Filename.concat ".." "results"

(* [(row name, [(column label, value)])] of a results/figN.csv: a title
   line, a header line of column labels, then one line per row. *)
let table fig =
  let path = Filename.concat results (fig ^ ".csv") in
  match String.split_on_char '\n' (Tpdbt_durable.Durable.read_file path) with
  | _title :: header :: rows ->
      let labels = List.tl (String.split_on_char ',' header) in
      List.filter_map
        (fun line ->
          match String.split_on_char ',' line with
          | [ "" ] | [] -> None
          | name :: cells ->
              Some (name, List.combine labels (List.map float_of_string cells)))
        rows
  | _ -> Alcotest.failf "%s: no header" path

let cell fig row column =
  match List.assoc_opt row (table fig) with
  | None -> Alcotest.failf "%s has no row %s" fig row
  | Some cells -> (
      match List.assoc_opt column cells with
      | Some v -> v
      | None -> Alcotest.failf "%s has no column %s" fig column)

let up_to last =
  let ts =
    [ "100"; "200"; "500"; "1k"; "2k"; "5k"; "10k"; "20k"; "40k"; "80k"; "160k" ]
  in
  let rec take = function
    | [] -> []
    | t :: rest -> if t = last then [ t ] else t :: take rest
  in
  take ts

let claim summary_row what holds =
  if not holds then
    Alcotest.failf "EXPERIMENTS.md row \"%s\" no longer holds: %s" summary_row what

let test_int_2k_matches_train () =
  let t2k = cell "fig8" "int" "2k" and train = cell "fig8" "int" "train" in
  claim "INT: INIP(2k) ≈ INIP(train) accuracy"
    (Printf.sprintf "INT Sd.BP(2k) %f within 1%% of Sd.BP(train) %f" t2k train)
    (abs_float (t2k -. train) <= 0.01 *. train)

let test_early_inip_is_cheap () =
  List.iter
    (fun row ->
      List.iter
        (fun t ->
          let ops = cell "fig18" row t in
          claim "INIP(500–2k) costs <1% of a training run"
            (Printf.sprintf "%s INIP(%s) profiling operations %f of train's < 0.01"
               row t ops)
            (ops < 0.01))
        [ "500"; "1k"; "2k" ])
    [ "int"; "fp" ]

let test_fig17_peaks_early () =
  let row = List.assoc "int" (table "fig17") in
  let peak, _ =
    List.fold_left
      (fun (best, v) (t, x) -> if x > v then (t, x) else (best, v))
      ("", neg_infinity) row
  in
  claim "Fig 17: optimise early beats accurate-but-late"
    (Printf.sprintf "INT peak at %s inside 500-10k" peak)
    (List.mem peak [ "500"; "1k"; "2k"; "5k"; "10k" ]);
  List.iter
    (fun t ->
      let v = cell "fig17" "int" t in
      claim "Fig 17: optimise early beats accurate-but-late"
        (Printf.sprintf "INT relative performance at %s is %f < 1.0" t v)
        (v < 1.0))
    [ "1M"; "4M" ]

let test_int_trip_counts_late () =
  let row = "Loop trip counts unpredictable for INT until ~160k" in
  List.iter
    (fun t ->
      let v = cell "fig15" "int" t in
      claim row (Printf.sprintf "INT loop-back mismatch at %s is %f >= 0.15" t v)
        (v >= 0.15))
    (up_to "40k");
  List.iter
    (fun t ->
      let v = cell "fig15" "int" t in
      claim row (Printf.sprintf "INT loop-back mismatch at %s is %f <= 0.05" t v)
        (v <= 0.05))
    [ "80k"; "160k" ]

let test_wupwise_until_1m () =
  let row = "Wupwise mismatch until 1M" in
  List.iter
    (fun t ->
      let v = cell "fig12" "wupwise" t in
      claim row (Printf.sprintf "Wupwise BP mismatch at %s is %f >= 0.1" t v)
        (v >= 0.1))
    (up_to "160k");
  List.iter
    (fun t ->
      let v = cell "fig12" "wupwise" t in
      claim row (Printf.sprintf "Wupwise BP mismatch at %s is %f = 0" t v)
        (v = 0.0))
    [ "1M"; "4M" ]

let test_int_cp_harder_than_bp () =
  List.iter
    (fun t ->
      let cp = cell "fig13" "int" t and bp = cell "fig8" "int" t in
      claim "CP harder than BP for INT"
        (Printf.sprintf "INT Sd.CP(%s) %f > Sd.BP(%s) %f" t cp t bp)
        (cp > bp))
    (up_to "10k")

let suite =
  [
    ("INT Sd.BP(2k) matches train", `Quick, test_int_2k_matches_train);
    ("INIP(500-2k) under 1% of train", `Quick, test_early_inip_is_cheap);
    ("Fig 17 INT peaks early", `Quick, test_fig17_peaks_early);
    ("INT trip counts settle late", `Quick, test_int_trip_counts_late);
    ("Wupwise mismatch until 1M", `Quick, test_wupwise_until_1m);
    ("INT Sd.CP above Sd.BP", `Quick, test_int_cp_harder_than_bp);
  ]
