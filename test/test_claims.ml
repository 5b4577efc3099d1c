(* Every "Reproduction summary" verdict of EXPERIMENTS.md, decided on
   the committed full-length tables in results/ ([make figures-check]
   ties those files to a fresh run).  The golden bytes say that a number
   moved; these checks say whether the moved tables still reproduce the
   paper — or, for a row recorded as not reproduced, still fail to.
   Each check names the summary row it decides. *)

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

let thresholds = up_to "160k" @ [ "1M"; "4M" ]

let test_fp_inip_against_train () =
  let row = "FP: INIP(500) ≥ train accuracy" in
  let train = cell "fig8" "fp" "train" in
  let sd t = cell "fig8" "fp" t in
  claim row
    (Printf.sprintf "FP Sd.BP(500) %f above Sd.BP(train) %f" (sd "500") train)
    (sd "500" > train);
  List.iter
    (fun t ->
      claim row
        (Printf.sprintf "FP Sd.BP(%s) %f below Sd.BP(train) %f" t (sd t) train)
        (sd t < train))
    (List.filter (fun t -> not (List.mem t (up_to "500"))) thresholds);
  let train = cell "fig10" "fp" "train" in
  List.iter
    (fun t ->
      let v = cell "fig10" "fp" t in
      claim row
        (Printf.sprintf "FP BP mismatch at %s is %f > train's %f" t v train)
        (v > train))
    (up_to "160k");
  List.iter
    (fun t ->
      let v = cell "fig10" "fp" t in
      claim row (Printf.sprintf "FP BP mismatch at %s is %f = 0" t v) (v = 0.0))
    [ "1M"; "4M" ]

let test_train_costs_like_late_inip () =
  let row = "Training run ≈ INIP(1M+) profiling cost" in
  List.iter
    (fun r ->
      List.iter
        (fun t ->
          let v = cell "fig18" r t in
          claim row (Printf.sprintf "%s INIP(%s) costs %f < 1.0" r t v) (v < 1.0))
        thresholds;
      List.iter
        (fun t ->
          let v = cell "fig18" r t in
          claim row (Printf.sprintf "%s INIP(%s) costs %f < 0.1" r t v) (v < 0.1))
        (up_to "160k");
      let v = cell "fig18" r "4M" in
      claim row (Printf.sprintf "%s INIP(4M) costs %f >= 0.5" r v) (v >= 0.5))
    [ "int"; "fp" ];
  let v = cell "fig18" "int" "4M" in
  claim row (Printf.sprintf "INT INIP(4M) costs %f >= 0.9" v) (v >= 0.9)

let test_mcf_gzip_phases () =
  let row = "Mcf/Gzip phase behaviour defeats every threshold" in
  let above bench ts =
    let train = cell "fig9" bench "train" in
    List.iter
      (fun t ->
        let v = cell "fig9" bench t in
        claim row
          (Printf.sprintf "%s Sd.BP(%s) %f above train's %f" bench t v train)
          (v > train))
      ts
  in
  above "mcf" thresholds;
  above "gzip" (up_to "160k");
  (* The generator plants gzip's last drift so late that only the 1M
     and 4M thresholds capture it. *)
  let train = cell "fig9" "gzip" "train" in
  List.iter
    (fun t ->
      let v = cell "fig9" "gzip" t in
      claim row
        (Printf.sprintf "gzip Sd.BP(%s) %f below train's %f" t v train)
        (v < train))
    [ "1M"; "4M" ]

let test_perlbmk_train_useless () =
  let row = "Perlbmk: train useless, INIP excellent" in
  let train = cell "fig11" "perlbmk" "train" in
  claim row (Printf.sprintf "Perlbmk train mismatch %f >= 0.5" train)
    (train >= 0.5);
  List.iter
    (fun t ->
      let v = cell "fig11" "perlbmk" t in
      claim row (Printf.sprintf "Perlbmk INIP(%s) mismatch %f <= 0.11" t v)
        (v <= 0.11))
    thresholds;
  List.iter
    (fun t ->
      let v = cell "fig11" "perlbmk" t in
      claim row (Printf.sprintf "Perlbmk INIP(%s) mismatch %f = 0" t v)
        (v = 0.0))
    (List.filter (fun t -> not (List.mem t (up_to "1k"))) thresholds);
  let train = cell "fig9" "perlbmk" "train" in
  List.iter
    (fun t ->
      let v = cell "fig9" "perlbmk" t in
      claim row
        (Printf.sprintf "Perlbmk Sd.BP(%s) %f below train's %f" t v train)
        (v < train))
    thresholds

(* Recorded as not reproduced: FP Sd.LP is not noticeably above FP
   Sd.BP.  The check fails if that changes, so the row gets rewritten. *)
let test_fp_lp_not_above_bp () =
  let row = "FP LP noticeably above FP BP" in
  let above =
    List.filter (fun t -> cell "fig14" "fp" t > cell "fig8" "fp" t) thresholds
  in
  claim row
    (Printf.sprintf "FP Sd.LP above Sd.BP at %d of %d thresholds (%s), < half"
       (List.length above) (List.length thresholds) (String.concat " " above))
    (2 * List.length above < List.length thresholds);
  List.iter
    (fun t ->
      let lp = cell "fig14" "fp" t and bp = cell "fig8" "fp" t in
      claim row
        (Printf.sprintf "FP Sd.LP(%s) %f exceeds Sd.BP %f by < 0.002" t lp bp)
        (lp -. bp < 0.002))
    thresholds

(* Recorded as not reproduced: our INT gain is a third of the paper's
   18%, and Perlbmk does not carry it. *)
let test_fig17_magnitudes () =
  let row = "Fig 17 magnitudes (18% INT, Perlbmk dominant)" in
  let peak r =
    List.fold_left (fun m (_, v) -> max m v) neg_infinity
      (List.assoc r (table "fig17"))
  in
  let int = peak "int" and no_perl = peak "int no perl" in
  claim row (Printf.sprintf "INT peak gain %f < 10%%" (int -. 1.0))
    (int -. 1.0 < 0.10);
  claim row
    (Printf.sprintf "INT peak %f within 0.01 of the no-Perlbmk peak %f" int
       no_perl)
    (abs_float (int -. no_perl) < 0.01)

let suite =
  [
    ("INT Sd.BP(2k) matches train", `Quick, test_int_2k_matches_train);
    ("INIP(500-2k) under 1% of train", `Quick, test_early_inip_is_cheap);
    ("Fig 17 INT peaks early", `Quick, test_fig17_peaks_early);
    ("INT trip counts settle late", `Quick, test_int_trip_counts_late);
    ("Wupwise mismatch until 1M", `Quick, test_wupwise_until_1m);
    ("INT Sd.CP above Sd.BP", `Quick, test_int_cp_harder_than_bp);
    ("FP INIP against train", `Quick, test_fp_inip_against_train);
    ("train costs like INIP(1M+)", `Quick, test_train_costs_like_late_inip);
    ("Mcf and Gzip phases", `Quick, test_mcf_gzip_phases);
    ("Perlbmk train useless", `Quick, test_perlbmk_train_useless);
    ("FP Sd.LP not above Sd.BP", `Quick, test_fp_lp_not_above_bp);
    ("Fig 17 magnitudes not reproduced", `Quick, test_fig17_magnitudes);
  ]
