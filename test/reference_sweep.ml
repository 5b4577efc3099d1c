(* An independent reference for the sweep byte-identity tests: every
   benchmark run in input order on the calling domain, with no
   scheduler and no store.  [Runner.run_sweep] at any job count, under
   any policy, must produce exactly this sweep. *)

module Runner = Tpdbt_experiments.Runner

let run ~thresholds benches =
  let results =
    List.map (fun b -> (b, Runner.run_benchmark_result ~thresholds b)) benches
  in
  {
    Runner.data =
      List.filter_map (function _, Ok d -> Some d | _, Error _ -> None) results;
    failures =
      List.filter_map
        (function
          | failed, Error error -> Some { Runner.failed; error }
          | _, Ok _ -> None)
        results;
  }
