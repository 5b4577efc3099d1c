let () =
  Alcotest.run "tpdbt"
    [
      ("isa", Test_isa.suite);
      ("vm", Test_vm.suite);
      ("cfg", Test_cfg.suite);
      ("numerics", Test_numerics.suite);
      ("dbt", Test_dbt.suite);
      ("profiles", Test_profiles.suite);
      ("paper-examples", Test_paper_examples.suite);
      ("workloads", Test_workloads.suite);
      ("experiments", Test_experiments.suite);
      ("faults", Test_faults.suite);
      ("cache", Test_cache.suite);
      ("integration", Test_integration.suite);
      ("telemetry", Test_telemetry.suite);
      ("profiling", Test_profiling.suite);
      ("parallel", Test_parallel.suite);
      ("robustness", Test_robustness.suite);
      ("snapshots", Test_snapshots.suite);
      ("durable", Test_durable.suite);
      ("serve", Test_serve.suite);
      ("fuzz", Test_fuzz.suite);
      ("hotpath", Test_hotpath.suite);
    ]
