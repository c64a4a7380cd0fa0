(* Aggregated test runner: `dune runtest`. *)

let () =
  Alcotest.run "tft_rvf"
    [
      ("linalg", Test_linalg.suite);
      ("exec", Test_exec.suite);
      ("signal", Test_signal.suite);
      ("circuit", Test_circuit.suite);
      ("engine", Test_engine.suite);
      ("tft", Test_tft.suite);
      ("estimator", Test_estimator.suite);
      ("vf", Test_vf.suite);
      ("rvf", Test_rvf.suite);
      ("assemble", Test_assemble.suite);
      ("recursion", Test_recursion.suite);
      ("hammerstein", Test_hammerstein.suite);
      ("caffeine", Test_caffeine.suite);
      ("pipeline", Test_pipeline.suite);
      ("diag", Test_diag.suite);
      ("guard", Test_guard.suite);
      ("resilience", Test_resilience.suite);
      ("trace", Test_trace.suite);
      ("minijson", Test_minijson.suite);
      ("obs", Test_obs.suite);
      ("oracle", Test_oracle.suite);
      ("sparse", Test_sparse.suite);
      ("coverage", Test_coverage.suite);
      ("newton", Test_newton.suite);
    ]
