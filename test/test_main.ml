let () =
  Alcotest.run "locsample"
    [
      (* The shard suite forks worker processes, and the runtime refuses
         Unix.fork in a process that has ever created a domain — so it
         must run before any suite that touches the domain pool. *)
      ("shard", Test_shard.suite);
      (* The serve suite forks daemon processes (and execs the CLI), so
         it shares the shard suite's before-any-domain constraint. *)
      ("serve", Test_serve.suite);
      (* The serve chaos harness forks daemons and proxies too. *)
      ("serve-chaos", Test_serve_chaos.suite);
      (* Forks fork-retry children, so it shares the constraint. *)
      ("sysfault", Test_sysfault.suite);
      ("rng", Test_rng.suite);
      ("par", Test_par.suite);
      ("obs", Test_obs.suite);
      ("statistics", Test_statistics.suite);
      ("dist", Test_dist.suite);
      ("sketch", Test_sketch.suite);
      ("graph", Test_graph.suite);
      ("gibbs", Test_gibbs.suite);
      ("exact", Test_exact.suite);
      ("enumerate", Test_enumerate.suite);
      ("matching_dp", Test_matching_dp.suite);
      ("engines", Test_engines.suite);
      ("counting", Test_counting.suite);
      ("robustness", Test_robustness.suite);
      ("recovery", Test_recovery.suite);
      ("chaos", Test_chaos.suite);
      ("async", Test_async.suite);
      ("broadcast", Test_broadcast.suite);
      ("local", Test_local.suite);
      ("inference", Test_inference.suite);
      ("ball", Test_ball.suite);
      ("samplers", Test_samplers.suite);
      ("chain", Test_chain.suite);
      ("jvv", Test_jvv.suite);
      ("ssm", Test_ssm.suite);
    ]
