let () =
  Alcotest.run "mhrp"
    (List.concat
       [ Test_netsim.suite;
         Test_ipv4.suite;
         Test_net.suite;
         Test_mhrp_core.suite;
         Test_agent.suite;
         Test_robustness.suite;
         Test_baselines.suite;
         Test_workload.suite;
         Test_extensions.suite;
         Test_properties.suite;
         Test_misc_behaviour.suite;
         Test_fragmentation.suite;
         Test_reliable.suite;
         Test_exchange.suite;
         Test_transport.suite;
         Test_baselines_stale.suite;
         Test_edges.suite;
         Test_auth.suite;
         Test_fault.suite;
         Test_lsr.suite;
         Test_obs.suite;
         Test_compact.suite;
         Test_hierarchy.suite;
         Test_parallel.suite;
         Test_fastpath.suite ])
