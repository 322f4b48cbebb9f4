(* Tests for the workload layer (metrics, traffic, mobility, topology
   generators) plus end-to-end integration runs: the campus topology under
   sustained movement, and bit-for-bit determinism of the simulator. *)

module Time = Netsim.Time
module Addr = Ipv4.Addr
module Node = Net.Node
module Topology = Net.Topology
module Agent = Mhrp.Agent
module TG = Workload.Topo_gen

let check = Alcotest.check

let metrics_tests =
  [ Alcotest.test_case "tracks send, hops, delivery per packet" `Quick
      (fun () ->
         let f = TG.figure1 () in
         let metrics = Workload.Metrics.create f.TG.topo in
         let traffic =
           Workload.Traffic.create metrics (Topology.engine f.TG.topo)
         in
         Workload.Metrics.watch_receiver metrics f.TG.m;
         Workload.Traffic.at traffic (Time.of_sec 0.1) (fun () ->
             Workload.Traffic.send_udp traffic ~src:f.TG.s
               ~dst:(Agent.address f.TG.m) ());
         Topology.run ~until:(Time.of_sec 2.0) f.TG.topo;
         check Alcotest.int "one record" 1
           (List.length (Workload.Metrics.records metrics));
         check (Alcotest.float 1e-9) "all delivered" 1.0
           (Workload.Metrics.delivery_ratio metrics);
         check (Alcotest.float 1e-9) "hops" 3.0
           (Workload.Metrics.mean_hops metrics);
         check Alcotest.bool "latency positive" true
           (Workload.Metrics.mean_latency_us metrics > 0.0));
    Alcotest.test_case "tracks tunneled packets across rewrites" `Quick
      (fun () ->
         let f = TG.figure1 () in
         let metrics = Workload.Metrics.create f.TG.topo in
         let traffic =
           Workload.Traffic.create metrics (Topology.engine f.TG.topo)
         in
         Workload.Metrics.watch_receiver metrics f.TG.m;
         Workload.Mobility.move_at f.TG.topo f.TG.m ~at:(Time.of_sec 0.5)
           f.TG.net_d;
         Workload.Traffic.at traffic (Time.of_sec 1.5) (fun () ->
             Workload.Traffic.send_udp traffic ~src:f.TG.s
               ~dst:(Agent.address f.TG.m) ());
         Topology.run ~until:(Time.of_sec 3.0) f.TG.topo;
         check (Alcotest.float 1e-9) "delivered through tunnel" 1.0
           (Workload.Metrics.delivery_ratio metrics);
         check (Alcotest.float 1e-9) "overhead observed" 12.0
           (Workload.Metrics.mean_overhead_bytes metrics));
    Alcotest.test_case "cbr emits the requested count and spacing" `Quick
      (fun () ->
         let f = TG.figure1 () in
         let metrics = Workload.Metrics.create f.TG.topo in
         let traffic =
           Workload.Traffic.create metrics (Topology.engine f.TG.topo)
         in
         Workload.Metrics.watch_receiver metrics f.TG.m;
         Workload.Traffic.cbr traffic ~src:f.TG.s
           ~dst:(Agent.address f.TG.m) ~start:(Time.of_sec 1.0)
           ~interval:(Time.of_ms 50) ~count:10 ();
         Topology.run ~until:(Time.of_sec 3.0) f.TG.topo;
         let rs = Workload.Metrics.records metrics in
         check Alcotest.int "ten packets" 10 (List.length rs);
         let times =
           List.map (fun r -> Time.to_us r.Workload.Metrics.sent_at) rs
         in
         check Alcotest.int "first at 1s" 1_000_000 (List.nth times 0);
         check Alcotest.int "last at 1.45s" 1_450_000 (List.nth times 9));
    Alcotest.test_case "fresh ids wrap around without hitting zero" `Quick
      (fun () ->
         let f = TG.figure1 () in
         let metrics = Workload.Metrics.create f.TG.topo in
         let traffic =
           Workload.Traffic.create ~first_id:0xFFFE metrics
             (Topology.engine f.TG.topo)
         in
         for _ = 1 to 3 do
           Workload.Traffic.send_udp traffic ~src:f.TG.s
             ~dst:(Agent.address f.TG.m) ()
         done;
         check (Alcotest.list Alcotest.int) "wrap" [0xFFFE; 0xFFFF; 1]
           (List.map
              (fun r -> snd r.Workload.Metrics.key)
              (Workload.Metrics.records metrics)));
    Alcotest.test_case "datagram data reaches the wire zeroed" `Quick
      (fun () ->
         (* A buffer left unwritten holds whatever the minor heap last
            held, pointers included, which differ from run to run: leave
            stale words there before each send. *)
         let f = TG.figure1 () in
         let metrics = Workload.Metrics.create f.TG.topo in
         let traffic =
           Workload.Traffic.create metrics (Topology.engine f.TG.topo)
         in
         let received = ref 0 and nonzero = ref 0 in
         Agent.on_app_receive f.TG.m (fun pkt ->
             incr received;
             Bytes.iter
               (fun c -> if c <> '\000' then incr nonzero)
               (Ipv4.Udp.decode pkt.Ipv4.Packet.payload).Ipv4.Udp.data);
         for k = 1 to 10 do
           Workload.Traffic.at traffic (Time.of_ms (100 * k)) (fun () ->
               for i = 1 to 5_000 do
                 ignore (Sys.opaque_identity (ref i))
               done;
               Gc.minor ();
               Workload.Traffic.send_udp traffic ~src:f.TG.s
                 ~dst:(Agent.address f.TG.m) ())
         done;
         Topology.run ~until:(Time.of_sec 2.0) f.TG.topo;
         check Alcotest.int "all ten arrived" 10 !received;
         check Alcotest.int "no data byte set" 0 !nonzero) ]

let reqresp_tests =
  [ Alcotest.test_case
      "tcp request/response to a visiting mobile server" `Quick (fun () ->
          let f = TG.figure1 () in
          let metrics = Workload.Metrics.create f.TG.topo in
          Workload.Mobility.move_at f.TG.topo f.TG.m ~at:(Time.of_sec 0.5)
            f.TG.net_d;
          Workload.Apps.Rpc.serve (Transport.Stack.create f.TG.m) ~port:80
            ~req_bytes:32 ~resp_bytes:32;
          let rpc =
            Workload.Apps.Rpc.start
              ~client:(Transport.Stack.create f.TG.s)
              ~server:(Agent.address f.TG.m) ~req_bytes:32 ~resp_bytes:32
              ~start:(Time.of_sec 2.0) ~interval:(Time.of_ms 100) ~count:5
              ()
          in
          Topology.run ~until:(Time.of_sec 5.0) f.TG.topo;
          check Alcotest.int "all responses back" 5
            (Workload.Apps.Rpc.responses rpc);
          (* the exchange rides a real connected socket: requests to
             the visiting server were tunneled, responses travelled as
             plain IP, and no raw segments were tracked as datagrams *)
          check Alcotest.int "no raw packet records" 0
            (List.length (Workload.Metrics.records metrics)));
    Alcotest.test_case
      "bulk: 100,000 bytes, a page and a tail, arrive intact twice" `Quick
      (fun () ->
        (* the server sends one 64 KiB page and a 34,464-byte tail to
           each connection; the second starts while the first is in
           flight *)
        let f = TG.figure1 () in
        Workload.Apps.Bulk.serve (Transport.Stack.create f.TG.s) ~port:8080
          ~bytes:100_000;
        let fetch agent at =
          Workload.Apps.Bulk.fetch (Transport.Stack.create agent)
            ~server:(Agent.address f.TG.s) ~bytes:100_000
            ~at:(Time.of_sec at) ()
        in
        let first = fetch f.TG.m 1.0 and second = fetch f.TG.r1 1.05 in
        Topology.run ~until:(Time.of_sec 20.0) f.TG.topo;
        List.iter
          (fun (name, b) ->
            check Alcotest.int (name ^ ": every byte") 100_000
              (Workload.Apps.Bulk.received b);
            check Alcotest.bool (name ^ ": intact") true
              (Workload.Apps.Bulk.intact b))
          [ ("first", first); ("second", second) ]) ]

let mobility_tests =
  [ Alcotest.test_case "itinerary visits the scripted stops" `Quick
      (fun () ->
         let f = TG.figure1 () in
         let visited = ref [] in
         Agent.on_registered f.TG.m (fun fa -> visited := fa :: !visited);
         Workload.Mobility.itinerary f.TG.topo f.TG.m
           [ (Time.of_sec 1.0, f.TG.net_d);
             (Time.of_sec 2.0, f.TG.net_b) ];
         Topology.run ~until:(Time.of_sec 4.0) f.TG.topo;
         check (Alcotest.list (Alcotest.testable Addr.pp Addr.equal))
           "fa sequence" [Addr.host 4 1; Addr.zero] (List.rev !visited));
    Alcotest.test_case "ping_pong alternates between two cells" `Quick
      (fun () ->
         let f = TG.figure1 () in
         let net_e = Topology.add_lan f.TG.topo ~net:5 "netE" in
         let r5n =
           Topology.add_router f.TG.topo "R5" [(f.TG.net_c, 3); (net_e, 1)]
         in
         Topology.compute_routes f.TG.topo;
         let r5 = Agent.create r5n in
         Agent.enable_foreign_agent r5
           ~iface:(Option.get (Node.iface_to r5n (Net.Lan.prefix net_e)));
         let visited = ref [] in
         Agent.on_registered f.TG.m (fun fa -> visited := fa :: !visited);
         Workload.Mobility.ping_pong f.TG.topo f.TG.m ~a:f.TG.net_d
           ~b:net_e ~start:(Time.of_sec 1.0) ~period:(Time.of_sec 1.0)
           ~moves:4;
         Topology.run ~until:(Time.of_sec 6.0) f.TG.topo;
         check (Alcotest.list (Alcotest.testable Addr.pp Addr.equal))
           "alternating"
           [Addr.host 4 1; Addr.host 5 1; Addr.host 4 1; Addr.host 5 1]
           (List.rev !visited));
    Alcotest.test_case "random_waypoint keeps moving until deadline"
      `Quick (fun () ->
          let c =
            TG.campuses ~campuses:3 ~mobiles_per_campus:1 ~correspondents:0
              ()
          in
          let m = c.TG.c_mobiles.(0) in
          let moves = ref 0 in
          Agent.on_registered m (fun _ -> incr moves);
          Workload.Mobility.random_waypoint c.TG.c_topo m
            ~rng:(Topology.rng c.TG.c_topo) ~lans:c.TG.c_cells
            ~dwell_mean:(Time.of_sec 1.0) ~until:(Time.of_sec 10.0);
          Topology.run ~until:(Time.of_sec 12.0) c.TG.c_topo;
          check Alcotest.bool "moved several times" true (!moves >= 3)) ]

let topo_gen_tests =
  [ Alcotest.test_case "figure1 matches the paper's layout" `Quick
      (fun () ->
         let f = TG.figure1 () in
         check Alcotest.int "six nodes" 6
           (List.length (Topology.nodes f.TG.topo));
         check Alcotest.int "five networks" 5
           (List.length (Topology.lans f.TG.topo));
         (* M's home is network B and R2 is its home agent *)
         check Alcotest.bool "m on net B" true
           (Addr.Prefix.mem (Agent.address f.TG.m)
              (Net.Lan.prefix f.TG.net_b));
         match Agent.home_agent f.TG.r2 with
         | Some ha ->
           check Alcotest.bool "r2 serves m" true
             (Mhrp.Home_agent.serves ha (Agent.address f.TG.m))
         | None -> Alcotest.fail "r2 must be home agent");
    Alcotest.test_case "campuses wiring: sizes and roles" `Quick (fun () ->
        let c =
          TG.campuses ~campuses:4 ~mobiles_per_campus:3 ~correspondents:5
            ()
        in
        check Alcotest.int "mobiles" 12 (Array.length c.TG.c_mobiles);
        check Alcotest.int "senders" 5 (Array.length c.TG.c_senders);
        Array.iteri
          (fun i r ->
             check Alcotest.bool
               (Printf.sprintf "router %d has both roles" i) true
               (Agent.home_agent r <> None
                && Agent.foreign_agent r <> None))
          c.TG.c_routers);
    Alcotest.test_case "chain connects end to end" `Quick (fun () ->
        let ch = TG.chain ~n:5 () in
        let first = Agent.node ch.TG.ch_routers.(0) in
        let last = Agent.node ch.TG.ch_routers.(4) in
        (* 4 router-to-router links plus the final stub LAN *)
        check (Alcotest.option Alcotest.int) "5 links away" (Some 5)
          (Net.Routing.path_length
             ~nodes:(Topology.nodes ch.TG.ch_topo)
             ~src:first
             ~dst_lan:(Node.iface_lan last
                         (Option.get
                            (Node.iface_to last
                               (Net.Lan.prefix ch.TG.ch_stubs.(4))))))) ]

(* --- larger integration runs --- *)

let integration_tests =
  [ Alcotest.test_case
      "campus roaming: continuous traffic to a roaming host mostly arrives"
      `Slow (fun () ->
          let c =
            TG.campuses ~campuses:4 ~mobiles_per_campus:2 ~correspondents:4
              ()
          in
          let topo = c.TG.c_topo in
          let metrics = Workload.Metrics.create topo in
          let traffic =
            Workload.Traffic.create metrics (Topology.engine topo)
          in
          let m = c.TG.c_mobiles.(0) in
          Workload.Metrics.watch_receiver metrics m;
          (* roam across all four cells *)
          Workload.Mobility.itinerary topo m
            [ (Time.of_sec 1.0, c.TG.c_cells.(1));
              (Time.of_sec 4.0, c.TG.c_cells.(2));
              (Time.of_sec 7.0, c.TG.c_cells.(3));
              (Time.of_sec 10.0, c.TG.c_homes.(0)) ];
          (* all four correspondents send CBR throughout *)
          (* offset the CBR phase past the ~15 ms handoff window after
             each move: packets in flight during a handoff are genuine
             physical losses MHRP does not buffer against (a separate test
             asserts that window exists) *)
          Array.iter
            (fun s ->
               Workload.Traffic.cbr traffic ~src:s
                 ~dst:(Agent.address m) ~start:(Time.of_sec 0.530)
                 ~interval:(Time.of_ms 250) ~count:50 ())
            c.TG.c_senders;
          Topology.run ~until:(Time.of_sec 16.0) topo;
          let ratio = Workload.Metrics.delivery_ratio metrics in
          check Alcotest.bool
            (Printf.sprintf "delivery ratio %.3f >= 0.99" ratio) true
            (ratio >= 0.99);
          (* after settling back home there is no residual tunneling *)
          check Alcotest.bool "home at end" true
            (match Agent.mobile m with
             | Some mh -> Mhrp.Mobile_host.is_home mh
             | None -> false));
    Alcotest.test_case "two mobile hosts visiting each other's campuses"
      `Slow (fun () ->
          let c =
            TG.campuses ~campuses:2 ~mobiles_per_campus:1 ~correspondents:0
              ()
          in
          let topo = c.TG.c_topo in
          let metrics = Workload.Metrics.create topo in
          let traffic =
            Workload.Traffic.create metrics (Topology.engine topo)
          in
          let m0 = c.TG.c_mobiles.(0) and m1 = c.TG.c_mobiles.(1) in
          Workload.Metrics.watch_receiver metrics m0;
          Workload.Metrics.watch_receiver metrics m1;
          (* swap campuses *)
          Workload.Mobility.move_at topo m0 ~at:(Time.of_sec 1.0)
            c.TG.c_cells.(1);
          Workload.Mobility.move_at topo m1 ~at:(Time.of_sec 1.0)
            c.TG.c_cells.(0);
          (* they talk to each other: mobile-to-mobile via both tunnels *)
          Workload.Traffic.cbr traffic ~src:m0 ~dst:(Agent.address m1)
            ~start:(Time.of_sec 3.0) ~interval:(Time.of_ms 200) ~count:10
            ();
          Workload.Traffic.cbr traffic ~src:m1 ~dst:(Agent.address m0)
            ~start:(Time.of_sec 3.0) ~interval:(Time.of_ms 200) ~count:10
            ();
          Topology.run ~until:(Time.of_sec 10.0) topo;
          check (Alcotest.float 1e-9) "all 20 delivered" 1.0
            (Workload.Metrics.delivery_ratio metrics));
    Alcotest.test_case
      "handoff loss window: packets racing a move are lost, later ones not"
      `Quick (fun () ->
          let f = TG.figure1 () in
          let metrics = Workload.Metrics.create f.TG.topo in
          let traffic =
            Workload.Traffic.create metrics (Topology.engine f.TG.topo)
          in
          Workload.Metrics.watch_receiver metrics f.TG.m;
          Workload.Mobility.move_at f.TG.topo f.TG.m ~at:(Time.of_sec 1.0)
            f.TG.net_d;
          (* in flight exactly at the move: lost; 100 ms later: fine *)
          Workload.Traffic.at traffic (Time.of_sec 1.0) (fun () ->
              Workload.Traffic.send_udp traffic ~src:f.TG.s
                ~dst:(Agent.address f.TG.m) ());
          Workload.Traffic.at traffic (Time.of_sec 1.1) (fun () ->
              Workload.Traffic.send_udp traffic ~src:f.TG.s
                ~dst:(Agent.address f.TG.m) ());
          Topology.run ~until:(Time.of_sec 4.0) f.TG.topo;
          let rs = Workload.Metrics.records metrics in
          check Alcotest.bool "racing packet lost" true
            ((List.nth rs 0).Workload.Metrics.delivered_at = None);
          check Alcotest.bool "later packet delivered" true
            ((List.nth rs 1).Workload.Metrics.delivered_at <> None));
    Alcotest.test_case "simulation is deterministic across runs" `Slow
      (fun () ->
         let run_once () =
           let c =
             TG.campuses ~campuses:3 ~mobiles_per_campus:2
               ~correspondents:3 ~seed:99 ()
           in
           let topo = c.TG.c_topo in
           let metrics = Workload.Metrics.create topo in
           let traffic =
             Workload.Traffic.create metrics (Topology.engine topo)
           in
           Array.iter
             (fun m ->
                Workload.Metrics.watch_receiver metrics m;
                Workload.Mobility.random_waypoint topo m
                  ~rng:(Topology.rng topo) ~lans:c.TG.c_cells
                  ~dwell_mean:(Time.of_sec 2.0) ~until:(Time.of_sec 10.0))
             c.TG.c_mobiles;
           Array.iter
             (fun s ->
                Workload.Traffic.cbr traffic ~src:s
                  ~dst:(Agent.address c.TG.c_mobiles.(0))
                  ~start:(Time.of_sec 0.5) ~interval:(Time.of_ms 300)
                  ~count:30 ())
             c.TG.c_senders;
           Topology.run ~until:(Time.of_sec 12.0) topo;
           ( Workload.Metrics.delivery_ratio metrics,
             Workload.Metrics.mean_hops metrics,
             Workload.Metrics.mean_latency_us metrics,
             Topology.total_frames topo )
         in
         let a = run_once () and b = run_once () in
         check Alcotest.bool "identical outcomes" true (a = b));
    Alcotest.test_case
      "scalability shape: MHRP state at home agents only" `Slow (fun () ->
          let c =
            TG.campuses ~campuses:4 ~mobiles_per_campus:4 ~correspondents:0
              ()
          in
          let topo = c.TG.c_topo in
          (* every mobile moves to the next campus's cell *)
          Array.iteri
            (fun i m ->
               Workload.Mobility.move_at topo m ~at:(Time.of_sec 1.0)
                 c.TG.c_cells.((i / 4 + 1) mod 4))
            c.TG.c_mobiles;
          Topology.run ~until:(Time.of_sec 5.0) topo;
          (* each home agent only stores its own four mobiles *)
          Array.iter
            (fun r ->
               match Agent.home_agent r with
               | Some ha ->
                 check Alcotest.int "4 records" (4 * 8)
                   (Mhrp.Home_agent.state_bytes ha)
               | None -> Alcotest.fail "router must be HA")
            c.TG.c_routers) ]

let suite =
  [ ("metrics-traffic", metrics_tests);
    ("request-response", reqresp_tests); ("mobility", mobility_tests);
    ("topo-gen", topo_gen_tests); ("integration", integration_tests) ]
