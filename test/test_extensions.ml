(* Tests for the paper's optional deployment modes: replicated home agents
   and host-specific-route operation (Sections 2 and 3). *)

module Time = Netsim.Time
module Addr = Ipv4.Addr
module Node = Net.Node
module Topology = Net.Topology
module Agent = Mhrp.Agent
module TG = Workload.Topo_gen

let check = Alcotest.check
let addr_testable = Alcotest.testable Addr.pp Addr.equal

(* Figure 1 plus a second home agent H2 (a support host on network B),
   the two mirroring their registrations to each other. *)
let replicated_env () =
  let f = TG.figure1 () in
  let topo = f.TG.topo in
  let h2n = Topology.add_host topo ~router:false "H2" f.TG.net_b 2 in
  Topology.compute_routes topo;
  let h2 = Agent.create h2n in
  Agent.enable_home_agent ~replicas:[Agent.address f.TG.r2] h2;
  Agent.enable_home_agent ~replicas:[Agent.address h2] f.TG.r2;
  (* R2's figure1 setup already added M; mirror that on H2 *)
  Agent.add_mobile h2 (Agent.address f.TG.m);
  let metrics = Workload.Metrics.create topo in
  let traffic = Workload.Traffic.create metrics (Topology.engine topo) in
  Workload.Metrics.watch_receiver metrics f.TG.m;
  (f, h2, metrics, traffic)

let ha_location a mobile =
  match Agent.home_agent a with
  | Some ha -> Mhrp.Home_agent.location ha mobile
  | None -> None

let replication_tests =
  [ Alcotest.test_case "registrations are mirrored to every replica"
      `Quick (fun () ->
          let f, h2, _metrics, _traffic = replicated_env () in
          let m_addr = Agent.address f.TG.m in
          Workload.Mobility.move_at f.TG.topo f.TG.m ~at:(Time.of_sec 1.0)
            f.TG.net_d;
          Topology.run ~until:(Time.of_sec 3.0) f.TG.topo;
          check (Alcotest.option addr_testable) "consistent"
            (ha_location f.TG.r2 m_addr) (ha_location h2 m_addr);
          check (Alcotest.option addr_testable) "replica knows"
            (Some (Addr.host 4 1)) (ha_location h2 m_addr);
          check Alcotest.bool "sync traffic flowed" true
            ((Agent.counters h2).Mhrp.Counters.registrations > 0));
    Alcotest.test_case
      "traffic still intercepted when the primary home agent is out"
      `Quick (fun () ->
          (* R2 is also the router for network B, so to keep routing alive
             we crash only its agent role by clearing the HA database
             interception: take the whole node down would cut the LAN.
             Instead the sender sits ON network B so interception happens
             by ARP, where either replica can answer. *)
          let f, h2, metrics, traffic = replicated_env () in
          let m_addr = Agent.address f.TG.m in
          let pn = Topology.add_host f.TG.topo "P" f.TG.net_b 30 in
          Topology.compute_routes f.TG.topo;
          let p_agent = Agent.create pn in
          Workload.Mobility.move_at f.TG.topo f.TG.m ~at:(Time.of_sec 1.0)
            f.TG.net_d;
          (* the primary stops answering: silence its proxy ARP and
             interception by marking it down for ARP purposes — we model a
             crashed support process by removing the HA role's database
             knowledge *)
          Workload.Traffic.at traffic (Time.of_sec 2.0) (fun () ->
              Node.set_arp_proxy (Agent.node f.TG.r2) (fun _ -> false);
              Node.set_accept_ip (Agent.node f.TG.r2) (fun _ _ -> false);
              Node.set_rewrite_forward (Agent.node f.TG.r2) (fun _ _ ->
                  Net.Node.Forward));
          Workload.Traffic.at traffic (Time.of_sec 3.0) (fun () ->
              let pkt =
                Ipv4.Packet.make ~id:77 ~proto:Ipv4.Proto.udp
                  ~src:(Agent.address p_agent) ~dst:m_addr
                  (Ipv4.Udp.encode
                     (Ipv4.Udp.make ~src_port:1 ~dst_port:2
                        (Bytes.create 32)))
              in
              Workload.Metrics.note_send metrics pkt;
              Agent.send p_agent pkt);
          Topology.run ~until:(Time.of_sec 8.0) f.TG.topo;
          (* H2's proxy ARP captured P's packet and tunneled it *)
          check Alcotest.bool "delivered via replica" true
            (List.exists
               (fun r -> r.Workload.Metrics.delivered_at <> None)
               (Workload.Metrics.records metrics));
          check Alcotest.bool "replica tunneled" true
            ((Agent.counters h2).Mhrp.Counters.tunnels_built > 0)) ]

(* Host-specific routes: one home agent serving a domain of two home
   networks (B and B2), with no agent on B2's LAN. *)
let host_route_tests =
  [ Alcotest.test_case
      "one home agent serves a second network via host routes" `Quick
      (fun () ->
         let f = TG.figure1 () in
         let topo = f.TG.topo in
         (* network B2 behind R2 as well; M2 lives there *)
         let net_b2 = Topology.add_lan topo ~net:6 "netB2" in
         ignore (Node.attach (Agent.node f.TG.r2)
                   ~addr:(Addr.Prefix.host (Net.Lan.prefix net_b2) 1)
                   net_b2);
         let m2n = Topology.add_host topo "M2" net_b2 10 in
         Topology.compute_routes topo;
         let m2 = Agent.create m2n in
         Agent.make_mobile m2
           ~home_agent:(Addr.Prefix.host (Net.Lan.prefix net_b2) 1);
         Agent.add_mobile f.TG.r2 (Node.primary_addr m2n);
         let m2_addr = Agent.address m2 in
         let metrics = Workload.Metrics.create topo in
         let traffic =
           Workload.Traffic.create metrics (Topology.engine topo)
         in
         Workload.Metrics.watch_receiver metrics m2;
         (* M2 moves to the wireless cell; the home agent advertises a
            host route for M2 across the home domain (here: R2 itself
            plus the backbone routers of the organisation) *)
         Workload.Mobility.move_at topo m2 ~at:(Time.of_sec 1.0)
           f.TG.net_d;
         Workload.Traffic.at traffic (Time.of_sec 2.0) (fun () ->
             Mhrp.Host_routes.advertise
               ~domain:[Agent.node f.TG.r1; Agent.node f.TG.r3]
               ~mobile:m2_addr ~towards:(Agent.address f.TG.r2));
         Workload.Traffic.at traffic (Time.of_sec 3.0) (fun () ->
             Workload.Traffic.send_udp traffic ~src:f.TG.s ~dst:m2_addr ());
         Topology.run ~until:(Time.of_sec 6.0) topo;
         check Alcotest.int "advertised on both" 2
           (Mhrp.Host_routes.advertised
              ~domain:[Agent.node f.TG.r1; Agent.node f.TG.r3]
              ~mobile:m2_addr);
         check Alcotest.bool "delivered through the domain HA" true
           (List.exists
              (fun r -> r.Workload.Metrics.delivered_at <> None)
              (Workload.Metrics.records metrics));
         (* withdraw restores plain routing *)
         Mhrp.Host_routes.withdraw
           ~domain:[Agent.node f.TG.r1; Agent.node f.TG.r3]
           ~mobile:m2_addr;
         check Alcotest.int "withdrawn" 0
           (Mhrp.Host_routes.advertised
              ~domain:[Agent.node f.TG.r1; Agent.node f.TG.r3]
              ~mobile:m2_addr));
    Alcotest.test_case "advertise copies the next hop toward the origin"
      `Quick (fun () ->
          let f = TG.figure1 () in
          let mobile = Addr.host 2 77 in
          Mhrp.Host_routes.advertise ~domain:[Agent.node f.TG.r1]
            ~mobile ~towards:(Agent.address f.TG.r2);
          let r1 = Agent.node f.TG.r1 in
          check Alcotest.bool "host route matches HA route" true
            (Net.Route.lookup (Node.routes r1) mobile
             = Net.Route.lookup (Node.routes r1) (Agent.address f.TG.r2)));
    Alcotest.test_case "nodes without a route to the origin are skipped"
      `Quick (fun () ->
          let f = TG.figure1 () in
          let isolated =
            Net.Node.create
              ~engine:(Topology.engine f.TG.topo)
              ~mac_alloc:(Net.Mac.Alloc.create ())
              "isolated"
          in
          Mhrp.Host_routes.advertise ~domain:[isolated]
            ~mobile:(Addr.host 2 77) ~towards:(Agent.address f.TG.r2);
          check Alcotest.int "no route installed" 0
            (Net.Route.size (Node.routes isolated))) ]

let suite =
  [ ("replication", replication_tests);
    ("host-routes", host_route_tests) ]
