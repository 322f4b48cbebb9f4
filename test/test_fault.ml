(* Tests for lib/fault — declarative failure schedules compiled onto the
   engine (ledger, windows, determinism), control-message loss semantics,
   and the reliable control plane healing injected losses. *)

module Time = Netsim.Time
module Addr = Ipv4.Addr
module Node = Net.Node
module Topology = Net.Topology
module Agent = Mhrp.Agent
module TG = Workload.Topo_gen

let check = Alcotest.check

let reliable_config =
  Mhrp.Config.make ~reliable_control:true ~control_rto:(Time.of_ms 300)
    ~control_retries:5 ()

(* Deterministic loss without the injector's probabilistic stream: drop
   the node's first outgoing port-434 datagram to each distinct peer, so
   every control exchange (Fa_connect to the foreign agent, Reg_request
   to the home agent, ...) loses exactly its original. *)
let drop_first_control_per_peer node =
  let dropped = ref 0 in
  let seen = Hashtbl.create 4 in
  Node.set_fault_filter node
    (Some
       (fun _ pkt ->
          if
            pkt.Ipv4.Packet.proto = Ipv4.Proto.udp
            && (match Ipv4.Udp.decode pkt.Ipv4.Packet.payload with
                | u -> u.Ipv4.Udp.dst_port = Mhrp.Control.port
                | exception Invalid_argument _ -> false)
            && not (Hashtbl.mem seen pkt.Ipv4.Packet.dst)
          then begin
            Hashtbl.replace seen pkt.Ipv4.Packet.dst ();
            incr dropped;
            false
          end
          else true));
  dropped

let injector_tests =
  [ Alcotest.test_case "ledger records every transition, in order" `Quick
      (fun () ->
         let f = TG.figure1 () in
         let inj = Fault.Injector.create f.TG.topo in
         Fault.Injector.inject inj
           [ Fault.Schedule.Lan_down
               { lan = "netA"; at = Time.of_sec 2.0;
                 duration = Time.of_sec 1.0 };
             Fault.Schedule.Crash
               { node = "R4"; at = Time.of_sec 2.5;
                 duration = Time.of_sec 0.5 } ];
         Topology.run ~until:(Time.of_sec 5.0) f.TG.topo;
         (* lan-up and reboot coincide at 3.0 s; the flap was injected
            first, so its timer fires first *)
         check (Alcotest.list Alcotest.string) "transitions"
           ["lan-down netA"; "crash R4"; "lan-up netA"; "reboot R4"]
           (List.map snd (Fault.Injector.ledger inj));
         check Alcotest.bool "ledger times ascend" true
           (let ts = List.map fst (Fault.Injector.ledger inj) in
            List.sort Time.compare ts = ts);
         check Alcotest.int "events" 4 (Fault.Injector.events inj);
         check Alcotest.int "flaps" 1 (Fault.Injector.lan_flaps inj);
         check Alcotest.int "crashes" 1 (Fault.Injector.crashes inj);
         check
           (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
           "disruptive windows, sorted"
           [(Time.of_sec 2.0, Time.of_sec 3.0);
            (Time.of_sec 2.5, Time.of_sec 3.0)]
           (Fault.Injector.windows inj));
    Alcotest.test_case "unknown names are rejected" `Quick (fun () ->
        let f = TG.figure1 () in
        let inj = Fault.Injector.create f.TG.topo in
        Alcotest.check_raises "bad lan"
          (Invalid_argument "Fault.Injector: unknown lan nosuch") (fun () ->
            Fault.Injector.inject inj
              [ Fault.Schedule.Lan_down
                  { lan = "nosuch"; at = Time.zero;
                    duration = Time.of_sec 1.0 } ]));
    Alcotest.test_case "total control loss silences control, not data"
      `Quick (fun () ->
        (* 1 s advertisements, so control traffic exists inside the window *)
        let config =
          Mhrp.Config.make ~advert_interval:(Time.of_sec 1.0)
            ~advert_lifetime:(Time.of_sec 3.0) ()
        in
        let f = TG.figure1 ~config () in
        let topo = f.TG.topo in
        let metrics = Workload.Metrics.create topo in
        let traffic =
          Workload.Traffic.create metrics (Topology.engine topo)
        in
        Workload.Metrics.watch_receiver metrics f.TG.m;
        let inj = Fault.Injector.create topo in
        let inv = Fault.Invariant.watch topo in
        Fault.Injector.inject inj
          [ Fault.Schedule.Control_loss
              { rate = 1.0; from_ = Time.zero; until = Time.of_sec 10.0 } ];
        (* M stays home: plain LAN delivery needs no control exchange *)
        Workload.Traffic.cbr traffic ~src:f.TG.s
          ~dst:(Agent.address f.TG.m) ~start:(Time.of_sec 1.0)
          ~interval:(Time.of_ms 100) ~count:3 ();
        Topology.run ~until:(Time.of_sec 5.0) topo;
        check Alcotest.int "data delivered" 3
          (List.length (Workload.Metrics.delivered metrics));
        check Alcotest.bool "control was being dropped" true
          (Fault.Injector.control_losses inj > 0);
        check Alcotest.int "one loss window" 1
          (Fault.Injector.loss_windows inj);
        check Alcotest.int "every loss recorded as a fault drop"
          (Fault.Injector.control_losses inj)
          (Fault.Invariant.fault_losses inv));
    Alcotest.test_case "same seed, same campaign" `Quick (fun () ->
        let campaign () =
          let f = TG.figure1 () in
          let topo = f.TG.topo in
          let metrics = Workload.Metrics.create topo in
          let traffic =
            Workload.Traffic.create metrics (Topology.engine topo)
          in
          Workload.Metrics.watch_receiver metrics f.TG.m;
          let inj = Fault.Injector.create ~seed:99 topo in
          Fault.Injector.inject inj
            [ Fault.Schedule.Control_loss
                { rate = 0.5; from_ = Time.zero; until = Time.of_sec 20.0 };
              Fault.Schedule.Crash
                { node = "R4"; at = Time.of_sec 2.0;
                  duration = Time.of_sec 1.0 } ];
          Workload.Mobility.move_at topo f.TG.m ~at:(Time.of_sec 1.0)
            f.TG.net_d;
          Workload.Traffic.cbr traffic ~src:f.TG.s
            ~dst:(Agent.address f.TG.m) ~start:(Time.of_sec 5.0)
            ~interval:(Time.of_ms 200) ~count:5 ();
          Topology.run ~until:(Time.of_sec 20.0) topo;
          ( List.length (Workload.Metrics.delivered metrics),
            Fault.Injector.control_losses inj,
            List.map snd (Fault.Injector.ledger inj) )
        in
        let a = campaign () and b = campaign () in
        check Alcotest.bool "bit-identical outcome" true (a = b)) ]

let reliable_control_tests =
  [ Alcotest.test_case
      "lost registration messages are retransmitted until acked" `Quick
      (fun () ->
         let f = TG.figure1 ~config:reliable_config () in
         let topo = f.TG.topo in
         let registered = ref [] in
         Agent.on_registered f.TG.m (fun fa -> registered := fa :: !registered);
         (* the mobile's original Fa_connect and Reg_request both vanish;
            only retransmission can complete this *)
         let dropped = drop_first_control_per_peer (Agent.node f.TG.m) in
         Workload.Mobility.move_at topo f.TG.m ~at:(Time.of_sec 1.0)
           f.TG.net_d;
         Topology.run ~until:(Time.of_sec 8.0) topo;
         check Alcotest.int "both originals lost" 2 !dropped;
         check Alcotest.bool "registration completed anyway" true
           (!registered <> []);
         let c = Agent.counters f.TG.m in
         check Alcotest.bool "request retransmitted" true
           (c.Mhrp.Counters.reg_retransmissions >= 1);
         check Alcotest.bool "connect retransmitted" true
           (c.Mhrp.Counters.connect_retransmissions >= 1);
         match Agent.home_agent f.TG.r2 with
         | Some ha ->
           check
             (Alcotest.option (Alcotest.testable Addr.pp Addr.equal))
             "home agent learned the location" (Some (Addr.host 4 1))
             (Mhrp.Home_agent.location ha (Agent.address f.TG.m))
         | None -> Alcotest.fail "r2 must be a home agent");
    Alcotest.test_case
      "without reliable control the same loss strands the host" `Quick
      (fun () ->
         let f = TG.figure1 () in
         let topo = f.TG.topo in
         let registered = ref [] in
         Agent.on_registered f.TG.m (fun fa -> registered := fa :: !registered);
         let dropped = drop_first_control_per_peer (Agent.node f.TG.m) in
         Workload.Mobility.move_at topo f.TG.m ~at:(Time.of_sec 1.0)
           f.TG.net_d;
         Topology.run ~until:(Time.of_sec 8.0) topo;
         (* without retransmission the host never gets past the lost
            Fa_connect, so the Reg_request is never even sent *)
         check Alcotest.int "only the connect was lost" 1 !dropped;
         check Alcotest.bool "never completed" true (!registered = []);
         let c = Agent.counters f.TG.m in
         check Alcotest.int "nothing retransmitted" 0
           (c.Mhrp.Counters.reg_retransmissions
            + c.Mhrp.Counters.connect_retransmissions));
    Alcotest.test_case "lost Ha_sync is retransmitted until the replica acks"
      `Quick (fun () ->
        let f = TG.figure1 ~config:reliable_config () in
        let topo = f.TG.topo in
        let h2n = Topology.add_host topo ~router:false "H2" f.TG.net_b 2 in
        Topology.compute_routes topo;
        let h2 = Agent.create ~config:reliable_config h2n in
        Agent.enable_home_agent h2;
        let grp = Mhrp.Replication.group [f.TG.r2; h2] in
        Agent.add_mobile h2 (Agent.address f.TG.m);
        let m_addr = Agent.address f.TG.m in
        (* the primary's first sync to the replica vanishes *)
        let h2_addr = Agent.address h2 in
        let dropped = ref 0 in
        Node.set_fault_filter (Agent.node f.TG.r2)
          (Some
             (fun _ pkt ->
                if !dropped < 1 && Addr.equal pkt.Ipv4.Packet.dst h2_addr
                then begin
                  incr dropped;
                  false
                end
                else true));
        Workload.Mobility.move_at topo f.TG.m ~at:(Time.of_sec 1.0)
          f.TG.net_d;
        Topology.run ~until:(Time.of_sec 8.0) topo;
        check Alcotest.int "original sync lost" 1 !dropped;
        check Alcotest.bool "replicas converged anyway" true
          (Mhrp.Replication.consistent grp m_addr);
        check Alcotest.int "one original sync" 1
          (Mhrp.Replication.sync_messages grp);
        check Alcotest.bool "sync retransmitted" true
          ((Agent.counters f.TG.r2).Mhrp.Counters.sync_retransmissions >= 1))
  ]

let suite =
  [ ("fault.injector", injector_tests);
    ("fault.reliable-control", reliable_control_tests) ]
