(* Failure recovery walkthrough: the Section 5 robustness features, one
   after another, on the Figure 1 internetwork.

     dune exec examples/failure_recovery.exe

   1. The foreign agent reboots and forgets its visitors; the home agent's
      location update restores them (5.2).
   2. A cache-agent loop is manufactured and dissolved (5.3).
   3. A link failure makes the cached path dead; the returned ICMP error
      is reversed through the tunnel chain back to the sender, which drops
      its stale cache entry and recovers (4.5). *)

module Time = Netsim.Time
module Node = Net.Node
module Topology = Net.Topology
module Agent = Mhrp.Agent
module TG = Workload.Topo_gen

let section fmt = Format.printf ("@.== " ^^ fmt ^^ " ==@.")

let () =
  let f = TG.figure1 () in
  let topo = f.TG.topo in
  let metrics = Workload.Metrics.create topo in
  let traffic = Workload.Traffic.create metrics (Topology.engine topo) in
  let m_addr = Agent.address f.TG.m in
  Workload.Metrics.watch_receiver metrics f.TG.m;
  let send sec =
    Workload.Traffic.at traffic (Time.of_sec sec) (fun () ->
        Workload.Traffic.send_udp traffic ~src:f.TG.s ~dst:m_addr ())
  in

  section "setup: M moves to the wireless network D";
  Workload.Mobility.move_at topo f.TG.m ~at:(Time.of_sec 1.0) f.TG.net_d;
  send 2.0;

  section "1. foreign-agent reboot and recovery (5.2)";
  Workload.Traffic.at traffic (Time.of_sec 3.0) (fun () ->
      Format.printf "[3.0s] R4 reboots: visitor list gone@.";
      Node.reboot (Agent.node f.TG.r4));
  send 4.0;
  send 5.0;
  Workload.Traffic.at traffic (Time.of_sec 5.5) (fun () ->
      Format.printf "[5.5s] R4 visitors after recovery: %d (recoveries: %d)@."
        (match Agent.foreign_agent f.TG.r4 with
         | Some fa -> Mhrp.Foreign_agent.count fa
         | None -> 0)
        (Agent.counters f.TG.r4).Mhrp.Counters.recoveries);

  section "2. manufactured cache loop, detected and dissolved (5.3)";
  Workload.Traffic.at traffic (Time.of_sec 6.0) (fun () ->
      (* poison R1 and R3 to point at each other *)
      Mhrp.Location_cache.insert (Agent.cache f.TG.r1) ~mobile:m_addr
        ~foreign_agent:(Ipv4.Addr.host 0 13);
      Mhrp.Location_cache.insert (Agent.cache f.TG.r3) ~mobile:m_addr
        ~foreign_agent:(Ipv4.Addr.host 0 11);
      Format.printf "[6.0s] R1 and R3 poisoned into a loop@.";
      (* inject a tunneled packet into the loop *)
      let pkt =
        Ipv4.Packet.make ~id:901 ~proto:Ipv4.Proto.udp
          ~src:(Agent.address f.TG.s) ~dst:m_addr
          (Ipv4.Udp.encode
             (Ipv4.Udp.make ~src_port:1 ~dst_port:2 (Bytes.make 16 '\000')))
      in
      Workload.Metrics.note_send metrics pkt;
      Node.send (Agent.node f.TG.s)
        (Mhrp.Encap.tunnel_by_agent ~agent:(Agent.address f.TG.s)
           ~foreign_agent:(Ipv4.Addr.host 0 11) pkt));
  Workload.Traffic.at traffic (Time.of_sec 7.0) (fun () ->
      Format.printf
        "[7.0s] loops detected: R1=%d R3=%d; poisoned entries left: %s@."
        (Agent.counters f.TG.r1).Mhrp.Counters.loops_detected
        (Agent.counters f.TG.r3).Mhrp.Counters.loops_detected
        (match
           ( Mhrp.Location_cache.peek (Agent.cache f.TG.r1) m_addr,
             Mhrp.Location_cache.peek (Agent.cache f.TG.r3) m_addr )
         with
         | None, None -> "none (dissolved)"
         | _ -> "some"));

  section "3. dead path, reversed ICMP error, sender recovery (4.5)";
  Workload.Traffic.at traffic (Time.of_sec 8.0) (fun () ->
      Format.printf "[8.0s] R3 loses its routes toward networks C and D@.";
      Node.update_routes (Agent.node f.TG.r3) (fun r ->
          Net.Route.remove
            (Net.Route.remove r (Net.Lan.prefix f.TG.net_c))
            (Net.Lan.prefix f.TG.net_d)));
  Agent.on_icmp_error f.TG.s (fun msg original ->
      Format.printf "[%a] S got %a%s@." Time.pp
        (Netsim.Engine.now (Topology.engine topo))
        Ipv4.Icmp.pp msg
        (match original with
         | Some o ->
           Format.asprintf " about its packet to %a" Ipv4.Addr.pp
             o.Ipv4.Packet.dst
         | None -> ""));
  send 9.0;
  (* the home agent's location update may re-teach S the (dead) location
     before the error arrives; the next packet's error purges it for
     good *)
  send 10.5;
  Workload.Traffic.at traffic (Time.of_sec 12.0) (fun () ->
      Format.printf "[12.0s] S cache entry for M: %s@."
        (match Mhrp.Location_cache.peek (Agent.cache f.TG.s) m_addr with
         | Some fa -> Ipv4.Addr.to_string fa
         | None -> "purged (will fall back to the home agent)"));

  Topology.run ~until:(Time.of_sec 13.0) topo;
  Format.printf "@.--- final ---@.%a@." Workload.Metrics.pp_summary metrics
