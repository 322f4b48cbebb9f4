(* Wireless hand-off under stress: a host bouncing rapidly between two
   cells ("moved out of range of the transceiver ... simply by being
   carried physically too far from it", Section 3) while a correspondent
   streams to it — including a stretch where the home agent is dead and
   only the old foreign agents' forwarding pointers keep the host
   reachable (Section 2).

     dune exec examples/wireless_handoff.exe *)

module Time = Netsim.Time
module Node = Net.Node
module Topology = Net.Topology
module Agent = Mhrp.Agent
module TG = Workload.Topo_gen

let () =
  let f = TG.figure1 () in
  let topo = f.TG.topo in
  (* second cell E behind a new router R5 *)
  let net_e = Topology.add_lan topo ~net:5 "netE" in
  let r5n = Topology.add_router topo "R5" [(f.TG.net_c, 3); (net_e, 1)] in
  Topology.compute_routes topo;
  let r5 = Agent.create r5n in
  Agent.enable_foreign_agent r5
    ~iface:(Option.get (Node.iface_to r5n (Net.Lan.prefix net_e)));
  let metrics = Workload.Metrics.create topo in
  let traffic = Workload.Traffic.create metrics (Topology.engine topo) in
  let m_addr = Agent.address f.TG.m in
  Workload.Metrics.watch_receiver metrics f.TG.m;
  Agent.on_registered f.TG.m (fun fa ->
      Format.printf "[%a] hand-off complete: now at %s@." Time.pp
        (Netsim.Engine.now (Topology.engine topo))
        (if Ipv4.Addr.is_zero fa then "home" else Ipv4.Addr.to_string fa));

  Format.printf
    "M ping-pongs between cells D and E every second; S streams 5 \
     packets/s.@.";
  Workload.Mobility.ping_pong topo f.TG.m ~a:f.TG.net_d ~b:net_e
    ~start:(Time.of_sec 1.0) ~period:(Time.of_sec 1.0) ~moves:10;
  Workload.Traffic.cbr traffic ~src:f.TG.s ~dst:m_addr
    ~start:(Time.of_ms 1100) ~interval:(Time.of_ms 200) ~count:70 ();
  (* the home agent dies mid-run; forwarding pointers carry the load *)
  Workload.Traffic.at traffic (Time.of_sec 5.0) (fun () ->
      Format.printf "[5.0s] home agent R2 goes down@.";
      Node.set_up (Agent.node f.TG.r2) false);
  Workload.Traffic.at traffic (Time.of_sec 9.0) (fun () ->
      Format.printf "[9.0s] home agent R2 back up@.";
      Node.set_up (Agent.node f.TG.r2) true);
  Topology.run ~until:(Time.of_sec 16.0) topo;

  Format.printf "@.--- results ---@.";
  Format.printf "%a@." Workload.Metrics.pp_summary metrics;
  let lost =
    List.length
      (List.filter
         (fun r -> r.Workload.Metrics.delivered_at = None)
         (Workload.Metrics.records metrics))
  in
  Format.printf
    "%d packets lost across 10 hand-offs (packets in flight during a \
     hand-off are unbuffered, as in the paper)@."
    lost;
  Format.printf "old-FA re-tunnels via forwarding pointers: R4=%d R5=%d@."
    (Agent.counters f.TG.r4).Mhrp.Counters.retunnels
    (Agent.counters r5).Mhrp.Counters.retunnels
