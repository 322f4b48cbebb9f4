(* Protocol shoot-out: the same scenario — a mobile host moving between
   two networks while a correspondent keeps sending — run under MHRP and
   each of the paper's Section 7 comparison protocols, on byte-identical
   substrates.

     dune exec examples/protocol_shootout.exe

   Reported per protocol: delivery, mean wire overhead per packet (from
   real serializers), mean latency and control-message cost. *)

module Time = Netsim.Time
module Node = Net.Node
module Packet = Ipv4.Packet
module Topology = Net.Topology
module TG = Workload.Topo_gen

type result = {
  name : string;
  delivered : int;
  sent : int;
  overhead : float;
  latency_ms : float;
  ctrl : int;
}

let payload_bytes = 64
let packet_count = 8

(* shared scenario shape: move at 1 s, one packet every 500 ms from 2 s *)
let schedule_sends topo send =
  for k = 0 to packet_count - 1 do
    ignore
      (Netsim.Engine.schedule (Topology.engine topo)
         ~at:(Time.of_sec (2.0 +. (0.5 *. float_of_int k)))
         (fun () -> send (k + 1)))
  done

let mk_pkt ~id ~src ~dst =
  Packet.make ~id ~proto:Ipv4.Proto.udp ~src ~dst
    (Ipv4.Udp.encode
       (Ipv4.Udp.make ~src_port:4000 ~dst_port:4000
          (Bytes.make payload_bytes '\000')))

let finish name topo metrics ~sent ~ctrl =
  Topology.run ~until:(Time.of_sec 10.0) topo;
  { name;
    delivered = List.length (Workload.Metrics.delivered metrics);
    sent;
    overhead = Workload.Metrics.mean_overhead_bytes metrics;
    latency_ms = Workload.Metrics.mean_latency_us metrics /. 1000.0;
    ctrl = ctrl () }

let run_mhrp () =
  let f = TG.figure1 () in
  let topo = f.TG.topo in
  let metrics = Workload.Metrics.create topo in
  Workload.Metrics.watch_receiver metrics f.TG.m;
  let m_addr = Mhrp.Agent.address f.TG.m in
  Workload.Mobility.move_at topo f.TG.m ~at:(Time.of_sec 1.0) f.TG.net_d;
  schedule_sends topo (fun id ->
      let pkt = mk_pkt ~id ~src:(Mhrp.Agent.address f.TG.s) ~dst:m_addr in
      Workload.Metrics.note_send metrics pkt;
      Mhrp.Agent.send f.TG.s pkt);
  finish "MHRP" topo metrics ~sent:packet_count ~ctrl:(fun () ->
      List.fold_left
        (fun acc a ->
           acc + (Mhrp.Agent.counters a).Mhrp.Counters.control_messages)
        0
        [f.TG.s; f.TG.m; f.TG.r1; f.TG.r2; f.TG.r3; f.TG.r4])

let run_sunshine () =
  let p = TG.figure1_plain () in
  let topo = p.TG.p_topo in
  let m_addr = Node.primary_addr p.TG.p_m in
  let db = Topology.add_host topo "DB" p.TG.p_backbone 20 in
  Topology.compute_routes topo;
  let metrics = Workload.Metrics.create topo in
  let sp = Baselines.Sunshine_postel.create topo ~db_node:db in
  let fwd = Baselines.Sunshine_postel.add_forwarder sp p.TG.p_r4 ~lan:p.TG.p_net_d in
  Baselines.Sunshine_postel.make_mobile sp p.TG.p_m;
  Node.set_proto_handler p.TG.p_m Ipv4.Proto.udp (fun _ v ->
      let pkt = Packet.View.decode v in
      Workload.Metrics.note_delivery metrics pkt);
  ignore
    (Netsim.Engine.schedule (Topology.engine topo) ~at:(Time.of_sec 1.0)
       (fun () ->
          Baselines.Sunshine_postel.move sp p.TG.p_m ~forwarder:fwd
            p.TG.p_net_d));
  schedule_sends topo (fun id ->
      let pkt = mk_pkt ~id ~src:(Node.primary_addr p.TG.p_s) ~dst:m_addr in
      Workload.Metrics.note_send metrics pkt;
      Baselines.Sunshine_postel.send sp ~src:p.TG.p_s pkt);
  finish "Sunshine-Postel" topo metrics ~sent:packet_count ~ctrl:(fun () ->
      Baselines.Sunshine_postel.control_messages sp)

let run_columbia () =
  let p = TG.figure1_plain () in
  let topo = p.TG.p_topo in
  let m_addr = Node.primary_addr p.TG.p_m in
  let metrics = Workload.Metrics.create topo in
  let co = Baselines.Columbia.create topo in
  let home = Baselines.Columbia.add_msr co p.TG.p_r2 ~cell:p.TG.p_net_b in
  let msr4 = Baselines.Columbia.add_msr co p.TG.p_r4 ~cell:p.TG.p_net_d in
  Baselines.Columbia.make_mobile co p.TG.p_m ~home;
  Node.set_proto_handler p.TG.p_m Ipv4.Proto.udp (fun _ v ->
      let pkt = Packet.View.decode v in
      Workload.Metrics.note_delivery metrics pkt);
  ignore
    (Netsim.Engine.schedule (Topology.engine topo) ~at:(Time.of_sec 1.0)
       (fun () -> Baselines.Columbia.move co p.TG.p_m ~to_msr:msr4));
  schedule_sends topo (fun id ->
      let pkt = mk_pkt ~id ~src:(Node.primary_addr p.TG.p_s) ~dst:m_addr in
      Workload.Metrics.note_send metrics pkt;
      Baselines.Columbia.send co ~src:p.TG.p_s pkt);
  finish "Columbia" topo metrics ~sent:packet_count ~ctrl:(fun () ->
      Baselines.Columbia.control_messages co)

let run_sony () =
  let p = TG.figure1_plain () in
  let topo = p.TG.p_topo in
  let m_addr = Node.primary_addr p.TG.p_m in
  let metrics = Workload.Metrics.create topo in
  let sv = Baselines.Sony_vip.create topo in
  List.iter (Baselines.Sony_vip.add_router sv)
    [p.TG.p_r1; p.TG.p_r2; p.TG.p_r3; p.TG.p_r4];
  Baselines.Sony_vip.make_host sv p.TG.p_m ~home_router:p.TG.p_r2;
  Baselines.Sony_vip.make_host sv p.TG.p_s ~home_router:p.TG.p_r1;
  Baselines.Sony_vip.on_receive sv p.TG.p_m (fun pkt ->
      Workload.Metrics.note_delivery metrics pkt);
  let temp = Ipv4.Addr.Prefix.host (Net.Lan.prefix p.TG.p_net_d) 50 in
  ignore
    (Netsim.Engine.schedule (Topology.engine topo) ~at:(Time.of_sec 1.0)
       (fun () ->
          Baselines.Sony_vip.move sv p.TG.p_m ~lan:p.TG.p_net_d
            ~via_router:p.TG.p_r4 ~temp));
  schedule_sends topo (fun id ->
      let pkt = mk_pkt ~id ~src:(Node.primary_addr p.TG.p_s) ~dst:m_addr in
      Workload.Metrics.note_send metrics pkt;
      Baselines.Sony_vip.send sv ~src:p.TG.p_s pkt);
  finish "Sony VIP" topo metrics ~sent:packet_count ~ctrl:(fun () ->
      Baselines.Sony_vip.control_messages sv)

let run_matsushita mode name =
  let p = TG.figure1_plain () in
  let topo = p.TG.p_topo in
  let m_addr = Node.primary_addr p.TG.p_m in
  let metrics = Workload.Metrics.create topo in
  let ma = Baselines.Matsushita.create topo mode in
  Baselines.Matsushita.add_pfs ma p.TG.p_r2;
  Baselines.Matsushita.make_mobile ma p.TG.p_m ~pfs:p.TG.p_r2;
  Baselines.Matsushita.on_receive ma p.TG.p_m (fun pkt ->
      Workload.Metrics.note_delivery metrics pkt);
  let temp = Ipv4.Addr.Prefix.host (Net.Lan.prefix p.TG.p_net_d) 50 in
  ignore
    (Netsim.Engine.schedule (Topology.engine topo) ~at:(Time.of_sec 1.0)
       (fun () ->
          Baselines.Matsushita.move ma p.TG.p_m ~lan:p.TG.p_net_d
            ~via_router:p.TG.p_r4 ~temp));
  schedule_sends topo (fun id ->
      let pkt = mk_pkt ~id ~src:(Node.primary_addr p.TG.p_s) ~dst:m_addr in
      Workload.Metrics.note_send metrics pkt;
      Baselines.Matsushita.send ma ~src:p.TG.p_s pkt);
  finish name topo metrics ~sent:packet_count ~ctrl:(fun () ->
      Baselines.Matsushita.control_messages ma)

let run_ibm () =
  let p = TG.figure1_plain () in
  let topo = p.TG.p_topo in
  let m_addr = Node.primary_addr p.TG.p_m in
  let metrics = Workload.Metrics.create topo in
  let ib = Baselines.Ibm_lsrr.create topo in
  let home_base = Baselines.Ibm_lsrr.add_base ib p.TG.p_r2 ~lan:p.TG.p_net_b in
  let base4 = Baselines.Ibm_lsrr.add_base ib p.TG.p_r4 ~lan:p.TG.p_net_d in
  Baselines.Ibm_lsrr.make_mobile ib p.TG.p_m ~home_base;
  Baselines.Ibm_lsrr.on_receive ib p.TG.p_m (fun pkt ->
      Workload.Metrics.note_delivery metrics pkt);
  ignore
    (Netsim.Engine.schedule (Topology.engine topo) ~at:(Time.of_sec 1.0)
       (fun () -> Baselines.Ibm_lsrr.move ib p.TG.p_m ~base:base4));
  schedule_sends topo (fun id ->
      let pkt = mk_pkt ~id ~src:(Node.primary_addr p.TG.p_s) ~dst:m_addr in
      Workload.Metrics.note_send metrics pkt;
      Baselines.Ibm_lsrr.send ib ~src:p.TG.p_s pkt);
  finish "IBM LSRR" topo metrics ~sent:packet_count ~ctrl:(fun () ->
      Baselines.Ibm_lsrr.control_messages ib)

let () =
  Format.printf
    "One scenario, six protocols: M moves at t=1s; S sends %d packets.@.@."
    packet_count;
  let results =
    [ run_mhrp (); run_sunshine (); run_columbia (); run_sony ();
      run_matsushita Baselines.Matsushita.Forwarding "Matsushita (fwd)";
      run_matsushita Baselines.Matsushita.Autonomous "Matsushita (auto)";
      run_ibm () ]
  in
  Format.printf "%-18s %-10s %-12s %-12s %-6s@." "protocol" "delivered"
    "overhead B" "latency ms" "ctrl";
  Format.printf "%s@." (String.make 62 '-');
  List.iter
    (fun r ->
       Format.printf "%-18s %d/%-8d %-12.1f %-12.2f %-6d@." r.name
         r.delivered r.sent r.overhead r.latency_ms r.ctrl)
    results
