(* E13 — replicated home agents (Section 2): "it can replicate the home
   agent function on several support hosts on its own network, although
   these hosts must cooperate to provide a consistent view of the
   database."  We measure the synchronisation cost and the benefit: with a
   replica on the home LAN, local senders keep reaching the departed
   mobile host while the primary's agent process is dead. *)

open Exp_util
module TGm = Workload.Topo_gen
module Time = Netsim.Time

(* The [Ha_sync] messages [node] puts on the wire. *)
let count_ha_syncs node =
  let n = ref 0 in
  Node.on_transmit node (fun _ pkt ->
      if pkt.Ipv4.Packet.proto = Ipv4.Proto.udp then
        match Ipv4.Udp.decode pkt.Ipv4.Packet.payload with
        | { Ipv4.Udp.dst_port; data; _ } when dst_port = Mhrp.Control.port ->
          (match Mhrp.Control.decode data with
           | Some (Mhrp.Control.Ha_sync _) -> incr n
           | Some _ | None -> ())
        | _ | (exception Invalid_argument _) -> ());
  n

let run_case ~replicated =
  let f = TGm.figure1 () in
  let topo = f.TGm.topo in
  let metrics = Workload.Metrics.create topo in
  let traffic = Workload.Traffic.create metrics (Topology.engine topo) in
  Workload.Metrics.watch_receiver metrics f.TGm.m;
  let m_addr = Agent.address f.TGm.m in
  (* a local sender on the home network (interception-by-ARP territory) *)
  let pn = Topology.add_host topo "P" f.TGm.net_b 30 in
  Topology.compute_routes topo;
  let p_agent = Agent.create pn in
  (* the primary and its replica each mirror to the other *)
  let syncs =
    if not replicated then ref 0
    else begin
      let h2n = Topology.add_host topo "H2" f.TGm.net_b 2 in
      Topology.compute_routes topo;
      let h2 = Agent.create h2n in
      Agent.enable_home_agent ~replicas:[Agent.address f.TGm.r2] h2;
      Agent.enable_home_agent ~replicas:[Agent.address h2] f.TGm.r2;
      Agent.add_mobile h2 m_addr;
      count_ha_syncs (Agent.node f.TGm.r2)
    end
  in
  Workload.Mobility.move_at topo f.TGm.m ~at:(Time.of_sec 1.0) f.TGm.net_d;
  (* the primary home-agent process dies (node keeps routing) *)
  Workload.Traffic.at traffic (Time.of_sec 2.0) (fun () ->
      Node.set_arp_proxy (Agent.node f.TGm.r2) (fun _ -> false);
      Node.set_accept_ip (Agent.node f.TGm.r2) (fun _ _ -> false);
      Node.set_rewrite_forward (Agent.node f.TGm.r2) (fun _ _ ->
          Net.Node.Forward));
  for k = 1 to 5 do
    Workload.Traffic.at traffic (Time.of_sec (3.0 +. float_of_int k))
      (fun () ->
         let pkt =
           sample_packet ~id:(100 + k) ~src:(Agent.address p_agent)
             ~dst:m_addr ()
         in
         Workload.Metrics.note_send metrics pkt;
         Agent.send p_agent pkt)
  done;
  Topology.run ~until:(Time.of_sec 12.0) topo;
  let delivered =
    List.length
      (List.filter
         (fun r -> r.Workload.Metrics.delivered_at <> None)
         (Workload.Metrics.records metrics))
  in
  (delivered, !syncs)

let run () =
  heading "E13" "replicated home agents (Section 2)";
  let single, _ = run_case ~replicated:false in
  let replicated, syncs = run_case ~replicated:true in
  rec_i ~exp:"E13" ~labels:[("home_agents", "single")] "delivered_of_5"
    single;
  rec_i ~exp:"E13" ~labels:[("home_agents", "replicated")] "delivered_of_5"
    replicated;
  rec_i ~exp:"E13" "sync_messages" syncs;
  table
    ~columns:["home agents"; "delivered of 5 (primary dead)";
              "sync messages"]
    [ ["single"; i single; "0"];
      ["primary + replica"; i replicated; i syncs] ];
  note
    "the replica mirrors every registration (one sync message per move \
     per replica), answers proxy ARP for the departed host on the home \
     LAN, and tunnels interceptions itself when the primary's agent \
     process is gone."

let experiment =
  Experiment.make ~id:"E13" ~title:"replicated home agents (Section 2)" run
