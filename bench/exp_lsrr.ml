(* E10 — the router slow path for IP options (Section 7's case against the
   IBM LSRR proposals): end-to-end latency of identical payloads sent
   plain, MHRP-tunneled, and LSRR-routed across chains of increasing
   length.  Tunneled MHRP packets are ordinary IP to every router; LSRR
   packets hit the option-parsing slow path at each hop. *)

open Exp_util
module TGm = Workload.Topo_gen
module Time = Netsim.Time

let measure ~n ~variant =
  let ch = TGm.chain ~n () in
  let topo = ch.TGm.ch_topo in
  let last = Agent.node ch.TGm.ch_routers.(n - 1) in
  (* endpoints on the first and last stubs *)
  let a = Topology.add_host topo "A" ch.TGm.ch_stubs.(0) 10 in
  let b = Topology.add_host topo "B" ch.TGm.ch_stubs.(n - 1) 10 in
  Topology.compute_routes topo;
  let arrival = ref None in
  Node.set_proto_handler b Ipv4.Proto.udp (fun _ _ ->
      if !arrival = None then
        arrival := Some (Netsim.Engine.now (Topology.engine topo)));
  Node.set_proto_handler b Ipv4.Proto.mhrp (fun node v ->
      let pkt = Ipv4.Packet.View.decode v in
      ignore node;
      match Mhrp.Encap.detunnel pkt with
      | Some _ when !arrival = None ->
        arrival := Some (Netsim.Engine.now (Topology.engine topo))
      | _ -> ());
  let b_addr = Node.primary_addr b in
  let base = sample_packet ~src:(Node.primary_addr a) ~dst:b_addr () in
  let waypoint = Node.primary_addr last in
  let pkt =
    match variant with
    | `Plain -> base
    | `Mhrp -> Mhrp.Encap.tunnel_by_sender ~foreign_agent:b_addr base
    | `Lsrr ->
      (* loose-source-routed through the last router, as the IBM scheme
         routes via base stations; same physical path as the others *)
      { base with
        Ipv4.Packet.options = [Ipv4.Ip_option.lsrr [b_addr]];
        dst = waypoint }
  in
  (* warm ARP caches along the path with a throwaway packet first *)
  ignore
    (Netsim.Engine.schedule (Topology.engine topo) ~at:(Time.of_sec 0.5)
       (fun () -> Node.send a { base with Ipv4.Packet.id = 999 }));
  ignore
    (Netsim.Engine.schedule (Topology.engine topo) ~at:(Time.of_sec 2.0)
       (fun () ->
          arrival := None;
          Node.send a pkt));
  Topology.run ~until:(Time.of_sec 4.0) topo;
  match !arrival with
  | Some at -> float_of_int (Time.to_us at - 2_000_000)
  | None -> nan

let run () =
  heading "E10" "router slow path for IP options (Section 7 vs IBM LSRR)";
  let rows =
    List.map
      (fun n ->
         let plain = measure ~n ~variant:`Plain in
         let mhrp = measure ~n ~variant:`Mhrp in
         let lsrr = measure ~n ~variant:`Lsrr in
         let labels = [("routers", string_of_int n)] in
         rec_ms ~exp:"E10" ~labels "plain_ms" plain;
         rec_ms ~exp:"E10" ~labels "mhrp_ms" mhrp;
         rec_ms ~exp:"E10" ~labels "lsrr_ms" lsrr;
         rec_f ~exp:"E10" ~labels ~tol:(Obs.Metric.Pct 20.0)
           "lsrr_over_plain" (lsrr /. plain);
         [ i n; ms_of_us plain; ms_of_us mhrp; ms_of_us lsrr;
           f2 (lsrr /. plain) ])
      [2; 4; 8; 12]
  in
  table
    ~columns:["routers on path"; "plain ms"; "MHRP tunnel ms"; "LSRR ms";
              "LSRR/plain"]
    rows;
  note
    "MHRP's tunneled packets carry no IP options, so they ride the \
     router fast path like plain traffic; LSRR packets pay the option \
     slow path (8x per-hop processing here) at every router, and the \
     penalty grows with path length."

let experiment =
  Experiment.make ~id:"E10"
    ~title:"router slow path for IP options (Section 7 vs IBM LSRR)" run
