(* Transparency above IP: a reliable (windowed, retransmitting) transfer
   to a mobile host that keeps moving while the transfer runs.

     dune exec examples/file_transfer.exe

   The transport protocol knows nothing about mobility — it just sends to
   the mobile host's permanent home address.  MHRP's claim (Section 1):
   "no changes are required in mobile hosts above the network level."
   Hand-offs show up only as a few retransmissions. *)

module Time = Netsim.Time
module Topology = Net.Topology
module Agent = Mhrp.Agent
module TG = Workload.Topo_gen

let () =
  let f = TG.figure1 () in
  let topo = f.TG.topo in
  (* second wireless cell to roam between *)
  let net_e = Topology.add_lan topo ~net:5 "netE" in
  let r5n = Topology.add_router topo "R5" [(f.TG.net_c, 3); (net_e, 1)] in
  Topology.compute_routes topo;
  let r5 = Agent.create r5n in
  Agent.enable_foreign_agent r5
    ~iface:(Option.get (Net.Node.iface_to r5n (Net.Lan.prefix net_e)));

  let bytes = 4 * 1024 * 1024 in
  Format.printf
    "S transfers %d KiB to M with a plain window-8 transport while M \
     roams:@."
    (bytes / 1024);
  Agent.on_registered f.TG.m (fun fa ->
      Format.printf "  [%a] hand-off: M now at %s@." Time.pp
        (Netsim.Engine.now (Topology.engine topo))
        (if Ipv4.Addr.is_zero fa then "home" else Ipv4.Addr.to_string fa));
  let xfer =
    Workload.Reliable.start ~sender:f.TG.s ~receiver:f.TG.m ~bytes
      ~at:(Time.of_sec 0.5) ()
  in
  Workload.Mobility.itinerary topo f.TG.m
    [ (Time.of_sec 1.0, f.TG.net_d);
      (Time.of_sec 2.5, net_e);
      (Time.of_sec 4.0, f.TG.net_b) ];
  Topology.run ~until:(Time.of_sec 120.0) topo;
  let s = Workload.Reliable.stats xfer in
  (match s.Workload.Reliable.completed_at with
   | Some at ->
     Format.printf "@.transfer complete at %a, data intact: %b@." Time.pp
       at
       (Workload.Reliable.received_ok xfer)
   | None -> Format.printf "@.transfer DID NOT complete@.");
  Format.printf
    "%d chunks, %d segments sent, %d retransmissions (%d acks) across 3 \
     hand-offs@."
    s.Workload.Reliable.chunks s.Workload.Reliable.sent
    s.Workload.Reliable.retransmissions s.Workload.Reliable.acks;
  Format.printf
    "the transport never learned that M moved: it sent every byte to \
     M's permanent address %a@."
    Ipv4.Addr.pp (Agent.address f.TG.m)
