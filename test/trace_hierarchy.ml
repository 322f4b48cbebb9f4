(* A traced run of the regional hierarchy's failure machinery, printed
   for the golden diff in test/dune: an intra-region handoff, a regional
   agent's crash with its backup's address takeover and release, a
   foreign agent's reboot and visitor probe, a handoff back to the
   recovered primary, an inter-region handoff whose grace-period
   forwarding pointer chases a stale correspondent's datagram, and a
   datagram stream to the mobile throughout.

   Every protocol event is printed; the per-hop kinds ([tx], [rx],
   [fwd], [arp-tx]) are summed by kind and node at the end instead, so
   the file pins them without a line per hop. *)

module Time = Netsim.Time
module Node = Net.Node
module Topology = Net.Topology
module Agent = Mhrp.Agent
module TG = Workload.Topo_gen

let config =
  Mhrp.Config.make ~hierarchy:true ~reliable_control:true
    ~control_rto:(Time.of_ms 100) ~control_retries:3
    ~regional_lifetime:(Time.of_sec 60.0)
    ~regional_refresh:(Time.of_sec 1.0) ()

let per_hop = [ "tx"; "rx"; "fwd"; "arp-tx" ]

let () =
  let rg =
    TG.regions ~config ~backups:true ~regions:3 ~cells:2
      ~mobiles_per_region:1 ~correspondents:1 ()
  in
  let topo = rg.TG.rg_topo in
  let tr = Topology.trace topo in
  Netsim.Trace.set_enabled tr true;
  let m0 = rg.TG.rg_mobiles.(0) in
  let cell r c = rg.TG.rg_cells.(r).(c) in
  let at sec f =
    ignore
      (Netsim.Engine.schedule (Topology.engine topo) ~at:(Time.of_sec sec) f)
  in
  let move sec lan =
    Workload.Mobility.move_at topo m0 ~at:(Time.of_sec sec) lan
  in
  let received = ref 0 in
  Agent.on_app_receive m0 (fun _ -> incr received);
  let sent = ref 0 in
  let s0 = rg.TG.rg_senders.(0) in
  for k = 0 to 23 do
    at (1.5 +. (0.5 *. float_of_int k)) (fun () ->
        incr sent;
        Agent.send_udp s0 ~id:(k + 1) ~dst:(Agent.address m0)
          (Bytes.make 32 '\000'))
  done;
  move 1.0 (cell 1 0);
  move 2.0 (cell 1 1);
  at 2.5 (fun () ->
      Node.crash_for (Agent.node rg.TG.rg_regionals.(1)) (Time.of_sec 4.0));
  at 8.0 (fun () -> Node.reboot (Agent.node rg.TG.rg_fas.(1).(1)));
  move 9.0 (cell 1 0);
  move 10.0 (cell 2 0);
  Topology.run ~until:(Time.of_sec 14.0) topo;
  let hops = Hashtbl.create 64 in
  List.iter
    (fun (e : Netsim.Trace.event) ->
       if List.mem e.kind per_hop then begin
         let key = (e.kind, e.node) in
         Hashtbl.replace hops key
           (1 + Option.value (Hashtbl.find_opt hops key) ~default:0)
       end
       else
         Format.printf "%a %-8s %-16s %s@." Time.pp e.at e.node e.kind
           e.detail)
    (Netsim.Trace.events tr);
  Format.printf "@.per-hop events:@.";
  List.iter
    (fun ((kind, node), n) -> Format.printf "  %-7s %-8s %d@." kind node n)
    (List.sort compare (Hashtbl.fold (fun k n acc -> (k, n) :: acc) hops []));
  Format.printf "@.datagrams: %d sent, %d delivered@." !sent !received
