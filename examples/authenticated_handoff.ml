(* Authenticated hand-off: the Figure 1 internetwork with the
   authenticated control plane switched on, plus an adversary on the
   transit network trying to steal the mobile host's traffic.

     dune exec examples/authenticated_handoff.exe

   The mobile host M roams to network D while a correspondent S keeps
   sending; every registration and location update carries the keyed-MAC
   extension and keeps working.  Midway, the attacker X forges a
   registration claiming M moved to X — the home agent rejects it, the
   trace shows why, and not one packet is hijacked. *)

module Time = Netsim.Time
module Topology = Net.Topology
module Agent = Mhrp.Agent
module TG = Workload.Topo_gen

let () =
  let config =
    Mhrp.Config.make ~authenticate:true ()
  in
  let f = TG.figure1 ~config () in
  let topo = f.TG.topo in
  Netsim.Trace.set_enabled (Topology.trace topo) true;
  let key = Auth.Siphash.of_string "campus registration key" in
  let m_addr = Agent.address f.TG.m in
  List.iter
    (fun a -> Agent.install_key a ~mobile:m_addr ~spi:1 ~key)
    TG.[ f.s; f.m; f.r1; f.r2; f.r3; f.r4 ];
  let metrics = Workload.Metrics.create topo in
  let traffic = Workload.Traffic.create metrics (Topology.engine topo) in
  Workload.Metrics.watch_receiver metrics f.TG.m;
  Format.printf
    "authenticated control plane on: %a extension on every control \
     message@."
    Auth.Siphash.pp_key key;
  Agent.on_registered f.TG.m (fun fa ->
      Format.printf "[%a] M registered %s@." Time.pp
        (Netsim.Engine.now (Topology.engine topo))
        (if Ipv4.Addr.is_zero fa then "at home"
         else "via " ^ Ipv4.Addr.to_string fa));
  (* the attacker, on transit network C *)
  let xn = Topology.add_host topo "X" f.TG.net_c 66 in
  Topology.compute_routes topo;
  let adv = Auth.Adversary.create ~victim:m_addr xn in
  Workload.Traffic.cbr traffic ~src:f.TG.s ~dst:m_addr
    ~start:(Time.of_sec 0.5) ~interval:(Time.of_ms 500) ~count:19 ();
  Workload.Mobility.move_at topo f.TG.m ~at:(Time.of_sec 2.0) f.TG.net_d;
  Workload.Traffic.at traffic (Time.of_sec 5.0) (fun () ->
      Format.printf "[%a] X forges a registration placing M at itself@."
        Time.pp (Netsim.Engine.now (Topology.engine topo));
      Auth.Adversary.forge_registration adv
        ~home_agent:(Agent.address f.TG.r2)
        ~foreign_agent:(Net.Node.primary_addr xn));
  Workload.Mobility.move_at topo f.TG.m ~at:(Time.of_sec 8.0) f.TG.net_b;
  Topology.run ~until:(Time.of_sec 12.0) topo;
  List.iter
    (fun e ->
       Format.printf "[%a] %s: %s %s@." Time.pp e.Netsim.Trace.at
         e.Netsim.Trace.node e.Netsim.Trace.kind e.Netsim.Trace.detail)
    (Netsim.Trace.find (Topology.trace topo) ~kind:"auth-fail");
  let r2c = Agent.counters f.TG.r2 in
  Format.printf
    "@.verified registrations at the home agent: %d; rejected: %d@."
    r2c.Mhrp.Counters.auth_ok r2c.Mhrp.Counters.auth_fail;
  Format.printf "packets hijacked by X: %d@." (Auth.Adversary.hijacked adv);
  Format.printf "delivered to M: %d of %d@."
    (List.length (Workload.Metrics.delivered metrics))
    (List.length (Workload.Metrics.records metrics))
