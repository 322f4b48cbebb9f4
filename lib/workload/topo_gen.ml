module Topology = Net.Topology
module Lan = Net.Lan
module Node = Net.Node
module Agent = Mhrp.Agent

type figure1 = {
  topo : Topology.t;
  net_a : Lan.t;
  net_b : Lan.t;
  net_c : Lan.t;
  net_d : Lan.t;
  backbone : Lan.t;
  s : Agent.t;
  m : Agent.t;
  r1 : Agent.t;
  r2 : Agent.t;
  r3 : Agent.t;
  r4 : Agent.t;
}

let fa_iface_for agent lan =
  match Node.iface_to (Agent.node agent) (Lan.prefix lan) with
  | Some i -> i
  | None -> failwith "fa_iface_for: agent not attached to LAN"

type plain = {
  p_topo : Topology.t;
  p_net_a : Lan.t;
  p_net_b : Lan.t;
  p_net_c : Lan.t;
  p_net_d : Lan.t;
  p_backbone : Lan.t;
  p_s : Node.t;
  p_m : Node.t;
  p_r1 : Node.t;
  p_r2 : Node.t;
  p_r3 : Node.t;
  p_r4 : Node.t;
}

(* The one Figure 1 plan: [figure1] installs its agents on this world,
   so both builders give the same MACs, RNG splits and node order. *)
let figure1_world ?icmp_quote ~seed () =
  let topo = Topology.create ~seed ?icmp_quote () in
  let backbone = Topology.add_lan topo ~net:0 "backbone" in
  let net_a = Topology.add_lan topo ~net:1 "netA" in
  let net_b = Topology.add_lan topo ~net:2 "netB" in
  let net_c = Topology.add_lan topo ~net:3 "netC" in
  let net_d =
    Topology.add_lan topo ~net:4 ~latency:(Netsim.Time.of_ms 2)
      ~bandwidth_bps:2_000_000 "netD"
  in
  let p_r1 = Topology.add_router topo "R1" [(backbone, 11); (net_a, 1)] in
  let p_r2 = Topology.add_router topo "R2" [(backbone, 12); (net_b, 1)] in
  let p_r3 = Topology.add_router topo "R3" [(backbone, 13); (net_c, 1)] in
  let p_r4 = Topology.add_router topo "R4" [(net_c, 2); (net_d, 1)] in
  let p_s = Topology.add_host topo "S" net_a 10 in
  let p_m = Topology.add_host topo "M" net_b 10 in
  Topology.compute_routes topo;
  { p_topo = topo; p_net_a = net_a; p_net_b = net_b; p_net_c = net_c;
    p_net_d = net_d; p_backbone = backbone; p_s; p_m; p_r1; p_r2; p_r3;
    p_r4 }

let figure1_plain () = figure1_world ~seed:42 ()

let figure1 ?(config = Mhrp.Config.default) ?(seed = 42)
    ?(snoop_routers = true) ?icmp_quote () =
  let p = figure1_world ?icmp_quote ~seed () in
  let r1 = Agent.create ~config ~snoop:snoop_routers p.p_r1 in
  let r2 = Agent.create ~config ~snoop:snoop_routers p.p_r2 in
  let r3 = Agent.create ~config ~snoop:snoop_routers p.p_r3 in
  let r4 = Agent.create ~config ~snoop:snoop_routers p.p_r4 in
  let s = Agent.create ~config p.p_s in
  let m = Agent.create ~config p.p_m in
  Agent.enable_home_agent r2;
  Agent.add_mobile r2 (Node.primary_addr p.p_m);
  Agent.enable_foreign_agent r4 ~iface:(fa_iface_for r4 p.p_net_d);
  Agent.make_mobile m
    ~home_agent:(Ipv4.Addr.Prefix.host (Lan.prefix p.p_net_b) 1);
  { topo = p.p_topo; net_a = p.p_net_a; net_b = p.p_net_b;
    net_c = p.p_net_c; net_d = p.p_net_d; backbone = p.p_backbone; s; m;
    r1; r2; r3; r4 }

type campus = {
  c_topo : Topology.t;
  c_backbone : Lan.t;
  c_routers : Agent.t array;
  c_cells : Lan.t array;
  c_homes : Lan.t array;
  c_mobiles : Agent.t array;
  c_senders : Agent.t array;
}

(* The backbone is the one segment whose station count grows with the
   campus count: its /24 tops out around 240 routers.  Large-scale
   experiments pass [backbone_prefix_len] < 24, which moves the backbone
   to the 10.255.0.0 base — clear of the /24 plan used for homes and
   cells — and widens its host field. *)
let add_backbone topo ~prefix_len =
  if prefix_len = 24 then Topology.add_lan topo ~net:0 "backbone"
  else Topology.add_lan topo ~net:0xFF00 ~prefix_len "backbone"

type campus_plain = {
  cp_topo : Topology.t;
  cp_backbone : Lan.t;
  cp_routers : Node.t array;
  cp_cells : Lan.t array;
  cp_homes : Lan.t array;
  cp_mobiles : Node.t array;
  cp_senders : Node.t array;
}

let campuses_plain ?(seed = 42) ?(backbone_prefix_len = 24)
    ?(compute_routes = true) ~campuses ~mobiles_per_campus ~correspondents
    () =
  if campuses <= 0 || mobiles_per_campus < 0 || correspondents < 0 then
    invalid_arg "Topo_gen.campuses_plain";
  let topo = Topology.create ~seed () in
  let backbone = add_backbone topo ~prefix_len:backbone_prefix_len in
  let homes =
    Array.init campuses (fun i ->
        Topology.add_lan topo ~net:(1 + (2 * i))
          (Printf.sprintf "home%d" i))
  in
  let cells =
    Array.init campuses (fun i ->
        Topology.add_lan topo ~net:(2 + (2 * i))
          ~latency:(Netsim.Time.of_ms 2)
          (Printf.sprintf "cell%d" i))
  in
  let routers =
    Array.init campuses (fun i ->
        Topology.add_router topo
          (Printf.sprintf "R%d" i)
          [(backbone, 10 + i); (homes.(i), 1); (cells.(i), 1)])
  in
  let mobiles =
    Array.init (campuses * mobiles_per_campus) (fun k ->
        let c = k / mobiles_per_campus and j = k mod mobiles_per_campus in
        Topology.add_host topo
          (Printf.sprintf "M%d_%d" c j)
          homes.(c) (10 + j))
  in
  let senders =
    Array.init correspondents (fun k ->
        let c = k mod campuses in
        Topology.add_host topo (Printf.sprintf "S%d" k) homes.(c)
          (100 + (k / campuses)))
  in
  if compute_routes then Topology.compute_routes topo;
  { cp_topo = topo; cp_backbone = backbone; cp_routers = routers;
    cp_cells = cells; cp_homes = homes; cp_mobiles = mobiles;
    cp_senders = senders }

(* [campuses_plain]'s world with agents installed, as [figure1] is
   [figure1_world]'s. *)
let campuses ?(config = Mhrp.Config.default) ?seed ?backbone_prefix_len
    ~campuses ~mobiles_per_campus ~correspondents () =
  if campuses <= 0 || mobiles_per_campus < 0 || correspondents < 0 then
    invalid_arg "Topo_gen.campuses";
  let p =
    campuses_plain ?seed ?backbone_prefix_len ~campuses ~mobiles_per_campus
      ~correspondents ()
  in
  let routers =
    Array.mapi
      (fun i n ->
         let a = Agent.create ~config ~snoop:true n in
         Agent.enable_home_agent a;
         Agent.enable_foreign_agent a ~iface:(fa_iface_for a p.cp_cells.(i));
         a)
      p.cp_routers
  in
  Array.iteri
    (fun k mn ->
       Agent.add_mobile routers.(k / mobiles_per_campus)
         (Node.primary_addr mn))
    p.cp_mobiles;
  let mobiles =
    Array.mapi
      (fun k mn ->
         let c = k / mobiles_per_campus in
         let a = Agent.create ~config mn in
         Agent.make_mobile a
           ~home_agent:(Ipv4.Addr.Prefix.host (Lan.prefix p.cp_homes.(c)) 1);
         a)
      p.cp_mobiles
  in
  let senders = Array.map (fun n -> Agent.create ~config n) p.cp_senders in
  { c_topo = p.cp_topo; c_backbone = p.cp_backbone; c_routers = routers;
    c_cells = p.cp_cells; c_homes = p.cp_homes; c_mobiles = mobiles;
    c_senders = senders }

type region = {
  rg_topo : Topology.t;
  rg_backbone : Lan.t;
  rg_regionals : Agent.t array;
  rg_backups : Agent.t array;
  rg_fas : Agent.t array array;
  rg_cells : Lan.t array array;
  rg_homes : Lan.t array;
  rg_mobiles : Agent.t array;
  rg_senders : Agent.t array;
}

(* Two-level hierarchy for E19: each region is one regional router (home
   agent for the region's own mobiles, regional agent for its visitors)
   behind which [cells] wireless cells hang, each with its own
   foreign-agent router.  The regional routers meet on the backbone.
   Foreign agents are provisioned with their regional parent whether or
   not [config] enables hierarchy — the connect ack only advertises it
   when [Config.hierarchy] is set, so the same wiring serves both
   modes. *)
let regions ?(config = Mhrp.Config.default) ?(seed = 42) ?(backups = false)
    ~regions ~cells ~mobiles_per_region ~correspondents () =
  if regions <= 0 || cells <= 0 || mobiles_per_region < 0
     || correspondents < 0
  then invalid_arg "Topo_gen.regions";
  let topo = Topology.create ~seed () in
  let backbone = Topology.add_lan topo ~net:0 "backbone" in
  let span = cells + 2 in
  let homes =
    Array.init regions (fun r ->
        Topology.add_lan topo ~net:(1 + (r * span))
          (Printf.sprintf "home%d" r))
  in
  let rnets =
    Array.init regions (fun r ->
        Topology.add_lan topo ~net:(2 + (r * span))
          (Printf.sprintf "rnet%d" r))
  in
  let cell_lans =
    Array.init regions (fun r ->
        Array.init cells (fun c ->
            Topology.add_lan topo
              ~net:(3 + (r * span) + c)
              ~latency:(Netsim.Time.of_ms 2)
              (Printf.sprintf "cell%d_%d" r c)))
  in
  let regional_nodes =
    Array.init regions (fun r ->
        Topology.add_router topo
          (Printf.sprintf "RR%d" r)
          [(backbone, 10 + r); (rnets.(r), 1); (homes.(r), 1)])
  in
  let backup_nodes =
    if not backups then [||]
    else
      Array.init regions (fun r ->
          Topology.add_router topo
            (Printf.sprintf "RB%d" r)
            [(backbone, 100 + r); (rnets.(r), 2)])
  in
  let fa_nodes =
    Array.init regions (fun r ->
        Array.init cells (fun c ->
            Topology.add_router topo
              (Printf.sprintf "F%d_%d" r c)
              [(rnets.(r), 10 + c); (cell_lans.(r).(c), 1)]))
  in
  let mobile_nodes =
    Array.init (regions * mobiles_per_region) (fun k ->
        let r = k / mobiles_per_region and j = k mod mobiles_per_region in
        Topology.add_host topo
          (Printf.sprintf "M%d_%d" r j)
          homes.(r) (10 + j))
  in
  let sender_nodes =
    Array.init correspondents (fun k ->
        let r = k mod regions in
        Topology.add_host topo (Printf.sprintf "S%d" k) homes.(r)
          (200 + (k / regions)))
  in
  Topology.compute_routes topo;
  let backup_agents =
    Array.map
      (fun n ->
         let a = Agent.create ~config ~snoop:true n in
         a)
      backup_nodes
  in
  let regionals =
    Array.mapi
      (fun r n ->
         let a = Agent.create ~config ~snoop:true n in
         Agent.enable_home_agent a;
         (if backups then
            Agent.enable_regional_agent
              ~backup:(Agent.address backup_agents.(r)) a
          else Agent.enable_regional_agent a);
         a)
      regional_nodes
  in
  (* The standby mirrors back to the primary, so a recovered primary
     learns bindings written during the takeover. *)
  Array.iteri
    (fun r a ->
       Agent.enable_regional_agent
         ~backup:(Agent.address regionals.(r)) a)
    backup_agents;
  let fas =
    Array.mapi
      (fun r row ->
         Array.mapi
           (fun c n ->
              let a = Agent.create ~config ~snoop:true n in
              Agent.enable_foreign_agent a
                ~iface:(fa_iface_for a cell_lans.(r).(c));
              (if backups then
                 Agent.set_regional_parent
                   ~backup:(Agent.address backup_agents.(r))
                   a (Agent.address regionals.(r))
               else
                 Agent.set_regional_parent a (Agent.address regionals.(r)));
              a)
           row)
      fa_nodes
  in
  Array.iteri
    (fun k mn ->
       Agent.add_mobile regionals.(k / mobiles_per_region)
         (Node.primary_addr mn))
    mobile_nodes;
  let mobiles =
    Array.mapi
      (fun k mn ->
         let r = k / mobiles_per_region in
         let a = Agent.create ~config mn in
         Agent.make_mobile a
           ~home_agent:(Ipv4.Addr.Prefix.host (Lan.prefix homes.(r)) 1);
         a)
      mobile_nodes
  in
  let senders =
    Array.map (fun n -> Agent.create ~config n) sender_nodes
  in
  { rg_topo = topo; rg_backbone = backbone; rg_regionals = regionals;
    rg_backups = backup_agents; rg_fas = fas; rg_cells = cell_lans;
    rg_homes = homes; rg_mobiles = mobiles; rg_senders = senders }

type chain = {
  ch_topo : Topology.t;
  ch_routers : Agent.t array;
  ch_stubs : Lan.t array;
  ch_links : Lan.t array;
}

let chain ?(config = Mhrp.Config.default) ~n () =
  if n < 2 then invalid_arg "Topo_gen.chain: need at least two routers";
  let topo = Topology.create ~seed:42 () in
  let stubs =
    Array.init n (fun i ->
        Topology.add_lan topo ~net:(10 + i) (Printf.sprintf "stub%d" i))
  in
  let links =
    Array.init (n - 1) (fun i ->
        Topology.add_lan topo ~net:(100 + i) (Printf.sprintf "link%d" i))
  in
  let nodes =
    Array.init n (fun i ->
        let attach = [(stubs.(i), 1)] in
        let attach =
          if i > 0 then (links.(i - 1), 2) :: attach else attach
        in
        let attach = if i < n - 1 then (links.(i), 1) :: attach else attach
        in
        Topology.add_router topo (Printf.sprintf "C%d" i) attach)
  in
  Topology.compute_routes topo;
  let routers =
    Array.map (fun node -> Agent.create ~config ~snoop:true node) nodes
  in
  { ch_topo = topo; ch_routers = routers; ch_stubs = stubs;
    ch_links = links }
