(* E16 — large-scale internetwork (Section 7 at production scale).

   The Section 7 comparison (E6) stops at 64 campuses; this experiment
   runs the full 256-campus internetwork (~1030 LANs, ~520 nodes) that
   the fast-path overhaul makes affordable: indexed topology
   registration, one-pass routing graph construction, bulk route-table
   builds and compiled route lookup.  Every mobile moves once and three
   correspondents then send to every mobile — MHRP against the two
   baselines with the starkest contrast, Sony VIP (per-move flooding of
   every router) and Sunshine-Postel (one global database).

   Protocol counters are deterministic and gated exactly; the build /
   route / simulate wall-clock splits are recorded at Info tolerance so
   the perf trajectory accumulates without gating on machine speed. *)

open Exp_util
module TGm = Workload.Topo_gen
module Time = Netsim.Time

let n_campuses = 256

(* Routers occupy backbone host ids 10..(10+255); park the Sunshine
   database well above them on the /16 backbone. *)
let db_host_id = 2000

type outcome = {
  proto : string;
  moves : int;
  flows : int;
  ctrl : int;
  delivered : int;
  central_state : int;  (* bytes at the most-loaded single node *)
  build_s : float;
  route_s : float;
  sim_s : float;
}

let seconds s = Time.of_sec s

(* Moves staggered 10ms apart starting at 1s (256 moves finish by 3.6s),
   sends at 5s, simulated horizon 9s — E6's schedule, compressed. *)
let move_at k = seconds (1.0 +. (0.01 *. float_of_int k))
let send_time = 5.0
let horizon = 9.0

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* --- MHRP --- *)

let run_mhrp n =
  let c, build_s =
    timed (fun () ->
        TGm.campuses ~backbone_prefix_len:16 ~campuses:n
          ~mobiles_per_campus:1 ~correspondents:3 ())
  in
  let topo = c.TGm.c_topo in
  let received = ref 0 in
  Array.iter
    (fun m -> Agent.on_app_receive m (fun _ -> incr received))
    c.TGm.c_mobiles;
  Array.iteri
    (fun k m ->
       ignore
         (Netsim.Engine.schedule (Topology.engine topo) ~at:(move_at k)
            (fun () ->
               Agent.move_to ~topo m c.TGm.c_cells.((k + 1) mod n))))
    c.TGm.c_mobiles;
  let flows = ref 0 in
  Array.iter
    (fun s ->
       Array.iter
         (fun m ->
            incr flows;
            let id = !flows in
            ignore
              (Netsim.Engine.schedule (Topology.engine topo)
                 ~at:(seconds send_time) (fun () ->
                     Agent.send s
                       (sample_packet ~id ~src:(Agent.address s)
                          ~dst:(Agent.address m) ()))))
         c.TGm.c_mobiles)
    c.TGm.c_senders;
  let (), sim_s =
    timed (fun () -> Topology.run ~until:(seconds horizon) topo)
  in
  let all_agents =
    Array.to_list c.TGm.c_routers @ Array.to_list c.TGm.c_mobiles
    @ Array.to_list c.TGm.c_senders
  in
  let ctrl =
    List.fold_left
      (fun acc a -> acc + (Agent.counters a).Mhrp.Counters.control_messages)
      0 all_agents
  in
  let central_state =
    List.fold_left
      (fun acc a ->
         let ha =
           match Agent.home_agent a with
           | Some h -> Mhrp.Home_agent.state_bytes h
           | None -> 0
         in
         let fa =
           match Agent.foreign_agent a with
           | Some f -> Mhrp.Foreign_agent.state_bytes f
           | None -> 0
         in
         max acc (ha + fa + Mhrp.Location_cache.state_bytes (Agent.cache a)))
      0 all_agents
  in
  { proto = "MHRP"; moves = n; flows = !flows; ctrl;
    delivered = !received; central_state; build_s; route_s = 0.0; sim_s }

(* --- Sunshine-Postel --- *)

let run_sunshine n =
  let c, build_s =
    timed (fun () ->
        TGm.campuses_plain ~backbone_prefix_len:16 ~compute_routes:false
          ~campuses:n ~mobiles_per_campus:1 ~correspondents:3 ())
  in
  let topo = c.TGm.cp_topo in
  let db = Topology.add_host topo "DB" c.TGm.cp_backbone db_host_id in
  let (), route_s = timed (fun () -> Topology.compute_routes topo) in
  let sp = Baselines.Sunshine_postel.create topo ~db_node:db in
  let fwds =
    Array.mapi
      (fun k r ->
         Baselines.Sunshine_postel.add_forwarder sp r
           ~lan:c.TGm.cp_cells.(k))
      c.TGm.cp_routers
  in
  Array.iter (Baselines.Sunshine_postel.make_mobile sp) c.TGm.cp_mobiles;
  let received = ref 0 in
  Array.iter
    (fun m ->
       Node.set_proto_handler m Ipv4.Proto.udp (fun _ _ -> incr received))
    c.TGm.cp_mobiles;
  Array.iteri
    (fun k m ->
       ignore
         (Netsim.Engine.schedule (Topology.engine topo) ~at:(move_at k)
            (fun () ->
               Baselines.Sunshine_postel.move sp m
                 ~forwarder:fwds.((k + 1) mod n)
                 c.TGm.cp_cells.((k + 1) mod n))))
    c.TGm.cp_mobiles;
  let flows = ref 0 in
  Array.iter
    (fun s ->
       Array.iter
         (fun m ->
            incr flows;
            let id = !flows in
            ignore
              (Netsim.Engine.schedule (Topology.engine topo)
                 ~at:(seconds send_time) (fun () ->
                     Baselines.Sunshine_postel.send sp ~src:s
                       (sample_packet ~id ~src:(Node.primary_addr s)
                          ~dst:(Node.primary_addr m) ()))))
         c.TGm.cp_mobiles)
    c.TGm.cp_senders;
  let (), sim_s =
    timed (fun () -> Topology.run ~until:(seconds horizon) topo)
  in
  { proto = "Sunshine-Postel"; moves = n; flows = !flows;
    ctrl = Baselines.Sunshine_postel.control_messages sp;
    delivered = !received;
    central_state = Baselines.Sunshine_postel.db_state_bytes sp;
    build_s; route_s; sim_s }

(* --- Sony VIP --- *)

let run_sony n =
  let c, build_s =
    timed (fun () ->
        TGm.campuses_plain ~backbone_prefix_len:16 ~campuses:n
          ~mobiles_per_campus:1 ~correspondents:3 ())
  in
  let topo = c.TGm.cp_topo in
  let sv = Baselines.Sony_vip.create topo in
  Array.iter (Baselines.Sony_vip.add_router sv) c.TGm.cp_routers;
  Array.iteri
    (fun k m ->
       Baselines.Sony_vip.make_host sv m ~home_router:c.TGm.cp_routers.(k))
    c.TGm.cp_mobiles;
  Array.iteri
    (fun k s ->
       Baselines.Sony_vip.make_host sv s
         ~home_router:c.TGm.cp_routers.(k mod n))
    c.TGm.cp_senders;
  let received = ref 0 in
  Array.iter
    (fun m -> Baselines.Sony_vip.on_receive sv m (fun _ -> incr received))
    c.TGm.cp_mobiles;
  Array.iteri
    (fun k m ->
       let target = (k + 1) mod n in
       (* exactly one mobile visits each cell, so a fixed temporary host
          id never collides (50 + k would overflow the /24 at k > 205) *)
       let temp =
         Addr.Prefix.host (Net.Lan.prefix c.TGm.cp_cells.(target)) 50
       in
       ignore
         (Netsim.Engine.schedule (Topology.engine topo) ~at:(move_at k)
            (fun () ->
               Baselines.Sony_vip.move sv m ~lan:c.TGm.cp_cells.(target)
                 ~via_router:c.TGm.cp_routers.(target) ~temp)))
    c.TGm.cp_mobiles;
  let flows = ref 0 in
  Array.iter
    (fun s ->
       Array.iter
         (fun m ->
            incr flows;
            let id = !flows in
            ignore
              (Netsim.Engine.schedule (Topology.engine topo)
                 ~at:(seconds send_time) (fun () ->
                     Baselines.Sony_vip.send sv ~src:s
                       (sample_packet ~id ~src:(Node.primary_addr s)
                          ~dst:(Node.primary_addr m) ()))))
         c.TGm.cp_mobiles)
    c.TGm.cp_senders;
  let (), sim_s =
    timed (fun () -> Topology.run ~until:(seconds horizon) topo)
  in
  { proto = "Sony VIP"; moves = n; flows = !flows;
    ctrl = Baselines.Sony_vip.control_messages sv;
    delivered = !received;
    central_state = Baselines.Sony_vip.router_cache_bytes sv / max 1 n;
    build_s; route_s = 0.0; sim_s }

let run () =
  heading "E16"
    (Printf.sprintf "large-scale internetwork: %d campuses" n_campuses);
  let slug proto =
    String.map
      (fun c -> match c with ' ' | '-' -> '_' | c -> Char.lowercase_ascii c)
      proto
  in
  (* Three heavyweight trials — one 256-campus internetwork per
     protocol — sharing nothing, so the domain pool runs them
     concurrently with bit-identical counters. *)
  let rows =
    sweep ~exp:"E16" [run_mhrp; run_sunshine; run_sony]
      ~trial:(fun ctx runner ->
          let o = runner n_campuses in
          let reg = ctx.Parallel.Sweep.registry in
          let labels =
            [("protocol", slug o.proto);
             ("campuses", string_of_int n_campuses)]
          in
          rec_i ~reg ~exp:"E16" ~labels "ctrl_msgs" o.ctrl;
          rec_f ~reg ~exp:"E16" ~labels "ctrl_per_move"
            (float_of_int o.ctrl /. float_of_int o.moves);
          rec_i ~reg ~exp:"E16" ~labels "delivered" o.delivered;
          rec_i ~reg ~exp:"E16" ~labels "hot_node_state_bytes"
            o.central_state;
          (* wall-clock splits: archived, never gated *)
          rec_f ~reg ~exp:"E16" ~labels ~tol:Obs.Metric.Info "build_ms"
            (o.build_s *. 1000.0);
          rec_f ~reg ~exp:"E16" ~labels ~tol:Obs.Metric.Info "route_ms"
            (o.route_s *. 1000.0);
          rec_f ~reg ~exp:"E16" ~labels ~tol:Obs.Metric.Info "sim_ms"
            (o.sim_s *. 1000.0);
          [ o.proto; i n_campuses; i o.moves; i o.flows; i o.ctrl;
            f1 (float_of_int o.ctrl /. float_of_int o.moves); i o.delivered;
            i o.central_state;
            Printf.sprintf "%.0f" (o.build_s *. 1000.0);
            Printf.sprintf "%.0f" (o.sim_s *. 1000.0) ])
  in
  table
    ~columns:["protocol"; "campuses"; "moves"; "flows"; "ctrl msgs";
              "ctrl/move"; "delivered"; "hot-node state B"; "build ms";
              "sim ms"]
    rows;
  note
    "The paper's Section 7 claims at the scale it argues for: at 256 \
     organisations MHRP's ctrl/move stays flat (each move involves two \
     agents plus the mobile's home agent), Sony floods all %d routers per \
     move, and Sunshine-Postel's single database carries every binding in \
     the internetwork."
    n_campuses

let experiment =
  Experiment.make ~id:"E16"
    ~title:"large-scale internetwork (256 campuses, Section 7 at \
            production scale)"
    run
