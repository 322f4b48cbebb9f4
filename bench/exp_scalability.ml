(* E6 — scalability comparison (Section 7).

   For a growing number of campuses (one mobile host per campus, each
   moving once to the next campus's cell; a few correspondents then sending
   to every mobile), we count each protocol's control messages and where
   its location state lives.  The paper's claims: MHRP needs no global
   database, no broadcast/multicast and no flooding, so its control cost
   per move is flat in the size of the internetwork, and its state is
   spread across the home agents each organisation runs for itself;
   Sunshine-Postel concentrates all state in one global database, Columbia
   multicasts among all MSRs on a cache miss, and Sony floods every router
   on every move. *)

open Exp_util
module TGm = Workload.Topo_gen
module Time = Netsim.Time

type outcome = {
  proto : string;
  moves : int;
  flows : int;
  ctrl : int;
  delivered : int;
  central_state : int;  (** Bytes at the most-loaded single node. *)
}

let seconds s = Time.of_sec s

(* --- MHRP --- *)

let run_mhrp n =
  let c = TGm.campuses ~campuses:n ~mobiles_per_campus:1 ~correspondents:3 () in
  let topo = c.TGm.c_topo in
  let received = ref 0 in
  Array.iter
    (fun m -> Agent.on_app_receive m (fun _ -> incr received))
    c.TGm.c_mobiles;
  Array.iteri
    (fun k m ->
       ignore
         (Netsim.Engine.schedule (Topology.engine topo)
            ~at:(seconds (1.0 +. (0.05 *. float_of_int k)))
            (fun () ->
               Agent.move_to ~topo m c.TGm.c_cells.((k + 1) mod n))))
    c.TGm.c_mobiles;
  let flows = ref 0 in
  Array.iter
    (fun s ->
       Array.iter
         (fun m ->
            incr flows;
            ignore
              (Netsim.Engine.schedule (Topology.engine topo)
                 ~at:(seconds 5.0) (fun () ->
                     Agent.send s
                       (sample_packet ~id:!flows ~src:(Agent.address s)
                          ~dst:(Agent.address m) ()))))
         c.TGm.c_mobiles)
    c.TGm.c_senders;
  Topology.run ~until:(seconds 9.0) topo;
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
    delivered = !received; central_state }

(* --- Sunshine-Postel --- *)

let run_sunshine n =
  let c = TGm.campuses_plain ~campuses:n ~mobiles_per_campus:1
      ~correspondents:3 () in
  let topo = c.TGm.cp_topo in
  let db = Topology.add_host topo "DB" c.TGm.cp_backbone 200 in
  Topology.compute_routes topo;
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
         (Netsim.Engine.schedule (Topology.engine topo)
            ~at:(seconds (1.0 +. (0.05 *. float_of_int k)))
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
                 ~at:(seconds 5.0) (fun () ->
                     Baselines.Sunshine_postel.send sp ~src:s
                       (sample_packet ~id ~src:(Node.primary_addr s)
                          ~dst:(Node.primary_addr m) ()))))
         c.TGm.cp_mobiles)
    c.TGm.cp_senders;
  Topology.run ~until:(seconds 9.0) topo;
  { proto = "Sunshine-Postel"; moves = n; flows = !flows;
    ctrl = Baselines.Sunshine_postel.control_messages sp;
    delivered = !received;
    central_state = Baselines.Sunshine_postel.db_state_bytes sp }

(* --- Columbia --- *)

let run_columbia n =
  let c = TGm.campuses_plain ~campuses:n ~mobiles_per_campus:1
      ~correspondents:3 () in
  let topo = c.TGm.cp_topo in
  let co = Baselines.Columbia.create topo in
  let msrs =
    Array.mapi
      (fun k r -> Baselines.Columbia.add_msr co r ~cell:c.TGm.cp_cells.(k))
      c.TGm.cp_routers
  in
  Array.iteri
    (fun k m -> Baselines.Columbia.make_mobile co m ~home:msrs.(k))
    c.TGm.cp_mobiles;
  let received = ref 0 in
  Array.iter
    (fun m ->
       Node.set_proto_handler m Ipv4.Proto.udp (fun _ _ -> incr received))
    c.TGm.cp_mobiles;
  Array.iteri
    (fun k m ->
       ignore
         (Netsim.Engine.schedule (Topology.engine topo)
            ~at:(seconds (1.0 +. (0.05 *. float_of_int k)))
            (fun () ->
               Baselines.Columbia.move co m ~to_msr:msrs.((k + 1) mod n))))
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
                 ~at:(seconds 5.0) (fun () ->
                     Baselines.Columbia.send co ~src:s
                       (sample_packet ~id ~src:(Node.primary_addr s)
                          ~dst:(Node.primary_addr m) ()))))
         c.TGm.cp_mobiles)
    c.TGm.cp_senders;
  Topology.run ~until:(seconds 9.0) topo;
  { proto = "Columbia"; moves = n; flows = !flows;
    ctrl = Baselines.Columbia.control_messages co;
    delivered = !received;
    central_state = Baselines.Columbia.msr_cache_bytes co / max 1 n }

(* --- Sony VIP --- *)

let run_sony n =
  let c = TGm.campuses_plain ~campuses:n ~mobiles_per_campus:1
      ~correspondents:3 () in
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
       let temp =
         Addr.Prefix.host (Net.Lan.prefix c.TGm.cp_cells.(target)) (50 + k)
       in
       ignore
         (Netsim.Engine.schedule (Topology.engine topo)
            ~at:(seconds (1.0 +. (0.05 *. float_of_int k)))
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
                 ~at:(seconds 5.0) (fun () ->
                     Baselines.Sony_vip.send sv ~src:s
                       (sample_packet ~id ~src:(Node.primary_addr s)
                          ~dst:(Node.primary_addr m) ()))))
         c.TGm.cp_mobiles)
    c.TGm.cp_senders;
  Topology.run ~until:(seconds 9.0) topo;
  { proto = "Sony VIP"; moves = n; flows = !flows;
    ctrl = Baselines.Sony_vip.control_messages sv;
    delivered = !received;
    central_state = Baselines.Sony_vip.router_cache_bytes sv / max 1 n }

(* --- Matsushita (autonomous) --- *)

let run_matsushita n =
  let c = TGm.campuses_plain ~campuses:n ~mobiles_per_campus:1
      ~correspondents:3 () in
  let topo = c.TGm.cp_topo in
  let ma = Baselines.Matsushita.create topo Baselines.Matsushita.Autonomous in
  Array.iter (Baselines.Matsushita.add_pfs ma) c.TGm.cp_routers;
  Array.iteri
    (fun k m ->
       Baselines.Matsushita.make_mobile ma m ~pfs:c.TGm.cp_routers.(k))
    c.TGm.cp_mobiles;
  let received = ref 0 in
  Array.iter
    (fun m -> Baselines.Matsushita.on_receive ma m (fun _ -> incr received))
    c.TGm.cp_mobiles;
  Array.iteri
    (fun k m ->
       let target = (k + 1) mod n in
       let temp =
         Addr.Prefix.host (Net.Lan.prefix c.TGm.cp_cells.(target)) (50 + k)
       in
       ignore
         (Netsim.Engine.schedule (Topology.engine topo)
            ~at:(seconds (1.0 +. (0.05 *. float_of_int k)))
            (fun () ->
               Baselines.Matsushita.move ma m ~lan:c.TGm.cp_cells.(target)
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
                 ~at:(seconds 5.0) (fun () ->
                     Baselines.Matsushita.send ma ~src:s
                       (sample_packet ~id ~src:(Node.primary_addr s)
                          ~dst:(Node.primary_addr m) ()))))
         c.TGm.cp_mobiles)
    c.TGm.cp_senders;
  Topology.run ~until:(seconds 9.0) topo;
  { proto = "Matsushita"; moves = n; flows = !flows;
    ctrl = Baselines.Matsushita.control_messages ma;
    delivered = !received; central_state = 8 }

(* --- IBM LSRR --- *)

let run_ibm n =
  let c = TGm.campuses_plain ~campuses:n ~mobiles_per_campus:1
      ~correspondents:3 () in
  let topo = c.TGm.cp_topo in
  let ib = Baselines.Ibm_lsrr.create topo in
  let bases =
    Array.mapi
      (fun k r -> Baselines.Ibm_lsrr.add_base ib r ~lan:c.TGm.cp_cells.(k))
      c.TGm.cp_routers
  in
  Array.iteri
    (fun k m -> Baselines.Ibm_lsrr.make_mobile ib m ~home_base:bases.(k))
    c.TGm.cp_mobiles;
  let received = ref 0 in
  Array.iter
    (fun m -> Baselines.Ibm_lsrr.on_receive ib m (fun _ -> incr received))
    c.TGm.cp_mobiles;
  Array.iteri
    (fun k m ->
       ignore
         (Netsim.Engine.schedule (Topology.engine topo)
            ~at:(seconds (1.0 +. (0.05 *. float_of_int k)))
            (fun () ->
               Baselines.Ibm_lsrr.move ib m ~base:bases.((k + 1) mod n))))
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
                 ~at:(seconds 5.0) (fun () ->
                     Baselines.Ibm_lsrr.send ib ~src:s
                       (sample_packet ~id ~src:(Node.primary_addr s)
                          ~dst:(Node.primary_addr m) ()))))
         c.TGm.cp_mobiles)
    c.TGm.cp_senders;
  Topology.run ~until:(seconds 9.0) topo;
  { proto = "IBM LSRR"; moves = n; flows = !flows;
    ctrl = Baselines.Ibm_lsrr.control_messages ib;
    delivered = !received; central_state = 8 }

let run () =
  heading "E6" "control traffic and state scaling (Section 7)";
  let slug proto =
    String.map
      (fun c -> match c with ' ' | '-' -> '_' | c -> Char.lowercase_ascii c)
      proto
  in
  (* The grid: campus count x protocol, each point an isolated trial
     (own topology, own engine, fixed seeds) run on the domain pool.
     64 joined the sweep once the indexed-topology overhaul made it
     affordable; the full 256-campus internetwork is E16's job. *)
  let points =
    List.concat_map
      (fun n ->
         List.map
           (fun runner -> (n, runner))
           [ run_mhrp; run_sunshine; run_columbia; run_sony;
             run_matsushita; run_ibm ])
      [4; 8; 16; 64]
  in
  let rows =
    sweep ~exp:"E6" points ~trial:(fun ctx (n, runner) ->
        let o = runner n in
        let reg = ctx.Parallel.Sweep.registry in
        let labels =
          [("protocol", slug o.proto); ("campuses", string_of_int n)]
        in
        rec_i ~reg ~exp:"E6" ~labels "ctrl_msgs" o.ctrl;
        rec_f ~reg ~exp:"E6" ~labels "ctrl_per_move"
          (float_of_int o.ctrl /. float_of_int o.moves);
        rec_i ~reg ~exp:"E6" ~labels "delivered" o.delivered;
        rec_i ~reg ~exp:"E6" ~labels "hot_node_state_bytes" o.central_state;
        [ o.proto; i n; i o.moves; i o.flows; i o.ctrl;
          f1 (float_of_int o.ctrl /. float_of_int o.moves);
          i o.delivered; i o.central_state ])
  in
  table
    ~columns:["protocol"; "campuses"; "moves"; "flows"; "ctrl msgs";
              "ctrl/move"; "delivered"; "hot-node state B"]
    rows;
  note
    "MHRP's ctrl/move is flat as the internetwork grows (each move talks \
     only to the two agents involved and its own home agent); Sony's \
     grows linearly (per-move flooding of every router); Columbia pays a \
     multicast per cache miss; Sunshine-Postel is cheap per move but \
     funnels every lookup through one database whose state grows with the \
     world's mobile population."

let experiment =
  Experiment.make ~id:"E6"
    ~title:"control traffic and state scaling (Section 7)" run
