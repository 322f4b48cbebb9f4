(* Tests for lib/fault — declarative failure schedules compiled onto the
   engine (ledger, windows, determinism), control-message loss semantics,
   and the reliable control plane healing injected losses. *)

module Time = Netsim.Time
module Addr = Ipv4.Addr
module Node = Net.Node
module Topology = Net.Topology
module Agent = Mhrp.Agent
module TG = Workload.Topo_gen

let check = Alcotest.check

let reliable_config =
  Mhrp.Config.make ~reliable_control:true ~control_rto:(Time.of_ms 300)
    ~control_retries:5 ()

(* Deterministic loss without the injector's probabilistic stream: drop
   the node's first outgoing port-434 datagram to each distinct peer, so
   every control exchange (Fa_connect to the foreign agent, Reg_request
   to the home agent, ...) loses exactly its original. *)
let drop_first_control_per_peer node =
  let dropped = ref 0 in
  let seen = Hashtbl.create 4 in
  Node.set_fault_filter node
    (Some
       (fun _ pkt ->
          if
            pkt.Ipv4.Packet.proto = Ipv4.Proto.udp
            && (match Ipv4.Udp.decode pkt.Ipv4.Packet.payload with
                | u -> u.Ipv4.Udp.dst_port = Mhrp.Control.port
                | exception Invalid_argument _ -> false)
            && not (Hashtbl.mem seen pkt.Ipv4.Packet.dst)
          then begin
            Hashtbl.replace seen pkt.Ipv4.Packet.dst ();
            incr dropped;
            false
          end
          else true));
  dropped

(* The control message a port-434 datagram carries, if [pkt] is one. *)
let control_of (pkt : Ipv4.Packet.t) =
  if pkt.Ipv4.Packet.proto <> Ipv4.Proto.udp then None
  else
    match Ipv4.Udp.decode pkt.Ipv4.Packet.payload with
    | u when u.Ipv4.Udp.dst_port = Mhrp.Control.port ->
      Mhrp.Control.decode u.Ipv4.Udp.data
    | _ | (exception Invalid_argument _) -> None

(* A binding mirror under reliable control, with one move of the mobile
   host it mirrors scheduled: the [primary] syncs each binding to its
   [peer], [is_sync] tells its syncs, [resent] reads the primary's
   resend counter and [binding] an agent's copy of the binding. *)
type mirror_world = {
  topo : Topology.t;
  primary : Agent.t;
  peer : Agent.t;
  is_sync : Mhrp.Control.t -> bool;
  resent : Mhrp.Counters.t -> int;
  binding : Agent.t -> Addr.t option;
}

(* Section 2's replicated home agents: R2 and a replica on network B. *)
let replica_world () =
  let f = TG.figure1 ~config:reliable_config () in
  let topo = f.TG.topo in
  let h2n = Topology.add_host topo ~router:false "H2" f.TG.net_b 2 in
  Topology.compute_routes topo;
  let h2 = Agent.create ~config:reliable_config h2n in
  Agent.enable_home_agent ~replicas:[Agent.address f.TG.r2] h2;
  Agent.enable_home_agent ~replicas:[Agent.address h2] f.TG.r2;
  let m = Agent.address f.TG.m in
  Agent.add_mobile h2 m;
  Workload.Mobility.move_at topo f.TG.m ~at:(Time.of_sec 1.0) f.TG.net_d;
  { topo; primary = f.TG.r2; peer = h2;
    is_sync = (function Mhrp.Control.Ha_sync _ -> true | _ -> false);
    resent = (fun c -> c.Mhrp.Counters.sync_retransmissions);
    binding =
      (fun a ->
         match Agent.home_agent a with
         | Some ha -> Mhrp.Home_agent.location ha m
         | None -> None) }

(* The hierarchy's standby: region 1's regional agent and its backup,
   M0 visiting a cell of region 1. *)
let backup_world () =
  let config =
    Mhrp.Config.make ~hierarchy:true ~reliable_control:true
      ~control_rto:(Time.of_ms 300) ~control_retries:5 ()
  in
  let rg =
    TG.regions ~config ~backups:true ~regions:2 ~cells:2
      ~mobiles_per_region:1 ~correspondents:1 ()
  in
  let m0 = rg.TG.rg_mobiles.(0) in
  let m = Agent.address m0 in
  Workload.Mobility.move_at rg.TG.rg_topo m0 ~at:(Time.of_sec 1.0)
    rg.TG.rg_cells.(1).(0);
  { topo = rg.TG.rg_topo; primary = rg.TG.rg_regionals.(1);
    peer = rg.TG.rg_backups.(1);
    is_sync = (function Mhrp.Control.Region_sync _ -> true | _ -> false);
    resent = (fun c -> c.Mhrp.Counters.region_sync_retransmissions);
    binding =
      (fun a ->
         match Agent.regional_agent a with
         | Some r -> Mhrp.Regional.find r m
         | None -> None) }

(* The primary's first sync to its peer vanishes: resends alone must
   bring the peer's copy level with the primary's.  Every sync the
   primary sends passes its fault filter, so the originals are the
   syncs seen there less the resends counted. *)
let lost_sync_case name world =
  Alcotest.test_case name `Quick (fun () ->
      let w = world () in
      let peer = Agent.address w.peer in
      let on_wire = ref 0 in
      Node.set_fault_filter (Agent.node w.primary)
        (Some
           (fun _ pkt ->
              match control_of pkt with
              | Some msg
                when w.is_sync msg && Addr.equal pkt.Ipv4.Packet.dst peer ->
                incr on_wire;
                !on_wire > 1
              | Some _ | None -> true));
      Topology.run ~until:(Time.of_sec 8.0) w.topo;
      let resent = w.resent (Agent.counters w.primary) in
      check Alcotest.int "one original sync" 1 (!on_wire - resent);
      check Alcotest.bool "sync retransmitted" true (resent >= 1);
      check Alcotest.bool "primary holds the binding" true
        (w.binding w.primary <> None);
      check
        (Alcotest.option (Alcotest.testable Addr.pp Addr.equal))
        "peer converged anyway" (w.binding w.primary) (w.binding w.peer))

let injector_tests =
  [ Alcotest.test_case "ledger records every transition, in order" `Quick
      (fun () ->
         let f = TG.figure1 () in
         let inj = Fault.Injector.create f.TG.topo in
         Fault.Injector.inject inj
           [ Fault.Schedule.Lan_down
               { lan = "netA"; at = Time.of_sec 2.0;
                 duration = Time.of_sec 1.0 };
             Fault.Schedule.Crash
               { node = "R4"; at = Time.of_sec 2.5;
                 duration = Time.of_sec 0.5 } ];
         Topology.run ~until:(Time.of_sec 5.0) f.TG.topo;
         (* lan-up and reboot coincide at 3.0 s; the flap was injected
            first, so its timer fires first *)
         check (Alcotest.list Alcotest.string) "transitions"
           ["lan-down netA"; "crash R4"; "lan-up netA"; "reboot R4"]
           (List.map snd (Fault.Injector.ledger inj));
         check Alcotest.bool "ledger times ascend" true
           (let ts = List.map fst (Fault.Injector.ledger inj) in
            List.sort Time.compare ts = ts);
         check Alcotest.int "events" 4 (Fault.Injector.events inj);
         check Alcotest.int "flaps" 1 (Fault.Injector.lan_flaps inj);
         check Alcotest.int "crashes" 1 (Fault.Injector.crashes inj);
         check
           (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
           "disruptive windows, sorted"
           [(Time.of_sec 2.0, Time.of_sec 3.0);
            (Time.of_sec 2.5, Time.of_sec 3.0)]
           (Fault.Injector.windows inj));
    Alcotest.test_case "unknown names are rejected" `Quick (fun () ->
        let f = TG.figure1 () in
        let inj = Fault.Injector.create f.TG.topo in
        Alcotest.check_raises "bad lan"
          (Invalid_argument "Fault.Injector: unknown lan nosuch") (fun () ->
            Fault.Injector.inject inj
              [ Fault.Schedule.Lan_down
                  { lan = "nosuch"; at = Time.zero;
                    duration = Time.of_sec 1.0 } ]));
    Alcotest.test_case "total control loss silences control, not data"
      `Quick (fun () ->
        (* 1 s advertisements, so control traffic exists inside the window *)
        let config =
          Mhrp.Config.make ~advert_interval:(Time.of_sec 1.0)
            ~advert_lifetime:(Time.of_sec 3.0) ()
        in
        let f = TG.figure1 ~config () in
        let topo = f.TG.topo in
        let metrics = Workload.Metrics.create topo in
        let traffic =
          Workload.Traffic.create metrics (Topology.engine topo)
        in
        Workload.Metrics.watch_receiver metrics f.TG.m;
        let inj = Fault.Injector.create topo in
        let inv = Fault.Invariant.watch topo in
        Fault.Injector.inject inj
          [ Fault.Schedule.Control_loss
              { rate = 1.0; from_ = Time.zero; until = Time.of_sec 10.0 } ];
        (* M stays home: plain LAN delivery needs no control exchange *)
        Workload.Traffic.cbr traffic ~src:f.TG.s
          ~dst:(Agent.address f.TG.m) ~start:(Time.of_sec 1.0)
          ~interval:(Time.of_ms 100) ~count:3 ();
        Topology.run ~until:(Time.of_sec 5.0) topo;
        check Alcotest.int "data delivered" 3
          (List.length (Workload.Metrics.delivered metrics));
        check Alcotest.bool "control was being dropped" true
          (Fault.Injector.control_losses inj > 0);
        check Alcotest.int "one loss window" 1
          (Fault.Injector.loss_windows inj);
        check Alcotest.int "every loss recorded as a fault drop"
          (Fault.Injector.control_losses inj)
          (Fault.Invariant.fault_losses inv));
    Alcotest.test_case "same seed, same campaign" `Quick (fun () ->
        let campaign () =
          let f = TG.figure1 () in
          let topo = f.TG.topo in
          let metrics = Workload.Metrics.create topo in
          let traffic =
            Workload.Traffic.create metrics (Topology.engine topo)
          in
          Workload.Metrics.watch_receiver metrics f.TG.m;
          let inj = Fault.Injector.create ~seed:99 topo in
          Fault.Injector.inject inj
            [ Fault.Schedule.Control_loss
                { rate = 0.5; from_ = Time.zero; until = Time.of_sec 20.0 };
              Fault.Schedule.Crash
                { node = "R4"; at = Time.of_sec 2.0;
                  duration = Time.of_sec 1.0 } ];
          Workload.Mobility.move_at topo f.TG.m ~at:(Time.of_sec 1.0)
            f.TG.net_d;
          Workload.Traffic.cbr traffic ~src:f.TG.s
            ~dst:(Agent.address f.TG.m) ~start:(Time.of_sec 5.0)
            ~interval:(Time.of_ms 200) ~count:5 ();
          Topology.run ~until:(Time.of_sec 20.0) topo;
          ( List.length (Workload.Metrics.delivered metrics),
            Fault.Injector.control_losses inj,
            List.map snd (Fault.Injector.ledger inj) )
        in
        let a = campaign () and b = campaign () in
        check Alcotest.bool "bit-identical outcome" true (a = b)) ]

let reliable_control_tests =
  [ Alcotest.test_case
      "lost registration messages are retransmitted until acked" `Quick
      (fun () ->
         let f = TG.figure1 ~config:reliable_config () in
         let topo = f.TG.topo in
         let registered = ref [] in
         Agent.on_registered f.TG.m (fun fa -> registered := fa :: !registered);
         (* the mobile's original Fa_connect and Reg_request both vanish;
            only retransmission can complete this *)
         let dropped = drop_first_control_per_peer (Agent.node f.TG.m) in
         Workload.Mobility.move_at topo f.TG.m ~at:(Time.of_sec 1.0)
           f.TG.net_d;
         Topology.run ~until:(Time.of_sec 8.0) topo;
         check Alcotest.int "both originals lost" 2 !dropped;
         check Alcotest.bool "registration completed anyway" true
           (!registered <> []);
         let c = Agent.counters f.TG.m in
         check Alcotest.bool "request retransmitted" true
           (c.Mhrp.Counters.reg_retransmissions >= 1);
         check Alcotest.bool "connect retransmitted" true
           (c.Mhrp.Counters.connect_retransmissions >= 1);
         match Agent.home_agent f.TG.r2 with
         | Some ha ->
           check
             (Alcotest.option (Alcotest.testable Addr.pp Addr.equal))
             "home agent learned the location" (Some (Addr.host 4 1))
             (Mhrp.Home_agent.location ha (Agent.address f.TG.m))
         | None -> Alcotest.fail "r2 must be a home agent");
    Alcotest.test_case
      "without reliable control the same loss strands the host" `Quick
      (fun () ->
         let f = TG.figure1 () in
         let topo = f.TG.topo in
         let registered = ref [] in
         Agent.on_registered f.TG.m (fun fa -> registered := fa :: !registered);
         let dropped = drop_first_control_per_peer (Agent.node f.TG.m) in
         Workload.Mobility.move_at topo f.TG.m ~at:(Time.of_sec 1.0)
           f.TG.net_d;
         Topology.run ~until:(Time.of_sec 8.0) topo;
         (* without retransmission the host never gets past the lost
            Fa_connect, so the Reg_request is never even sent *)
         check Alcotest.int "only the connect was lost" 1 !dropped;
         check Alcotest.bool "never completed" true (!registered = []);
         let c = Agent.counters f.TG.m in
         check Alcotest.int "nothing retransmitted" 0
           (c.Mhrp.Counters.reg_retransmissions
            + c.Mhrp.Counters.connect_retransmissions));
    lost_sync_case "lost Ha_sync is retransmitted until the replica acks"
      replica_world;
    lost_sync_case "lost Region_sync is retransmitted until the backup acks"
      backup_world ]

let suite =
  [ ("fault.injector", injector_tests);
    ("fault.reliable-control", reliable_control_tests) ]
