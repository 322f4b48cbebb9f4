(* E20 — hierarchy under failure: regional-agent crash recovery and
   inter-region handoff with grace-period forwarding pointers.

   Two parts, both on the two-level regions topology with the soft-state
   recovery timers enabled (1s refresh, 100ms RTO, 3 retries):

   - Crash: a visiting mobile's regional agent's router dies mid-stream.
     Without a standby ("direct") the whole region is cut off until the
     router reboots, after which the mobile's refresh timer re-drives a
     direct home-agent registration; with one ("backup") transit survives
     on the standby router and the mobile fails over to the advertised
     backup regional agent within a few refresh intervals.  Recovery
     latency — the delivery gap measured at the receiver — is gated
     Exact per mode (the simulator is deterministic), the standby must
     beat the reboot path (flag), and no packet may die of TTL
     exhaustion during either recovery (zero forwarding loops, Exact).

   - Handoff: the mobile crosses into a third region while a
     correspondent streams at 10ms spacing through a snooped cache
     entry pointing at the old regional agent.  The handoff's direct
     home-agent registration is lost once, so for one retransmission
     interval every agent still points into the old region.  With
     [Config.regional_grace] = 0 the old regional agent keeps
     re-tunneling along its stale binding to the old foreign agent,
     which transmits each packet onto the old cell toward the mobile's
     departed link-layer address — silent last-hop loss; with a grace
     period the withdrawal installs a forwarding pointer to the new
     regional agent and the stream is diverted there instead.
     Delivered counts are gated Exact per mode, and the pointer mode
     must drop strictly fewer packets (flag) while using the pointer at
     least once (flag). *)

open Exp_util

let exp = "E20"

(* Soft-state timers scaled for simulation: refresh every 1s so a dead
   regional agent is detected within ~1.3s, lifetime long enough that
   expiry never races the scenarios below. *)
let config ?regional_grace () =
  Mhrp.Config.make ~hierarchy:true ~reliable_control:true
    ~control_rto:(Time.of_ms 100) ~control_retries:3
    ~regional_lifetime:(Time.of_sec 60.0)
    ~regional_refresh:(Time.of_sec 1.0) ?regional_grace ()

(* Count packets that died of TTL exhaustion anywhere — a non-zero value
   during recovery means the protocol built a forwarding loop. *)
let watch_ttl_drops topo =
  let drops = ref 0 in
  List.iter
    (fun n ->
       Node.on_drop n (fun _ reason _ ->
           if reason = "ttl-expired" then incr drops))
    (Topology.nodes topo);
  drops

(* CBR stream sender.(0) -> mobile, [spacing] apart over [from_s, to_s];
   returns the send count and a bump-on-delivery cell the caller wires
   to the receiver. *)
let stream rg ~from_s ~to_s ~spacing_ms =
  let topo = rg.TG.rg_topo in
  let sender = rg.TG.rg_senders.(0) in
  let dst = Agent.address rg.TG.rg_mobiles.(0) in
  let sent = ref 0 in
  let t = ref from_s in
  while !t <= to_s +. 1e-9 do
    incr sent;
    let id = !sent in
    ignore
      (Netsim.Engine.schedule (Topology.engine topo)
         ~at:(Time.of_sec !t) (fun () ->
             Agent.send sender
               (sample_packet ~id ~src:(Agent.address sender) ~dst ())));
    t := !t +. (float_of_int spacing_ms /. 1000.0)
  done;
  !sent

(* --- part 1: regional-agent crash ---------------------------------- *)

let crash_at = 2.5

type crash_outcome = {
  mode : string;
  sent : int;
  delivered : int;
  rec_s : float;  (* delivery gap after the crash, seconds *)
  failovers : int;
  refreshes : int;
  ttl_drops : int;
}

let run_crash ~backups =
  let mode = if backups then "backup" else "direct" in
  let rg =
    TG.regions ~config:(config ()) ~backups ~regions:2 ~cells:2
      ~mobiles_per_region:1 ~correspondents:1 ()
  in
  let topo = rg.TG.rg_topo in
  let ttl_drops = watch_ttl_drops topo in
  let m = rg.TG.rg_mobiles.(0) in
  let delivered = ref 0 in
  let last_gap = ref 0.0 in
  Agent.on_app_receive m (fun _ ->
      incr delivered;
      let now = Time.to_sec (Topology.now topo) in
      if now > crash_at && !last_gap = 0.0 then last_gap := now -. crash_at);
  ignore
    (Netsim.Engine.schedule (Topology.engine topo) ~at:(Time.of_sec 1.0)
       (fun () -> Agent.move_to ~topo m rg.TG.rg_cells.(1).(0)));
  (* direct mode: the region's only router reboots after 6s and the
     mobile's refresh loop re-registers straight with the home agent —
     recovery scales with the outage; backup mode: the router stays
     down past the horizon and the standby takes the region over in
     constant time, whatever the outage length *)
  let outage = if backups then 60.0 else 6.0 in
  ignore
    (Netsim.Engine.schedule (Topology.engine topo) ~at:(Time.of_sec crash_at)
       (fun () ->
          Node.crash_for
            (Agent.node rg.TG.rg_regionals.(1))
            (Time.of_sec outage)));
  let sent = stream rg ~from_s:2.0 ~to_s:12.0 ~spacing_ms:100 in
  Topology.run ~until:(Time.of_sec 14.0) topo;
  let c = Agent.counters m in
  { mode; sent; delivered = !delivered; rec_s = !last_gap;
    failovers = c.Mhrp.Counters.region_failovers;
    refreshes = c.Mhrp.Counters.region_retransmissions;
    ttl_drops = !ttl_drops }

let part_crash () =
  let outcomes =
    sweep ~exp ~labels:[("part", "crash")] [false; true]
      ~trial:(fun ctx backups ->
          let o = run_crash ~backups in
          let reg = ctx.Parallel.Sweep.registry in
          let labels = [("mode", o.mode)] in
          rec_i ~reg ~exp ~labels "sent" o.sent;
          rec_i ~reg ~exp ~labels "delivered" o.delivered;
          rec_f ~reg ~exp ~labels "recovery_ms" (o.rec_s *. 1000.0);
          rec_i ~reg ~exp ~labels "region_failovers" o.failovers;
          rec_i ~reg ~exp ~labels "ttl_expired_drops" o.ttl_drops;
          o)
  in
  let direct = List.nth outcomes 0 and backup = List.nth outcomes 1 in
  rec_flag ~exp "backup_recovers_faster"
    (backup.rec_s > 0.0 && backup.rec_s < direct.rec_s);
  rec_flag ~exp "no_forwarding_loops_crash"
    (direct.ttl_drops = 0 && backup.ttl_drops = 0);
  table
    ~columns:
      [ "mode"; "sent"; "delivered"; "recovery ms"; "failovers";
        "refresh retx"; "ttl drops" ]
    (List.map
       (fun o ->
          [ o.mode; i o.sent; i o.delivered; f1 (o.rec_s *. 1000.0);
            i o.failovers; i o.refreshes; i o.ttl_drops ])
       outcomes);
  note
    "the standby regional agent restores delivery in %.1fs vs %.1fs for \
     reboot-and-reregister, with zero TTL-expired drops in both modes"
    backup.rec_s direct.rec_s

(* --- part 2: inter-region handoff grace pointer --------------------- *)

let handoff_at = 4.0

type handoff_outcome = {
  grace : string;
  sent : int;
  delivered : int;
  dropped : int;
  forwards : int;
  loops : int;
  ttl_drops : int;
}

let run_handoff ~grace_s =
  let grace = Printf.sprintf "%.0fs" grace_s in
  let rg =
    TG.regions
      ~config:(config ~regional_grace:(Time.of_sec grace_s) ())
      ~regions:3 ~cells:1 ~mobiles_per_region:1 ~correspondents:1 ()
  in
  let topo = rg.TG.rg_topo in
  let ttl_drops = watch_ttl_drops topo in
  let m = rg.TG.rg_mobiles.(0) in
  let delivered = ref 0 in
  Agent.on_app_receive m (fun _ -> incr delivered);
  List.iter
    (fun (at, cell) ->
       ignore
         (Netsim.Engine.schedule (Topology.engine topo) ~at:(Time.of_sec at)
            (fun () -> Agent.move_to ~topo m rg.TG.rg_cells.(cell).(0))))
    [(1.0, 1); (handoff_at, 2)];
  (* The failure under test: the handoff's home-agent registration is
     lost once (the [Fault.Control_loss] pattern), so the home agent
     keeps pointing into the old region for one retransmission interval.
     The old regional agent keeps serving its stale binding, so the
     stream dead-ends on the old cell at the mobile's departed
     link-layer address — unless the grace-period pointer diverts it to
     the new region first. *)
  let ha_addr = Addr.Prefix.host (Net.Lan.prefix rg.TG.rg_homes.(0)) 1 in
  let lossy = ref false in
  Node.set_fault_filter (Agent.node m)
    (Some
       (fun _ pkt ->
          not
            (!lossy
             && pkt.Ipv4.Packet.proto = Ipv4.Proto.udp
             && Addr.equal pkt.Ipv4.Packet.dst ha_addr)));
  List.iter
    (fun (at, v) ->
       ignore
         (Netsim.Engine.schedule (Topology.engine topo) ~at:(Time.of_sec at)
            (fun () -> lossy := v)))
    [(handoff_at, true); (handoff_at +. 0.05, false)];
  let sent = stream rg ~from_s:3.0 ~to_s:5.0 ~spacing_ms:10 in
  Topology.run ~until:(Time.of_sec 12.0) topo;
  let forwards =
    Array.fold_left
      (fun acc a -> acc + (Agent.counters a).Mhrp.Counters.regional_forwards)
      0 rg.TG.rg_regionals
  in
  let agents =
    Array.to_list rg.TG.rg_regionals
    @ List.concat_map Array.to_list (Array.to_list rg.TG.rg_fas)
    @ Array.to_list rg.TG.rg_mobiles
    @ Array.to_list rg.TG.rg_senders
  in
  let loops =
    List.fold_left
      (fun acc a -> acc + (Agent.counters a).Mhrp.Counters.loops_detected)
      0 agents
  in
  { grace; sent; delivered = !delivered; dropped = sent - !delivered;
    forwards; loops; ttl_drops = !ttl_drops }

let part_handoff () =
  let outcomes =
    sweep ~exp ~labels:[("part", "handoff")] [0.0; 2.0]
      ~trial:(fun ctx grace_s ->
          let o = run_handoff ~grace_s in
          let reg = ctx.Parallel.Sweep.registry in
          let labels = [("grace", o.grace)] in
          rec_i ~reg ~exp ~labels "sent" o.sent;
          rec_i ~reg ~exp ~labels "delivered" o.delivered;
          rec_i ~reg ~exp ~labels "dropped" o.dropped;
          rec_i ~reg ~exp ~labels "regional_forwards" o.forwards;
          rec_i ~reg ~exp ~labels "loops_detected" o.loops;
          rec_i ~reg ~exp ~labels "ttl_expired_drops" o.ttl_drops;
          o)
  in
  let without = List.nth outcomes 0 and with_p = List.nth outcomes 1 in
  rec_flag ~exp "pointer_drops_strictly_fewer"
    (with_p.dropped < without.dropped);
  rec_flag ~exp "pointer_used" (with_p.forwards >= 1);
  table
    ~columns:
      [ "grace"; "sent"; "delivered"; "dropped"; "pointer forwards";
        "loops"; "ttl drops" ]
    (List.map
       (fun o ->
          [ o.grace; i o.sent; i o.delivered; i o.dropped; i o.forwards;
            i o.loops; i o.ttl_drops ])
       outcomes);
  note
    "%d grace-period pointer forward(s) — each reporting the new \
     regional agent so stale caches rebind — cut handoff loss from %d \
     to %d of %d"
    with_p.forwards without.dropped with_p.dropped with_p.sent

let run () =
  heading "E20"
    "hierarchy under failure: regional crash recovery + handoff grace \
     pointers";
  part_crash ();
  part_handoff ()

let experiment =
  Experiment.make ~id:"E20"
    ~title:"regional-agent crash recovery and handoff forwarding-pointer \
            sweep"
    run
