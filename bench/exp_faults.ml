(* E17 — MHRP under injected failures (Sections 3 and 5).

   A seeded fault campaign — control-message loss, router crash/reboot,
   link outages, a LAN partition — sweeps loss rate x crash schedule over
   the Figure 1 internetwork and an 8-campus backbone, with the reliable
   control plane ([Config.reliable_control]) off and on.  Measured per
   sweep point: data delivery, control retransmissions, re-registration
   latency after the wireless cell's outage, and the campaign invariants
   (no forwarding loop ever exceeds TTL; packets sent outside disruptive
   windows are all delivered whenever a loss-free control exchange is
   eventually possible). *)

open Exp_util
module TGm = Workload.Topo_gen
module Time = Netsim.Time
module Engine = Netsim.Engine

let config ~rtx =
  Mhrp.Config.make ~advert_interval:(Time.of_sec 1.0)
    ~advert_lifetime:(Time.of_sec 3.0) ~reliable_control:rtx
    ~control_rto:(Time.of_ms 300) ~control_retries:5 ()

type outcome = {
  sent : int;
  delivered : int;
  ctrl_rtx : int;
  gave_up : int;
  ctrl_lost : int;
  fault_events : int;
  ttl_expired : int;
  rereg_us : int option;  (* first registration after the cell outage *)
}

let sum_counters agents =
  List.fold_left
    (fun (rtx, gu) a ->
       let c = Agent.counters a in
       ( rtx + c.Mhrp.Counters.reg_retransmissions
         + c.Mhrp.Counters.connect_retransmissions
         + c.Mhrp.Counters.sync_retransmissions,
         gu + c.Mhrp.Counters.retransmit_gave_up ))
    (0, 0) agents

(* Registration completions on a mobile host, in simulated time. *)
let watch_registrations topo agent =
  let times = ref [] in
  Mhrp.Agent.on_registered agent (fun _fa ->
      times := Engine.now (Topology.engine topo) :: !times);
  times

let first_after times ~at =
  List.fold_left
    (fun acc t ->
       if Time.(t >= at) then
         match acc with
         | Some best when Time.(best <= t) -> acc
         | _ -> Some t
       else acc)
    None (List.rev times)

(* --- Figure 1 sweep point --- *)

let fig_crash_schedule =
  [ Fault.Schedule.Crash
      { node = "R4"; at = Time.of_sec 3.0; duration = Time.of_sec 1.0 };
    Fault.Schedule.Lan_down
      { lan = "netD"; at = Time.of_sec 5.0; duration = Time.of_sec 3.5 } ]

let fig_outage_end = Time.of_sec 8.5

let run_figure1 ~loss ~crash ~rtx =
  let env = fig_setup ~config:(config ~rtx) () in
  let inv = Fault.Invariant.watch env.f.TGm.topo in
  let inj = Fault.Injector.create ~seed:4242 env.f.TGm.topo in
  let schedule =
    (if crash then fig_crash_schedule else [])
    @
    if loss > 0.0 then
      [ Fault.Schedule.Control_loss
          { rate = loss; from_ = Time.zero; until = Time.of_sec 30.0 } ]
    else []
  in
  Fault.Injector.inject inj schedule;
  let reg_times = watch_registrations env.f.TGm.topo env.f.TGm.m in
  fig_move env 1.0 env.f.TGm.net_d;
  Workload.Traffic.cbr env.traffic ~src:env.f.TGm.s ~dst:env.m_addr
    ~start:(Time.of_sec 12.0) ~interval:(Time.of_ms 200) ~count:10 ();
  fig_run ~until:30.0 env;
  let records = Workload.Metrics.records env.metrics in
  let delivered = List.length (Workload.Metrics.delivered env.metrics) in
  let agents =
    [ env.f.TGm.s; env.f.TGm.m; env.f.TGm.r1; env.f.TGm.r2; env.f.TGm.r3;
      env.f.TGm.r4 ]
  in
  let ctrl_rtx, gave_up = sum_counters agents in
  { sent = List.length records;
    delivered;
    ctrl_rtx;
    gave_up;
    ctrl_lost = Fault.Injector.control_losses inj;
    fault_events = Fault.Injector.events inj;
    ttl_expired = Fault.Invariant.ttl_expired inv;
    rereg_us =
      (if crash then
         Option.map
           (fun t -> Time.to_us t - Time.to_us (Time.of_sec 5.0))
           (first_after !reg_times ~at:(Time.of_sec 5.0))
       else None) }

(* --- 8-campus sweep point --- *)

let run_campus ~loss ~rtx =
  let c =
    TGm.campuses ~config:(config ~rtx) ~seed:7 ~campuses:8
      ~mobiles_per_campus:1 ~correspondents:4 ()
  in
  let topo = c.TGm.c_topo in
  let metrics = Workload.Metrics.create topo in
  let traffic = Workload.Traffic.create metrics (Topology.engine topo) in
  Array.iter (Workload.Metrics.watch_receiver metrics) c.TGm.c_mobiles;
  let inv = Fault.Invariant.watch topo in
  let inj = Fault.Injector.create ~seed:4242 topo in
  (* The crash outlives the 3 s advertisement lifetime, so mobile 0
     (roamed to R1's cell) notices the dead agent and re-registers after
     the reboot rather than relying on bounce recovery. *)
  let schedule =
    [ Fault.Schedule.Crash
        { node = "R1"; at = Time.of_sec 3.0; duration = Time.of_sec 4.0 };
      Fault.Schedule.Partition
        { lans = ["cell2"; "cell3"]; at = Time.of_sec 8.0;
          duration = Time.of_sec 2.0 } ]
    @
    if loss > 0.0 then
      [ Fault.Schedule.Control_loss
          { rate = loss; from_ = Time.zero; until = Time.of_sec 30.0 } ]
    else []
  in
  Fault.Injector.inject inj schedule;
  let reg_times = watch_registrations topo c.TGm.c_mobiles.(0) in
  (* every mobile roams to the next campus's cell *)
  let n = Array.length c.TGm.c_mobiles in
  Array.iteri
    (fun i m ->
       Workload.Mobility.move_at topo m ~at:(Time.of_sec 1.0)
         c.TGm.c_cells.((i + 1) mod n))
    c.TGm.c_mobiles;
  Array.iteri
    (fun j s ->
       Workload.Traffic.cbr traffic ~src:s
         ~dst:(Agent.address c.TGm.c_mobiles.(j))
         ~start:(Time.of_sec 12.0) ~interval:(Time.of_ms 100) ~count:10 ())
    c.TGm.c_senders;
  Topology.run ~until:(Time.of_sec 30.0) topo;
  let agents =
    Array.to_list c.TGm.c_routers
    @ Array.to_list c.TGm.c_mobiles
    @ Array.to_list c.TGm.c_senders
  in
  let ctrl_rtx, gave_up = sum_counters agents in
  { sent = List.length (Workload.Metrics.records metrics);
    delivered = List.length (Workload.Metrics.delivered metrics);
    ctrl_rtx;
    gave_up;
    ctrl_lost = Fault.Injector.control_losses inj;
    fault_events = Fault.Injector.events inj;
    ttl_expired = Fault.Invariant.ttl_expired inv;
    rereg_us =
      Option.map
        (fun t -> Time.to_us t - Time.to_us (Time.of_sec 3.0))
        (first_after !reg_times ~at:(Time.of_sec 3.0)) }

(* --- the sweep --- *)

let record ~reg ~labels o =
  rec_i ~reg ~exp:"E17" ~labels "sent" o.sent;
  rec_i ~reg ~exp:"E17" ~labels "delivered" o.delivered;
  rec_i ~reg ~exp:"E17" ~labels "control_retransmissions" o.ctrl_rtx;
  rec_i ~reg ~exp:"E17" ~labels "retransmit_gave_up" o.gave_up;
  rec_i ~reg ~exp:"E17" ~labels "control_losses" o.ctrl_lost;
  rec_i ~reg ~exp:"E17" ~labels "fault_events" o.fault_events;
  rec_i ~reg ~exp:"E17" ~labels "ttl_expired_drops" o.ttl_expired;
  match o.rereg_us with
  | Some us -> rec_ms ~reg ~exp:"E17" ~labels "rereg_ms" (float_of_int us)
  | None -> ()

let onoff b = if b then "on" else "off"

let row ~topo ~loss ~crash ~rtx o =
  [ topo; f1 loss; onoff crash; onoff rtx;
    Printf.sprintf "%d/%d" o.delivered o.sent;
    i o.ctrl_rtx; i o.gave_up; i o.ctrl_lost;
    (match o.rereg_us with
     | Some us -> ms_of_us (float_of_int us)
     | None -> "-");
    i o.ttl_expired ]

(* The sweep grid: every Figure 1 loss x crash x rtx point, the campus
   loss x rtx points, and two repeats of the worst figure1 point whose
   outcomes back the replay-determinism invariant.  Each point is an
   isolated trial, so the whole campaign fans out over the domain
   pool. *)
type point =
  | Fig of { loss : float; crash : bool; rtx : bool }
  | Campus of { loss : float; rtx : bool }
  | Det  (* determinism repeat: worst-case figure1 point, not recorded *)

let points =
  List.concat_map
    (fun loss ->
       List.concat_map
         (fun crash ->
            List.map (fun rtx -> Fig { loss; crash; rtx }) [false; true])
         [false; true])
    [0.0; 0.1; 0.3]
  @ List.concat_map
      (fun loss ->
         List.map (fun rtx -> Campus { loss; rtx }) [false; true])
      [0.0; 0.3]
  @ [Det; Det]

let run () =
  heading "E17" "MHRP under injected failures (fault campaign)";
  let outcomes =
    sweep ~exp:"E17" points ~trial:(fun ctx point ->
        let reg = ctx.Parallel.Sweep.registry in
        match point with
        | Fig { loss; crash; rtx } ->
          let o = run_figure1 ~loss ~crash ~rtx in
          record ~reg
            ~labels:
              [ ("topo", "figure1"); ("loss", f1 loss);
                ("crash", onoff crash); ("rtx", onoff rtx) ]
            o;
          o
        | Campus { loss; rtx } ->
          let o = run_campus ~loss ~rtx in
          record ~reg
            ~labels:
              [ ("topo", "campus8"); ("loss", f1 loss); ("crash", "on");
                ("rtx", onoff rtx) ]
            o;
          o
        | Det -> run_figure1 ~loss:0.3 ~crash:true ~rtx:true)
  in
  let swept, det =
    List.partition (fun (p, _) -> p <> Det) (List.combine points outcomes)
  in
  let rows =
    List.filter_map
      (function
        | Fig { loss; crash; rtx }, o ->
          Some (row ~topo:"figure1" ~loss ~crash ~rtx o)
        | Campus { loss; rtx }, o ->
          Some (row ~topo:"campus8" ~loss ~crash:true ~rtx o)
        | Det, _ -> None)
      swept
  in
  let ttl_total =
    List.fold_left (fun acc (_, o) -> acc + o.ttl_expired) 0 swept
  in
  let live_ok =
    List.for_all
      (fun (p, o) ->
         let rtx =
           match p with
           | Fig { rtx; _ } | Campus { rtx; _ } -> rtx
           | Det -> false
         in
         (not rtx) || o.delivered >= o.sent)
      swept
  in
  table
    ~columns:["topology"; "loss"; "crash"; "rtx"; "delivered";
              "ctrl rtx"; "gave up"; "ctrl lost"; "rereg ms"; "ttl drops"]
    rows;
  (* campaign invariants *)
  let a, b =
    match det with
    | [(_, a); (_, b)] -> (a, b)
    | _ -> assert false
  in
  let deterministic =
    a.delivered = b.delivered && a.ctrl_rtx = b.ctrl_rtx
    && a.ctrl_lost = b.ctrl_lost && a.fault_events = b.fault_events
  in
  rec_flag ~exp:"E17" "no_forwarding_loops" (ttl_total = 0);
  rec_flag ~exp:"E17" "live_periods_delivered" live_ok;
  rec_flag ~exp:"E17" "deterministic" deterministic;
  note "forwarding-loop invariant: %d ttl-expired drops across the campaign"
    ttl_total;
  note "live-period delivery with retransmission: %s"
    (if live_ok then "all delivered" else "VIOLATED");
  note "replay determinism (same seeds, twice): %s"
    (if deterministic then "identical" else "DIVERGED")

let experiment =
  Experiment.make ~id:"E17"
    ~title:"MHRP under injected failures (fault campaign)" run
