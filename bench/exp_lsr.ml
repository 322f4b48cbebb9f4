(* E18 — distributed link-state routing: convergence and cost.

   Everything before this experiment ran over the omniscient routing
   oracle (Net.Routing): tables appear instantly, for free.  E18 replaces
   the oracle with lib/lsr — hellos, LSA flooding and per-router SPF as
   real packets and timers inside the simulation — and measures what the
   oracle hides:

   - cold-start convergence time across topology size x hello timer,
     with the converged tables checked loop-free and path-equivalent to
     the oracle;
   - reconvergence around a router crash and a link flap under a live
     MHRP workload (Figure 1), with delivery counted through the outage
     and the no-forwarding-loop invariant watched throughout;
   - the control-byte ledger: link-state routing traffic vs MHRP
     mobility control traffic on the same wires, and the oracle's free
     global recomputes vs LSR's per-router SPF runs. *)

open Exp_util
module TGm = Workload.Topo_gen
module Time = Netsim.Time
module Engine = Netsim.Engine
module Lan = Net.Lan

let lsr_config ~hello_ms =
  Lsr.Config.make ~hello_interval:(Time.of_ms hello_ms)
    ~refresh_interval:(Time.of_sec 10.0) ()

(* Convergence watcher: a periodic poll that timestamps the first instant
   the domain is synchronized.  Clearing [converged_at] (at a fault's heal
   time) re-arms it to catch the reconvergence instant.  The poll is an
   ordinary engine event, so the measurement is deterministic. *)
type watcher = { mutable converged_at : Time.t option }

let watch topo d ~every =
  let w = { converged_at = None } in
  let eng = Topology.engine topo in
  Engine.every eng ~interval:every (fun () ->
      if w.converged_at = None && Lsr.Domain.synchronized d then
        w.converged_at <- Some (Engine.now eng));
  w

(* --- Cold-start trial: size x hello timer --- *)

type cold = {
  routers : int;
  conv_us : int option;
  spf_runs : int;
  lsas_sent : int;
  hellos_sent : int;
  lsr_bytes : int;
  equiv : bool;
}

let run_cold ~campuses ~hello_ms =
  let topo =
    if campuses = 0 then (TGm.figure1_plain ()).TGm.p_topo
    else
      (TGm.campuses_plain ~campuses ~mobiles_per_campus:1 ~correspondents:2
         ())
        .TGm.cp_topo
  in
  let d = Lsr.Domain.create ~config:(lsr_config ~hello_ms) topo in
  Lsr.Domain.start d;
  let w = watch topo d ~every:(Time.of_ms 25) in
  Topology.run ~until:(Time.of_sec 15.0) topo;
  let c = Lsr.Domain.totals d in
  { routers = List.length (Lsr.Domain.routers d);
    conv_us = Option.map Time.to_us w.converged_at;
    spf_runs = c.Lsr.Counters.spf_runs;
    lsas_sent = c.Lsr.Counters.lsas_sent;
    hellos_sent = c.Lsr.Counters.hellos_sent;
    lsr_bytes = Lsr.Domain.control_bytes d;
    equiv = Lsr.Domain.equivalent d }

(* --- MHRP-over-LSR trial: delivery through reconvergence --- *)

type mhrp_outcome = {
  sent : int;
  delivered : int;
  reconv_us : int option;  (* from the heal (or from zero when no fault) *)
  ttl_expired : int;
  lsr_wire_bytes : int;  (* every lsrp transmission, per LAN hop *)
  mhrp_ctrl_bytes : int;  (* every MHRP control transmission, per LAN hop *)
  m_equiv : bool;
  m_spf_runs : int;
}

let fault_at = Time.of_sec 10.0
let heal_at = Time.of_sec 11.0

let run_mhrp ~fault =
  let f =
    TGm.figure1
      ~config:
        (Mhrp.Config.make ~advert_interval:(Time.of_sec 1.0)
           ~advert_lifetime:(Time.of_sec 3.0) ())
      ~seed:11 ()
  in
  let topo = f.TGm.topo in
  let metrics = Workload.Metrics.create topo in
  let traffic = Workload.Traffic.create metrics (Topology.engine topo) in
  Workload.Metrics.watch_receiver metrics f.TGm.m;
  let inv = Fault.Invariant.watch topo in
  (* The control-byte ledger: one tap pair per node, every LAN traversal
     counted, classified by the fault layer's own control test (MHRP
     registration, advertisement and tunnel traffic) vs IP protocol 89
     (link-state routing). *)
  let mhrp_ctrl = ref 0 and lsr_wire = ref 0 in
  let tap _ pkt =
    let len = Ipv4.Packet.total_length pkt in
    if pkt.Ipv4.Packet.proto = Ipv4.Proto.lsrp then
      lsr_wire := !lsr_wire + len
    else if Fault.Injector.is_control pkt then mhrp_ctrl := !mhrp_ctrl + len
  in
  List.iter
    (fun n ->
       Node.on_transmit n tap;
       Node.on_broadcast n tap)
    (Topology.nodes topo);
  let d = Lsr.Domain.create ~config:(lsr_config ~hello_ms:100) topo in
  Lsr.Domain.start d;
  let w = watch topo d ~every:(Time.of_ms 25) in
  (match fault with
   | `None -> ()
   | `Crash ->
     let inj = Fault.Injector.create ~seed:4242 topo in
     Fault.Injector.inject inj
       [ Fault.Schedule.Crash
           { node = "R3"; at = fault_at;
             duration = Time.diff heal_at fault_at } ]
   | `Flap ->
     let inj = Fault.Injector.create ~seed:4242 topo in
     Fault.Injector.inject inj
       [ Fault.Schedule.Lan_down
           { lan = "netC"; at = fault_at;
             duration = Time.diff heal_at fault_at } ]);
  (* M roams to the wireless cell once routing has settled; the CBR
     stream then runs straight through the fault window. *)
  Workload.Mobility.move_at topo f.TGm.m ~at:(Time.of_sec 5.0) f.TGm.net_d;
  Workload.Traffic.cbr traffic ~src:f.TGm.s ~dst:(Agent.address f.TGm.m)
    ~start:(Time.of_sec 8.0) ~interval:(Time.of_ms 200) ~count:40 ();
  if fault <> `None then
    ignore
      (Engine.schedule (Topology.engine topo) ~at:heal_at (fun () ->
           w.converged_at <- None));
  Topology.run ~until:(Time.of_sec 20.0) topo;
  let base = if fault = `None then Time.zero else heal_at in
  { sent = List.length (Workload.Metrics.records metrics);
    delivered = List.length (Workload.Metrics.delivered metrics);
    reconv_us =
      Option.map (fun t -> Time.to_us t - Time.to_us base) w.converged_at;
    ttl_expired = Fault.Invariant.ttl_expired inv;
    lsr_wire_bytes = !lsr_wire;
    mhrp_ctrl_bytes = !mhrp_ctrl;
    m_equiv = Lsr.Domain.equivalent d;
    m_spf_runs = (Lsr.Domain.totals d).Lsr.Counters.spf_runs }

(* --- the sweep --- *)

type point =
  | Cold of { size : string; campuses : int; hello_ms : int }
  | Mhrp_fault of { fault : [`None | `Crash | `Flap]; name : string }
  | Det  (* determinism repeat of the crash point, not recorded *)

let points =
  List.concat_map
    (fun (size, campuses) ->
       List.map
         (fun hello_ms -> Cold { size; campuses; hello_ms })
         [100; 500])
    [("figure1", 0); ("campus8", 8); ("campus64", 64)]
  @ [ Mhrp_fault { fault = `None; name = "none" };
      Mhrp_fault { fault = `Crash; name = "crash" };
      Mhrp_fault { fault = `Flap; name = "flap" };
      Det; Det ]

let record_cold ~reg ~labels (o : cold) =
  let r = rec_i ~reg ~exp:"E18" ~labels in
  r "routers" o.routers;
  r "conv_us" (Option.value ~default:(-1) o.conv_us);
  r "spf_runs" o.spf_runs;
  r "lsas_sent" o.lsas_sent;
  r "hellos_sent" o.hellos_sent;
  r "lsr_bytes" o.lsr_bytes;
  rec_flag ~reg ~exp:"E18" ~labels "oracle_equivalent" o.equiv

let record_mhrp ~reg ~labels (o : mhrp_outcome) =
  let r = rec_i ~reg ~exp:"E18" ~labels in
  r "sent" o.sent;
  r "delivered" o.delivered;
  r "reconv_us" (Option.value ~default:(-1) o.reconv_us);
  r "ttl_expired_drops" o.ttl_expired;
  r "lsr_wire_bytes" o.lsr_wire_bytes;
  r "mhrp_ctrl_bytes" o.mhrp_ctrl_bytes;
  r "spf_runs" o.m_spf_runs;
  rec_flag ~reg ~exp:"E18" ~labels "oracle_equivalent" o.m_equiv

type outcome = O_cold of cold | O_mhrp of mhrp_outcome

let conv_cell = function
  | Some us -> ms_of_us (float_of_int us)
  | None -> "never"

let run () =
  heading "E18"
    "distributed link-state routing: convergence and cost (lib/lsr)";
  let outcomes =
    sweep ~exp:"E18" points ~trial:(fun ctx point ->
        let reg = ctx.Parallel.Sweep.registry in
        match point with
        | Cold { size; campuses; hello_ms } ->
          let o = run_cold ~campuses ~hello_ms in
          record_cold ~reg
            ~labels:[("topo", size); ("hello_ms", i hello_ms)]
            o;
          O_cold o
        | Mhrp_fault { fault; name } ->
          let o = run_mhrp ~fault in
          record_mhrp ~reg ~labels:[("fault", name)] o;
          O_mhrp o
        | Det -> O_mhrp (run_mhrp ~fault:`Crash))
  in
  let tagged = List.combine points outcomes in
  let swept = List.filter (fun (p, _) -> p <> Det) tagged in
  note "cold-start convergence (poll resolution 25 ms):";
  table
    ~columns:
      ["topology"; "hello ms"; "routers"; "converged"; "spf runs";
       "LSAs"; "hellos"; "lsr bytes"; "= oracle"]
    (List.filter_map
       (function
         | Cold { size; hello_ms; _ }, O_cold o ->
           Some
             [ size; i hello_ms; i o.routers; conv_cell o.conv_us;
               i o.spf_runs; i o.lsas_sent; i o.hellos_sent;
               i o.lsr_bytes; (if o.equiv then "yes" else "NO") ]
         | _ -> None)
       swept);
  note "MHRP delivery through reconvergence (figure 1, hello 100 ms):";
  table
    ~columns:
      ["fault"; "delivered"; "reconverged"; "ttl drops"; "lsr bytes";
       "mhrp ctrl bytes"; "= oracle"]
    (List.filter_map
       (function
         | Mhrp_fault { name; _ }, O_mhrp o ->
           Some
             [ name;
               Printf.sprintf "%d/%d" o.delivered o.sent;
               conv_cell o.reconv_us; i o.ttl_expired; i o.lsr_wire_bytes;
               i o.mhrp_ctrl_bytes; (if o.m_equiv then "yes" else "NO") ]
         | _ -> None)
       swept);
  (* campaign gates *)
  let all_converged =
    List.for_all
      (function
        | _, O_cold o -> o.conv_us <> None
        | _, O_mhrp o -> o.reconv_us <> None)
      swept
  in
  let all_equiv =
    List.for_all
      (function
        | _, O_cold o -> o.equiv
        | _, O_mhrp o -> o.m_equiv)
      swept
  in
  let ttl_total =
    List.fold_left
      (fun acc -> function _, O_mhrp o -> acc + o.ttl_expired | _ -> acc)
      0 swept
  in
  let det =
    match List.filter_map (function Det, o -> Some o | _ -> None) tagged with
    | [O_mhrp a; O_mhrp b] ->
      a.delivered = b.delivered && a.reconv_us = b.reconv_us
      && a.lsr_wire_bytes = b.lsr_wire_bytes
      && a.mhrp_ctrl_bytes = b.mhrp_ctrl_bytes
    | _ -> false
  in
  rec_flag ~exp:"E18" "all_converged" all_converged;
  rec_flag ~exp:"E18" "all_oracle_equivalent" all_equiv;
  rec_flag ~exp:"E18" "no_forwarding_loops" (ttl_total = 0);
  rec_flag ~exp:"E18" "deterministic" det;
  (* The oracle-vs-LSR ledger, run serially so the process-wide oracle
     counter delta is attributable to this one trial. *)
  let oracle_before = Net.Routing.recompute_count () in
  let o = run_cold ~campuses:8 ~hello_ms:500 in
  let oracle_sweeps = Net.Routing.recompute_count () - oracle_before in
  rec_i ~exp:"E18" ~labels:[("topo", "campus8-serial")] "oracle_recomputes"
    oracle_sweeps;
  rec_i ~exp:"E18" ~labels:[("topo", "campus8-serial")] "lsr_spf_runs"
    o.spf_runs;
  note
    "oracle vs distributed, 8 campuses: %d global oracle sweep(s) at 0 \
     bytes vs %d per-router SPF runs costing %d control bytes"
    oracle_sweeps o.spf_runs o.lsr_bytes;
  note "no-loop invariant: %d ttl-expired drops across the campaign"
    ttl_total;
  note "replay determinism (crash trial, twice): %s"
    (if det then "identical" else "DIVERGED")

let experiment =
  Experiment.make ~id:"E18"
    ~title:"distributed link-state routing: convergence and cost (lib/lsr)"
    run
