(* E21 — application SLOs over the connection-oriented transport.

   Hundreds of concurrent socket flows — request/response RPC, chat-room
   fan-out through a relay, and long bulk transfers — run over a 4-region
   internetwork while every mobile hops cells (and some hop regions)
   mid-traffic, in flat and hierarchical MHRP, with and without an
   E17-style fault schedule (control loss plus a foreign-agent crash).
   Measured per sweep point: goodput, hand-off-induced stall time,
   retransmission counts, and p50/p95/p99 completion latency, plus the
   exact transport counters.  All application traffic goes through
   [Transport.Socket]; nothing here touches a raw segment. *)

open Exp_util
module TGm = Workload.Topo_gen
module Apps = Workload.Apps
module Time = Netsim.Time
module Stack = Transport.Stack
module Samples = Netsim.Stats.Samples

let config ~hier =
  Mhrp.Config.make ~hierarchy:hier ~reliable_control:true
    ~control_rto:(Time.of_ms 300) ~control_retries:5 ()

(* Scenario shape: 4 regions x 2 cells, 12 mobiles per region, 48
   correspondents -> 96 RPC + 48 bulk + 48 chat connections. *)
let regions = 4
let cells = 2
let mobiles_per_region = 12
let n_mobiles = regions * mobiles_per_region
let n_senders = 48
let rpc_per_mobile = 2
let rpc_count = 10
let bulk_bytes = 32768
let chat_says = 3

let fault_schedule =
  [ Fault.Schedule.Control_loss
      { rate = 0.25; from_ = Time.of_sec 4.0; until = Time.of_sec 14.0 };
    Fault.Schedule.Crash
      { node = "F1_0"; at = Time.of_sec 8.0; duration = Time.of_sec 1.5 } ]

type outcome = {
  conns : int;
  established : int;
  closed : int;
  failed : int;
  segs : int;
  rtx : int;
  dups : int;
  ooo : int;
  data_bytes : int;
  rpc_expected : int;
  rpc_ok : int;
  rpc_lat : float list;
  bulk_total : int;
  bulk_done : int;
  bulk_intact : bool;
  bulk_lat : float list;
  goodput_kbps : float list;
  stall_max_us : int;
  chat_expected : int;
  chat_ok : int;
  chat_lat : float list;
  regional_regs : int;
  ttl_expired : int;
}

let run_point ~hier ~faults =
  let g =
    TGm.regions ~config:(config ~hier) ~seed:11 ~regions ~cells
      ~mobiles_per_region ~correspondents:n_senders ()
  in
  let topo = g.TGm.rg_topo in
  let inv = Fault.Invariant.watch topo in
  if faults then begin
    let inj = Fault.Injector.create ~seed:4242 topo in
    Fault.Injector.inject inj fault_schedule
  end;
  let m_stacks = Array.map Stack.create g.TGm.rg_mobiles in
  let s_stacks = Array.map Stack.create g.TGm.rg_senders in
  (* RPC: every mobile is a server; two correspondents call it with one
     request per second, so the request train spans the hand-off wave. *)
  Array.iter
    (fun st -> Apps.Rpc.serve st ~port:80 ~req_bytes:64 ~resp_bytes:256)
    m_stacks;
  let rpcs =
    List.concat
      (List.init n_mobiles (fun im ->
           List.init rpc_per_mobile (fun k ->
               let is = (im + (k * 17)) mod n_senders in
               Apps.Rpc.start ~client:s_stacks.(is)
                 ~server:(Stack.address m_stacks.(im))
                 ~port:80 ~req_bytes:64 ~resp_bytes:256
                 ~start:(Time.of_sec (2.0 +. (0.01 *. float_of_int im)))
                 ~interval:(Time.of_sec 1.0) ~count:rpc_count ())))
  in
  (* Bulk: every mobile pulls a long transfer from a correspondent,
     timed so most are mid-stream when their mobile changes cells. *)
  Array.iter
    (fun st -> Apps.Bulk.serve st ~port:8080 ~bytes:bulk_bytes)
    s_stacks;
  let bulks =
    List.init n_mobiles (fun im ->
        Apps.Bulk.fetch m_stacks.(im)
          ~server:(Stack.address s_stacks.((im + 5) mod n_senders))
          ~port:8080 ~bytes:bulk_bytes
          ~at:(Time.of_sec (5.0 +. (0.15 *. float_of_int im)))
          ())
  in
  (* Chat: one room per region, hosted on a stationary correspondent;
     the region's mobiles join and everyone speaks a few times. *)
  let _rooms =
    List.init regions (fun r ->
        Apps.Chat.room s_stacks.(r * mobiles_per_region / 2) ~port:9000
          ~msg_bytes:64)
  in
  let members =
    List.init n_mobiles (fun im ->
        let r = im / mobiles_per_region in
        let m =
          Apps.Chat.join m_stacks.(im)
            ~server:(Stack.address s_stacks.(r * mobiles_per_region / 2))
            ~port:9000 ~msg_bytes:64
            ~at:(Time.of_sec (1.5 +. (0.02 *. float_of_int im)))
            ()
        in
        for k = 0 to chat_says - 1 do
          Apps.Chat.say m
            ~at:
              (Time.of_sec
                 (5.0
                 +. (0.1 *. float_of_int im)
                 +. (2.0 *. float_of_int k)))
        done;
        m)
  in
  (* Mobility: everyone leaves home for a cell, hops to the other cell
     mid-traffic, and every fourth mobile crosses into the next region. *)
  Array.iteri
    (fun im m ->
      let r = im / mobiles_per_region and j = im mod mobiles_per_region in
      let cell c = g.TGm.rg_cells.(r).(c) in
      Workload.Mobility.move_at topo m
        ~at:(Time.of_sec (1.0 +. (0.05 *. float_of_int im)))
        (cell (j mod cells));
      Workload.Mobility.move_at topo m
        ~at:(Time.of_sec (7.0 +. (0.1 *. float_of_int im)))
        (cell ((j + 1) mod cells));
      if j mod 4 = 0 then
        Workload.Mobility.move_at topo m
          ~at:(Time.of_sec (11.0 +. (0.1 *. float_of_int im)))
          g.TGm.rg_cells.((r + 1) mod regions).(0))
    g.TGm.rg_mobiles;
  Topology.run ~until:(Time.of_sec 30.0) topo;
  (* aggregate transport counters over every stack *)
  let total = Transport.Counters.create () in
  Array.iter
    (fun st -> Transport.Counters.add ~into:total (Stack.counters st))
    m_stacks;
  Array.iter
    (fun st -> Transport.Counters.add ~into:total (Stack.counters st))
    s_stacks;
  let rpc_ok = List.fold_left (fun a c -> a + Apps.Rpc.responses c) 0 rpcs in
  let rpc_lat = List.concat_map Apps.Rpc.latencies_us rpcs in
  let bulk_done = List.length (List.filter Apps.Bulk.complete bulks) in
  let bulk_intact =
    List.for_all (fun b -> not (Apps.Bulk.complete b) || Apps.Bulk.intact b)
      bulks
  in
  let bulk_lat =
    List.filter_map
      (fun b -> Option.map float_of_int (Apps.Bulk.completion_us b))
      bulks
  in
  let goodput_kbps = List.filter_map Apps.Bulk.goodput_kbps bulks in
  let stall_max_us =
    List.fold_left (fun a b -> max a (Apps.Bulk.max_stall_us b)) 0 bulks
  in
  let chat_ok =
    List.fold_left (fun a m -> a + Apps.Chat.received m) 0 members
  in
  let chat_lat = List.concat_map Apps.Chat.latencies_us members in
  let regional_regs =
    Array.fold_left
      (fun acc a ->
        match Mhrp.Agent.regional_agent a with
        | Some r -> acc + Mhrp.Regional.registrations r
        | None -> acc)
      0 g.TGm.rg_regionals
  in
  { conns = total.Transport.Counters.conns_opened;
    established = total.Transport.Counters.conns_established;
    closed = total.Transport.Counters.conns_closed;
    failed = total.Transport.Counters.conns_failed;
    segs = total.Transport.Counters.segs_sent;
    rtx = total.Transport.Counters.retransmissions;
    dups = total.Transport.Counters.duplicates;
    ooo = total.Transport.Counters.out_of_order;
    data_bytes = total.Transport.Counters.data_bytes_received;
    rpc_expected = n_mobiles * rpc_per_mobile * rpc_count;
    rpc_ok;
    rpc_lat;
    bulk_total = n_mobiles;
    bulk_done;
    bulk_intact;
    bulk_lat;
    goodput_kbps;
    stall_max_us;
    chat_expected =
      regions
      * (mobiles_per_region * chat_says * (mobiles_per_region - 1));
    chat_ok;
    chat_lat;
    regional_regs;
    ttl_expired = Fault.Invariant.ttl_expired inv }

let pct samples p =
  if List.length samples = 0 then 0.0
  else begin
    let s = Samples.create () in
    List.iter (Samples.add s) samples;
    Samples.percentile s p
  end

let mean = function
  | [] -> 0.0
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let record ~reg ~labels o =
  let ri = rec_i ~reg ~exp:"E21" ~labels in
  let rms = rec_ms ~reg ~exp:"E21" ~labels in
  ri "conns_opened" o.conns;
  ri "conns_established" o.established;
  ri "conns_closed" o.closed;
  ri "conns_failed" o.failed;
  ri "segments_sent" o.segs;
  ri "retransmissions" o.rtx;
  ri "duplicate_segments" o.dups;
  ri "out_of_order_segments" o.ooo;
  ri "data_bytes_delivered" o.data_bytes;
  ri "rpc_responses" o.rpc_ok;
  ri "regional_registrations" o.regional_regs;
  ri "bulk_completed" o.bulk_done;
  ri "chat_delivered" o.chat_ok;
  rms "rpc_p50_ms" (pct o.rpc_lat 50.0);
  rms "rpc_p95_ms" (pct o.rpc_lat 95.0);
  rms "rpc_p99_ms" (pct o.rpc_lat 99.0);
  rms "bulk_p50_ms" (pct o.bulk_lat 50.0);
  rms "bulk_p95_ms" (pct o.bulk_lat 95.0);
  rms "bulk_p99_ms" (pct o.bulk_lat 99.0);
  rms "chat_p99_ms" (pct o.chat_lat 99.0);
  rms "stall_max_ms" (float_of_int o.stall_max_us);
  rec_f ~reg ~exp:"E21" ~labels ~tol:(Obs.Metric.Pct 20.0)
    "goodput_kbps_mean" (mean o.goodput_kbps)

let onoff b = if b then "on" else "off"

type point = Grid of { hier : bool; faults : bool } | Det

let points =
  List.concat_map
    (fun hier -> List.map (fun faults -> Grid { hier; faults }) [false; true])
    [false; true]
  @ [Det; Det]

let run () =
  heading "E21"
    "application SLOs over the socket transport (mobility + faults)";
  let outcomes =
    sweep ~exp:"E21" points ~trial:(fun ctx point ->
        let reg = ctx.Parallel.Sweep.registry in
        match point with
        | Grid { hier; faults } ->
          let o = run_point ~hier ~faults in
          record ~reg
            ~labels:
              [ ("mode", if hier then "hier" else "flat");
                ("faults", onoff faults) ]
            o;
          o
        | Det -> run_point ~hier:true ~faults:true)
  in
  let swept, det =
    List.partition (fun (p, _) -> p <> Det) (List.combine points outcomes)
  in
  table
    ~columns:
      [ "mode"; "faults"; "conns"; "est"; "rtx"; "rpc ok"; "rpc p99";
        "bulk"; "goodput"; "stall max"; "chat ok" ]
    (List.filter_map
       (function
         | Grid { hier; faults }, o ->
           Some
             [ (if hier then "hier" else "flat"); onoff faults; i o.conns;
               i o.established; i o.rtx;
               Printf.sprintf "%d/%d" o.rpc_ok o.rpc_expected;
               ms_of_us (pct o.rpc_lat 99.0);
               Printf.sprintf "%d/%d" o.bulk_done o.bulk_total;
               f1 (mean o.goodput_kbps) ^ " kbps";
               ms_of_us (float_of_int o.stall_max_us);
               Printf.sprintf "%d/%d" o.chat_ok o.chat_expected ]
         | Det, _ -> None)
       swept);
  (* campaign invariants *)
  let fault_free_ok =
    List.for_all
      (fun (p, o) ->
        match p with
        | Grid { faults = false; _ } ->
          o.rpc_ok = o.rpc_expected
          && o.bulk_done = o.bulk_total
          && o.chat_ok = o.chat_expected
        | _ -> true)
      swept
  in
  let intact_ok = List.for_all (fun (_, o) -> o.bulk_intact) swept in
  let ttl_total =
    List.fold_left (fun acc (_, o) -> acc + o.ttl_expired) 0 swept
  in
  let a, b =
    match det with [ (_, a); (_, b) ] -> (a, b) | _ -> assert false
  in
  let deterministic =
    a.segs = b.segs && a.rtx = b.rtx && a.rpc_ok = b.rpc_ok
    && a.bulk_done = b.bulk_done && a.chat_ok = b.chat_ok
    && a.stall_max_us = b.stall_max_us
    && a.data_bytes = b.data_bytes
  in
  rec_flag ~exp:"E21" "all_delivered_without_faults" fault_free_ok;
  rec_flag ~exp:"E21" "bulk_transfers_intact" intact_ok;
  rec_flag ~exp:"E21" "no_forwarding_loops" (ttl_total = 0);
  rec_flag ~exp:"E21" "deterministic" deterministic;
  note "fault-free points delivered every request/transfer/message: %s"
    (if fault_free_ok then "yes" else "VIOLATED");
  note "every completed bulk transfer byte-intact: %s"
    (if intact_ok then "yes" else "VIOLATED");
  note "forwarding-loop invariant: %d ttl-expired drops" ttl_total;
  note "replay determinism (same seeds, twice): %s"
    (if deterministic then "identical" else "DIVERGED");
  List.iter
    (fun (p, o) ->
      match p with
      | Grid { hier = true; faults } ->
        note "hier/faults-%s regional registrations: %d (hierarchy engaged)"
          (onoff faults) o.regional_regs
      | _ -> ())
    swept

let experiment =
  Experiment.make ~id:"E21"
    ~title:"application SLOs over the socket transport (mobility + faults)"
    run
