(* The four reference worlds.  Each [build] returns a world whose
   open-loop load is already on the event queue: the runner times
   construction plus warm-up up to [start], then the horizon from
   [start] to [stop].
   Every call the benchmark itself makes into a library layer goes
   through [calls], so the traced run wraps exactly those calls and the
   untraced run takes the plain ones.  Sizes are fixed per workload; the
   seed picks only the topology RNG, the mobile-to-cell assignment and
   flow phases. *)

module Time = Netsim.Time
module Engine = Netsim.Engine
module Rng = Netsim.Rng
module Topology = Net.Topology
module Lan = Net.Lan
module Node = Net.Node
module Agent = Mhrp.Agent
module Addr = Ipv4.Addr
module TG = Workload.Topo_gen
module Apps = Workload.Apps
module Stack = Transport.Stack

type calls = {
  send_udp : Agent.t -> dst:Addr.t -> bytes -> unit;
  move_to : topo:Topology.t -> Agent.t -> Lan.t -> unit;
  own : (unit -> unit) -> unit;
      (* runs one of the benchmark's own callbacks: a generator tick, a
         receiver, a scheduled move *)
}

let direct =
  { send_udp = (fun a ~dst data -> Agent.send_udp a ~dst data);
    move_to = (fun ~topo a lan -> Agent.move_to ~topo a lan);
    own = (fun f -> f ()) }

type t = {
  topo : Topology.t;
  agents : Agent.t array;  (* every MHRP agent *)
  stacks : Stack.t array;  (* transport stacks; empty without sockets *)
  start : Time.t;  (* the first timed event: warm-up ends here *)
  stop : Time.t;  (* end of the timed horizon *)
  attempted : int;  (* ops the horizon's schedule attempts *)
  completed : unit -> int;
  check : unit -> string list;  (* violated output checks *)
  extra : unit -> (string * float * string) list;
      (* workload-specific outcomes worth printing: name, value, unit *)
}

type spec = {
  name : string;
  op : string;  (* what one op is *)
  build : calls -> seed:int -> smoke:bool -> t;
}

let at engine time f = ignore (Engine.schedule engine ~at:time f)
let after time us = Time.add time (Time.of_us us)
let host lan id = Addr.Prefix.host (Lan.prefix lan) id

let iface_on agent lan =
  match Node.iface_to (Agent.node agent) (Lan.prefix lan) with
  | Some i -> i
  | None -> invalid_arg "World.iface_on: agent not on LAN"

let violation cond fmt =
  Printf.ksprintf (fun s -> if cond then [ s ] else []) fmt

(* A pick from [0, n) other than [avoid]. *)
let other rng n ~avoid =
  let k = Rng.int rng (n - 1) in
  if k >= avoid then k + 1 else k

(* Datagram flows.  Datagram [seq] of flow [f] carries (f, seq) ahead of
   its padding; a receiver checks it reached the flow's mobile and that
   sequence numbers only grow, so "as many arrived as were sent" means
   exactly once and in order.  Seq 0 is a warm-up datagram that primes
   location caches; the horizon sends 1..count. *)
module Flows = struct
  type f = {
    dst : int array;  (* flow -> receiving mobile *)
    next : int array;  (* flow -> lowest acceptable seq *)
    mutable sent : int;  (* horizon datagrams sent *)
    mutable delivered : int;  (* horizon datagrams delivered *)
    mutable primed : int;
    mutable misdelivered : int;
    mutable disordered : int;
  }

  let create dst =
    { dst; next = Array.make (Array.length dst) 0; sent = 0; delivered = 0;
      primed = 0; misdelivered = 0; disordered = 0 }

  let payload ~bytes f seq =
    let b = Bytes.make bytes '\000' in
    Bytes.set_int32_be b 0 (Int32.of_int f);
    Bytes.set_int32_be b 4 (Int32.of_int seq);
    b

  (* [pkt]'s payload is the UDP datagram: 8 header bytes, then ours. *)
  let receive t ~mobile (pkt : Ipv4.Packet.t) =
    let p = pkt.Ipv4.Packet.payload in
    if Bytes.length p < 16 then t.misdelivered <- t.misdelivered + 1
    else
      let f = Int32.to_int (Bytes.get_int32_be p 8)
      and seq = Int32.to_int (Bytes.get_int32_be p 12) in
      if f < 0 || f >= Array.length t.dst || t.dst.(f) <> mobile then
        t.misdelivered <- t.misdelivered + 1
      else if seq < t.next.(f) then t.disordered <- t.disordered + 1
      else begin
        t.next.(f) <- seq + 1;
        if seq = 0 then t.primed <- t.primed + 1
        else t.delivered <- t.delivered + 1
      end

  let listen calls t mobiles =
    Array.iteri
      (fun m a ->
         Agent.on_app_receive a (fun pkt ->
             calls.own (fun () -> receive t ~mobile:m pkt)))
      mobiles

  (* Flow [f]: datagram [seq] >= 1 leaves at [first + (seq - 1) * period]
     whatever happened to earlier ones (open loop). *)
  let cbr calls engine t ~flow ~src ~dst ~bytes ~first ~period_us ~count =
    let rec tick seq () =
      calls.own (fun () ->
          if seq < count then
            at engine (after first (seq * period_us)) (tick (seq + 1));
          t.sent <- t.sent + 1;
          calls.send_udp src ~dst (payload ~bytes flow seq))
    in
    if count > 0 then at engine first (tick 1)

  let prime calls engine ~flow ~src ~dst ~bytes time =
    at engine time (fun () ->
        calls.own (fun () -> calls.send_udp src ~dst (payload ~bytes flow 0)))

  let checks t ~primed =
    violation (t.delivered <> t.sent) "%d of %d datagrams delivered"
      t.delivered t.sent
    @ violation (t.primed <> primed) "%d of %d warm-up datagrams delivered"
        t.primed primed
    @ violation (t.misdelivered > 0) "%d datagrams misdelivered"
        t.misdelivered
    @ violation (t.disordered > 0) "%d datagrams duplicated or reordered"
        t.disordered
end

(* Registration tracking: a move sets the foreign agent the mobile must
   register with; the registration that names it completes the move. *)
module Moves = struct
  type m = {
    expect : Addr.t array;  (* zero: no move outstanding *)
    mutable attempted : int;
    mutable completed : int;
    mutable timed : bool;  (* moves now belong to the horizon *)
    mutable warm_attempted : int;
    mutable warm_completed : int;
  }

  let create mobiles =
    let t =
      { expect = Array.make (Array.length mobiles) Addr.zero; attempted = 0;
        completed = 0; timed = false; warm_attempted = 0;
        warm_completed = 0 }
    in
    Array.iteri
      (fun m a ->
         Agent.on_registered a (fun fa ->
             if (not (Addr.is_zero fa)) && Addr.equal fa t.expect.(m) then begin
               t.expect.(m) <- Addr.zero;
               if t.timed then t.completed <- t.completed + 1
               else t.warm_completed <- t.warm_completed + 1
             end))
      mobiles;
    t

  (* Move mobile [m] at [time] to [cell], whose agent answers as host 1. *)
  let schedule calls topo t mobiles m ~time cell =
    at (Topology.engine topo) time (fun () ->
        calls.own (fun () ->
            t.expect.(m) <- host cell 1;
            if t.timed then t.attempted <- t.attempted + 1
            else t.warm_attempted <- t.warm_attempted + 1;
            calls.move_to ~topo mobiles.(m) cell))

  let begin_horizon topo t time =
    at (Topology.engine topo) time (fun () -> t.timed <- true)

  let checks t =
    violation (t.warm_completed <> t.warm_attempted)
      "%d of %d warm-up moves registered" t.warm_completed t.warm_attempted
    @ violation (t.completed <> t.attempted) "%d of %d moves registered"
        t.completed t.attempted
end

let ttl_checks inv =
  violation
    (Fault.Invariant.ttl_expired inv > 0)
    "%d ttl-expired drops (forwarding loop)"
    (Fault.Invariant.ttl_expired inv)

let quiet topo = Netsim.Trace.set_enabled (Topology.trace topo) false

(* --- transit: MHRP only at the tunnel endpoints --- *)

(* 16 campus routers (home + foreign agent) hang off a chain of 16 plain
   IP routers that run no MHRP.  Each campus homes 4 mobiles, each with
   its own correspondent on the home LAN; every mobile visits the campus
   8 chain positions away, so after the warm-up datagram primes the
   correspondent's cache every datagram is tunneled by its sender across
   9 plain routers: the zero-copy forwarding path. *)
let transit calls ~seed ~smoke =
  let n = 16 and per = 4 in
  let flows = n * per in
  let period_us = 1000 and bytes = 64 in
  let count = if smoke then 40 else 1500 in
  let topo = Topology.create ~seed () in
  quiet topo;
  let engine = Topology.engine topo in
  let rng = Rng.split (Topology.rng topo) in
  let lan ?latency net fmt =
    Printf.ksprintf (fun name -> Topology.add_lan topo ?latency ~net name) fmt
  in
  let edges = Array.init n (fun i -> lan (100 + i) "edge%d" i) in
  let links = Array.init (n - 1) (fun i -> lan (200 + i) "link%d" i) in
  let homes = Array.init n (fun i -> lan (1 + (2 * i)) "home%d" i) in
  let cells =
    Array.init n (fun i ->
        lan ~latency:(Time.of_ms 2) (2 + (2 * i)) "cell%d" i)
  in
  let plain =
    Array.init n (fun i ->
        let left = if i > 0 then [ (links.(i - 1), 2) ] else [] in
        let right = if i < n - 1 then [ (links.(i), 1) ] else [] in
        Topology.add_router topo (Printf.sprintf "P%d" i)
          (((edges.(i), 1) :: left) @ right))
  in
  let campus_nodes =
    Array.init n (fun i ->
        Topology.add_router topo (Printf.sprintf "C%d" i)
          [ (edges.(i), 2); (homes.(i), 1); (cells.(i), 1) ])
  in
  let mobile_nodes =
    Array.init flows (fun k ->
        Topology.add_host topo (Printf.sprintf "M%d" k) homes.(k / per)
          (10 + (k mod per)))
  in
  let sender_nodes =
    Array.init flows (fun k ->
        Topology.add_host topo (Printf.sprintf "S%d" k) homes.(k / per)
          (100 + (k mod per)))
  in
  Topology.compute_routes topo;
  let campus =
    Array.mapi
      (fun i nd ->
         let a = Agent.create ~snoop:true nd in
         Agent.enable_home_agent a;
         Agent.enable_foreign_agent a ~iface:(iface_on a cells.(i));
         a)
      campus_nodes
  in
  let mobiles =
    Array.mapi
      (fun k nd ->
         Agent.add_mobile campus.(k / per) (Node.primary_addr nd);
         let a = Agent.create nd in
         Agent.make_mobile a ~home_agent:(host homes.(k / per) 1);
         a)
      mobile_nodes
  in
  let senders = Array.map (fun nd -> Agent.create nd) sender_nodes in
  let inv = Fault.Invariant.watch topo in
  let moves = Moves.create mobiles in
  let fl = Flows.create (Array.init flows Fun.id) in
  Flows.listen calls fl mobiles;
  let start = Time.of_sec 1.5 in
  Array.iteri
    (fun k _ ->
       Moves.schedule calls topo moves mobiles k
         ~time:(after (Time.of_sec 0.5) (5000 * k))
         cells.(((k / per) + (n / 2)) mod n);
       let dst = Agent.address mobiles.(k) in
       Flows.prime calls engine ~flow:k ~src:senders.(k) ~dst ~bytes
         (after (Time.of_sec 1.0) (1000 * k));
       Flows.cbr calls engine fl ~flow:k ~src:senders.(k) ~dst ~bytes
         ~first:(after start (Rng.int rng period_us))
         ~period_us ~count)
    mobiles;
  let fast_share () =
    let fwd, fast =
      Array.fold_left
        (fun (f, q) nd ->
           (f + Node.packets_forwarded nd, q + Node.packets_fast_forwarded nd))
        (0, 0)
        (Array.append plain campus_nodes)
    in
    if fwd = 0 then 0.0 else float_of_int fast /. float_of_int fwd
  in
  { topo;
    agents = Array.concat [ campus; mobiles; senders ];
    stacks = [||];
    start;
    stop = after start ((count * period_us) + 50_000);
    attempted = flows * count;
    completed = (fun () -> fl.Flows.delivered);
    check =
      (fun () ->
         let share = fast_share () in
         Flows.checks fl ~primed:flows
         @ Moves.checks moves @ ttl_checks inv
         @ violation (share < 0.8)
             "fast-path share %.3f < 0.8: transit no longer exercises the \
              zero-copy path"
             share);
    extra = (fun () -> []) }

(* --- campus: the same data path with the fast path bypassed --- *)

(* The E16 world: 256 campus routers on one /16 backbone, each a home
   and foreign agent that snoops, so no hop is eligible for the
   zero-copy path.  Every mobile moves once during warm-up; three
   correspondents then send 1 KiB datagrams to all 256 mobiles. *)
let campus calls ~seed ~smoke =
  let n = if smoke then 16 else 256 and senders = 3 in
  let period_us = 10_000 and bytes = 1024 in
  let count = if smoke then 4 else 150 in
  let c =
    TG.campuses ~seed ~backbone_prefix_len:16 ~campuses:n
      ~mobiles_per_campus:1 ~correspondents:senders ()
  in
  let topo = c.TG.c_topo in
  quiet topo;
  let engine = Topology.engine topo in
  let rng = Rng.split (Topology.rng topo) in
  let mobiles = c.TG.c_mobiles in
  let inv = Fault.Invariant.watch topo in
  let moves = Moves.create mobiles in
  let flows = senders * n in
  let fl = Flows.create (Array.init flows (fun f -> f mod n)) in
  Flows.listen calls fl mobiles;
  let start = Time.of_sec 4.0 in
  Array.iteri
    (fun k _ ->
       Moves.schedule calls topo moves mobiles k
         ~time:(after (Time.of_sec 1.0) (10_000 * k))
         c.TG.c_cells.(other rng n ~avoid:k))
    mobiles;
  for f = 0 to flows - 1 do
    Flows.cbr calls engine fl ~flow:f ~src:c.TG.c_senders.(f / n)
      ~dst:(Agent.address mobiles.(f mod n))
      ~bytes
      ~first:(after start (Rng.int rng period_us))
      ~period_us ~count
  done;
  { topo;
    agents =
      Array.concat [ c.TG.c_routers; mobiles; c.TG.c_senders ];
    stacks = [||];
    start;
    stop = after start ((count * period_us) + 50_000);
    attempted = flows * count;
    completed = (fun () -> fl.Flows.delivered);
    check =
      (fun () ->
         Flows.checks fl ~primed:0 @ Moves.checks moves
         @ ttl_checks inv);
    extra = (fun () -> []) }

(* --- handoff: the write side of the location state --- *)

(* 64 campuses x 4 mobiles with a reliable control plane.  Every mobile
   ping-pongs between two foreign cells every 200 ms, each move a full
   discovery + connect + registration, while its correspondent keeps a
   20 Hz datagram stream at it.  The op is a completed handoff; the
   datagrams lost across handoffs are reported, not counted as ops. *)
let handoff calls ~seed ~smoke =
  let n = if smoke then 8 else 64 and per = 4 in
  let period_us = 200_000 and moves_each = if smoke then 3 else 50 in
  let cbr_us = 50_000 and bytes = 64 in
  let config = Mhrp.Config.make ~reliable_control:true () in
  let c =
    TG.campuses ~config ~seed ~campuses:n ~mobiles_per_campus:per
      ~correspondents:n ()
  in
  let topo = c.TG.c_topo in
  quiet topo;
  let engine = Topology.engine topo in
  let rng = Rng.split (Topology.rng topo) in
  let mobiles = c.TG.c_mobiles in
  let cells = c.TG.c_cells in
  let moves = Moves.create mobiles in
  let fl = Flows.create (Array.init (n * per) Fun.id) in
  Flows.listen calls fl mobiles;
  let start = Time.of_sec 1.5 in
  let horizon_us = moves_each * period_us in
  Moves.begin_horizon topo moves start;
  Array.iteri
    (fun m _ ->
       let home = m / per in
       let a = other rng n ~avoid:home in
       let b =
         let rec pick () =
           let x = other rng n ~avoid:home in
           if x = a then pick () else x
         in
         pick ()
       in
       Moves.schedule calls topo moves mobiles m
         ~time:(after (Time.of_sec 0.5) (2000 * m))
         cells.(a);
       let phase = Rng.int rng period_us in
       for i = 0 to moves_each - 1 do
         Moves.schedule calls topo moves mobiles m
           ~time:(after start (phase + (i * period_us)))
           cells.(if i mod 2 = 0 then b else a)
       done;
       Flows.cbr calls engine fl ~flow:m
         ~src:c.TG.c_senders.((home + (n / 2)) mod n)
         ~dst:(Agent.address mobiles.(m))
         ~bytes
         ~first:(after start (Rng.int rng cbr_us))
         ~period_us:cbr_us ~count:(horizon_us / cbr_us))
    mobiles;
  { topo;
    agents = Array.concat [ c.TG.c_routers; mobiles; c.TG.c_senders ];
    stacks = [||];
    start;
    stop = after start (horizon_us + period_us + 500_000);
    attempted = n * per * moves_each;
    completed = (fun () -> moves.Moves.completed);
    check =
      (fun () ->
         Moves.checks moves
         @ violation (fl.Flows.misdelivered > 0) "%d datagrams misdelivered"
             fl.Flows.misdelivered);
    extra =
      (fun () ->
         [ ( "handoff.datagram_loss",
             float_of_int (fl.Flows.sent - fl.Flows.delivered)
             /. float_of_int (max 1 fl.Flows.sent),
             "ratio" ) ]) }

(* --- sockets: time spent in the transport --- *)

(* The E21 world: 4 regions x 2 cells, 48 mobiles, 48 correspondents,
   hierarchical registration over a reliable control plane, and the E17
   foreign-agent crash at 8 s.  96 open-loop RPC connections at 10
   requests/s and 48 window-limited 1 MiB bulk fetches run while every
   mobile hops between its region's cells every 4 s.  The op is one RPC
   answered or one KiB of bulk data delivered in order.

   E17's 25 % control-loss window is left out, as are hops between
   regions under the crash: either leaves some mobiles unreachable for
   good on some seeds, so RPCs never complete, and a benchmark workload
   must complete every op it attempts. *)
let sockets calls ~seed ~smoke =
  let regions = 4 and cell_count = 2 and per = 12 and n_senders = 48 in
  let n_mobiles = regions * per in
  let rpc_per_mobile = 2 and interval_us = 100_000 in
  let rpc_count = if smoke then 10 else 200 in
  let bulk_bytes = if smoke then 16 * 1024 else 1024 * 1024 in
  let hop_us = 4_000_000 in
  let config =
    Mhrp.Config.make ~hierarchy:true ~reliable_control:true
      ~control_rto:(Time.of_ms 300) ~control_retries:5 ()
  in
  let g =
    TG.regions ~config ~seed ~regions ~cells:cell_count
      ~mobiles_per_region:per ~correspondents:n_senders ()
  in
  let topo = g.TG.rg_topo in
  quiet topo;
  let rng = Rng.split (Topology.rng topo) in
  let inv = Fault.Invariant.watch topo in
  Fault.Injector.inject
    (Fault.Injector.create topo)
    [ Fault.Schedule.Crash
        { node = "F1_0"; at = Time.of_sec 8.0;
          duration = Time.of_sec 1.5 } ];
  let mobiles = g.TG.rg_mobiles in
  let m_stacks = Array.map Stack.create mobiles in
  let s_stacks = Array.map Stack.create g.TG.rg_senders in
  Array.iter
    (fun st -> Apps.Rpc.serve st ~port:80 ~req_bytes:64 ~resp_bytes:256)
    m_stacks;
  let start = Time.of_sec 2.0 in
  let rpcs =
    Array.init (n_mobiles * rpc_per_mobile) (fun k ->
        let im = k / rpc_per_mobile in
        Apps.Rpc.start
          ~client:s_stacks.((im + (17 * (k mod rpc_per_mobile))) mod n_senders)
          ~server:(Stack.address m_stacks.(im))
          ~port:80 ~req_bytes:64 ~resp_bytes:256
          ~start:(after start (Rng.int rng interval_us))
          ~interval:(Time.of_us interval_us) ~count:rpc_count ())
  in
  Array.iter
    (fun st -> Apps.Bulk.serve st ~port:8080 ~bytes:bulk_bytes)
    s_stacks;
  let bulks =
    Array.init n_mobiles (fun im ->
        Apps.Bulk.fetch m_stacks.(im)
          ~server:(Stack.address s_stacks.((im + 5) mod n_senders))
          ~port:8080 ~bytes:bulk_bytes
          ~at:(after (Time.of_sec 3.0) (50_000 * im))
          ())
  in
  let moves = Moves.create mobiles in
  let last_rpc_us = (rpc_count * interval_us) + interval_us in
  Moves.begin_horizon topo moves start;
  Array.iteri
    (fun im _ ->
       let cells = g.TG.rg_cells.(im / per) in
       let first = Rng.int rng cell_count in
       Moves.schedule calls topo moves mobiles im
         ~time:(after (Time.of_sec 1.0) (10_000 * im))
         cells.(first);
       let rec hops k t =
         if t < last_rpc_us then begin
           Moves.schedule calls topo moves mobiles im ~time:(after start t)
             cells.((first + k) mod cell_count);
           hops (k + 1) (t + hop_us)
         end
       in
       hops 1 (Rng.int rng hop_us))
    mobiles;
  let bulk_kib = bulk_bytes / 1024 in
  { topo;
    agents =
      Array.concat
        [ g.TG.rg_regionals;
          Array.concat (Array.to_list g.TG.rg_fas);
          mobiles;
          g.TG.rg_senders ];
    stacks = Array.append m_stacks s_stacks;
    start;
    stop = after start (last_rpc_us + 10_000_000);
    attempted = (Array.length rpcs * rpc_count) + (n_mobiles * bulk_kib);
    completed =
      (fun () ->
         Array.fold_left (fun a c -> a + Apps.Rpc.responses c) 0 rpcs
         + Array.fold_left
             (fun a b -> a + (Apps.Bulk.received b / 1024))
             0 bulks);
    check =
      (fun () ->
         let count p = Array.fold_left (fun a b -> if p b then a + 1 else a) 0 in
         let answered =
           Array.fold_left (fun a c -> a + Apps.Rpc.responses c) 0 rpcs
         in
         let complete = count Apps.Bulk.complete bulks in
         let corrupted =
           count (fun b -> Apps.Bulk.complete b && not (Apps.Bulk.intact b)) bulks
         in
         violation (answered <> Array.length rpcs * rpc_count)
           "%d of %d RPCs answered" answered
           (Array.length rpcs * rpc_count)
         @ violation (complete <> n_mobiles) "%d of %d bulk fetches complete"
             complete n_mobiles
         @ violation (corrupted > 0) "%d completed bulk fetches corrupted"
             corrupted
         @ ttl_checks inv);
    extra = (fun () -> []) }

let all =
  [ { name = "transit"; op = "datagram delivered"; build = transit };
    { name = "campus"; op = "datagram delivered"; build = campus };
    { name = "handoff"; op = "handoff completed"; build = handoff };
    { name = "sockets"; op = "RPC answered or KiB delivered in order";
      build = sockets } ]
