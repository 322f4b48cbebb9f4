(* Outside-in instrumentation for the traced run.  Nothing here changes
   which code the simulator runs:

   - the calls the benchmark makes into a layer ([Agent.send_udp],
     [Agent.move_to], its own callbacks) are timed with the monotonic
     clock and a [Gc.minor_words] delta;
   - LAN monitors count every frame by class and copy a 1-in-64 sample
     of IP frames (a copy, because the fast path later rewrites the
     received buffer in place);
   - a benchmark event every 10 sim-ms samples the event queue depth and
     drains a [Runtime_events] cursor for GC pause durations;
   - after the run, each layer's public kernel is replayed over the
     sampled frames to price it per call.

   In-program spans are out of reach from here, so the event loop's own
   share is the remainder: wall = workload self + send + move + loop. *)

module Time = Netsim.Time
module Engine = Netsim.Engine
module Node = Net.Node
module Packet = Ipv4.Packet

module Samples = Netsim.Stats.Samples

(* A wrapped library call: per-call durations (ns) and allocation, plus
   the time spent in it during the horizon. *)
type span = {
  calls : Samples.t;
  mutable words : int;
  mutable horizon_ns : int;
}

let span () = { calls = Samples.create (); words = 0; horizon_ns = 0 }

let percentile s p =
  if Samples.count s.calls = 0 then Float.nan
  else Samples.percentile s.calls p

(* Frame classes, exclusive, in the order they are tested. *)
let c_arp = 0
let c_broadcast = 1  (* link-broadcast IP: adverts, solicitations *)
let c_control = 2  (* unicast UDP to the MHRP control port *)
let c_mhrp = 3  (* MHRP-tunneled *)
let c_tcp = 4
let c_icmp = 5
let c_udp = 6
let c_other = 7
let classes = 8

type sample = { cls : int; frame : bytes; router : Node.t option }

type t = {
  mutable armed : bool;  (* inside the timed horizon *)
  mutable inner : int;  (* ns covered by completed spans, for self time *)
  mutable own_ns : int;
  send : span;
  move : span;
  mutable probe_events : int;
  mutable pending_peak : int;
  frames : int array;  (* per class *)
  mutable bytes : int;
  mutable broadcasts : int;  (* any frame to the broadcast MAC *)
  mutable ip_seen : int;
  mutable samples : sample list;
  mutable minor_ns : int;
  mutable major_ns : int;
  mutable minor_begin : int;
  mutable major_begin : int;
  mutable lost_events : int;
  mutable cursor : Runtime_events.cursor option;
  mutable minor_gcs : int;
  recomputes0 : int;  (* route computations before the world was built *)
}

let create () =
  { armed = false; inner = 0; own_ns = 0; send = span (); move = span ();
    probe_events = 0; pending_peak = 0; frames = Array.make classes 0;
    bytes = 0; broadcasts = 0; ip_seen = 0; samples = []; minor_ns = 0;
    major_ns = 0; minor_begin = 0; major_begin = 0; lost_events = 0;
    cursor = None; minor_gcs = 0;
    recomputes0 = Net.Routing.recompute_count () }

let minor_collections () = (Gc.quick_stat ()).Gc.minor_collections

(* [inner] makes nesting safe: a span's self time excludes every span
   that completed inside it. *)
let timed p s f =
  let w0 = Gc.minor_words () in
  let t0 = Clock.now () in
  let inner0 = p.inner in
  f ();
  let dt = Clock.now () - t0 in
  let dw = Gc.minor_words () -. w0 in
  p.inner <- inner0 + dt;
  Samples.add s.calls (float_of_int dt);
  s.words <- s.words + int_of_float dw;
  if p.armed then s.horizon_ns <- s.horizon_ns + dt

let own p f =
  let t0 = Clock.now () in
  let inner0 = p.inner in
  f ();
  let dt = Clock.now () - t0 in
  if p.armed then p.own_ns <- p.own_ns + dt - (p.inner - inner0);
  p.inner <- inner0 + dt

let calls p =
  { World.send_udp =
      (fun a ~dst data ->
         timed p p.send (fun () -> Mhrp.Agent.send_udp a ~dst data));
    move_to =
      (fun ~topo a lan ->
         timed p p.move (fun () -> Mhrp.Agent.move_to ~topo a lan));
    own = own p }

let classify b =
  if Bytes.length b < 20 then c_other
  else
    let proto = Bytes.get_uint8 b 9 in
    let ihl = (Bytes.get_uint8 b 0 land 0xF) * 4 in
    if proto = Ipv4.Proto.mhrp then c_mhrp
    else if proto = Ipv4.Proto.tcp then c_tcp
    else if proto = Ipv4.Proto.icmp then c_icmp
    else if proto = Ipv4.Proto.udp then
      if Bytes.length b >= ihl + 4
         && Bytes.get_uint16_be b (ihl + 2) = Mhrp.Control.port
      then c_control
      else c_udp
    else c_other

let monitor p routers (frame : Net.Frame.t) =
  if p.armed then begin
    p.bytes <- p.bytes + Net.Frame.wire_length frame;
    let bcast = Net.Mac.is_broadcast frame.Net.Frame.dst in
    if bcast then p.broadcasts <- p.broadcasts + 1;
    match frame.Net.Frame.content with
    | Net.Frame.Arp _ -> p.frames.(c_arp) <- p.frames.(c_arp) + 1
    | Net.Frame.Ip b ->
      let cls = if bcast then c_broadcast else classify b in
      p.frames.(cls) <- p.frames.(cls) + 1;
      p.ip_seen <- p.ip_seen + 1;
      if p.ip_seen land 63 = 0 then
        p.samples <-
          { cls; frame = Bytes.copy b;
            router =
              Hashtbl.find_opt routers (Net.Mac.to_int frame.Net.Frame.dst) }
          :: p.samples
  end

(* --- GC pauses from the runtime's own event ring --- *)

let gc_callbacks p =
  let ts x = Int64.to_int (Runtime_events.Timestamp.to_int64 x) in
  Runtime_events.Callbacks.create
    ~runtime_begin:(fun _ t phase ->
        match phase with
        | Runtime_events.EV_MINOR -> p.minor_begin <- ts t
        | Runtime_events.EV_MAJOR_SLICE -> p.major_begin <- ts t
        | _ -> ())
    ~runtime_end:(fun _ t phase ->
        match phase with
        | Runtime_events.EV_MINOR when p.minor_begin > 0 ->
          p.minor_ns <- p.minor_ns + (ts t - p.minor_begin);
          p.minor_begin <- 0
        | Runtime_events.EV_MAJOR_SLICE when p.major_begin > 0 ->
          p.major_ns <- p.major_ns + (ts t - p.major_begin);
          p.major_begin <- 0
        | _ -> ())
    ~lost_events:(fun _ n -> p.lost_events <- p.lost_events + n)
    ()

let poll p callbacks =
  match p.cursor with
  | Some c -> ignore (Runtime_events.read_poll c callbacks None)
  | None -> ()

(* Install monitors, the sampler and the GC cursor on a world whose
   warm-up has run; from here on everything counts toward the horizon. *)
let attach p (w : World.t) =
  let routers = Hashtbl.create 256 in
  List.iter
    (fun nd ->
       if Node.is_router nd then
         List.iter
           (fun (i, _, _) ->
              Hashtbl.replace routers (Net.Mac.to_int (Node.iface_mac nd i)) nd)
           (Node.ifaces nd))
    (Net.Topology.nodes w.World.topo);
  List.iter
    (fun lan -> Net.Lan.add_monitor lan (monitor p routers))
    (Net.Topology.lans w.World.topo);
  Runtime_events.start ();
  Runtime_events.resume ();
  let callbacks = gc_callbacks p in
  p.cursor <- Some (Runtime_events.create_cursor None);
  (* drop whatever the ring held from before the horizon *)
  poll p callbacks;
  p.minor_ns <- 0;
  p.major_ns <- 0;
  p.minor_begin <- 0;
  p.major_begin <- 0;
  p.lost_events <- 0;
  let engine = Net.Topology.engine w.World.topo in
  let rec sampler at =
    if Time.(at <= w.World.stop) then
      World.at engine at (fun () ->
          own p (fun () ->
              p.probe_events <- p.probe_events + 1;
              p.pending_peak <- max p.pending_peak (Engine.pending engine);
              poll p callbacks;
              sampler (World.after at 10_000)))
  in
  sampler (World.after w.World.start 10_000);
  p.minor_gcs <- minor_collections ();
  p.armed <- true;
  callbacks

let detach p callbacks =
  p.armed <- false;
  p.minor_gcs <- minor_collections () - p.minor_gcs;
  poll p callbacks;
  Option.iter Runtime_events.free_cursor p.cursor;
  p.cursor <- None;
  Runtime_events.pause ()

(* --- replay of each layer's kernel over the sampled frames --- *)

(* ns per call of [f] over [items], repeated until about 20 ms of work. *)
let price items f =
  let n = Array.length items in
  if n = 0 then Float.nan
  else begin
    let t0 = Clock.now () in
    Array.iter f items;
    let once = max 1 (Clock.now () - t0) in
    let reps = max 1 (min 100 (20_000_000 / once)) in
    let t1 = Clock.now () in
    for _ = 1 to reps do
      Array.iter f items
    done;
    float_of_int (Clock.now () - t1) /. float_of_int (reps * n)
  end

let decoded samples cls =
  List.filter_map
    (fun s ->
       if s.cls = cls then
         match Packet.decode s.frame with
         | p -> Some p
         | exception Invalid_argument _ -> None
       else None)
    samples
  |> Array.of_list

(* Event_queue at [depth]: each step pops the earliest event, pushes its
   successor, and arms then cancels a near timer — the RTO pattern. *)
let queue_op_ns depth =
  let module Q = Netsim.Event_queue in
  let q = Q.create () in
  let rng = Random.State.make [| depth |] in
  let steps = 100_000 in
  let delays = Array.init steps (fun _ -> 1 + Random.State.int rng 1_000_000) in
  for i = 1 to max 1 depth do
    ignore (Q.push q (Time.of_us delays.(i mod steps)) ())
  done;
  let t0 = Clock.now () in
  for i = 0 to steps - 1 do
    match Q.pop q with
    | None -> ()
    | Some (at, ()) ->
      let base = Time.to_us at in
      ignore (Q.push q (Time.of_us (base + delays.(i))) ());
      ignore (Q.cancel q (Q.push q (Time.of_us (base + 1)) ()))
  done;
  float_of_int (Clock.now () - t0) /. float_of_int (4 * steps)

(* Per-layer metrics for one traced round.  [h] is the horizon's counter
   delta; [ops] the ops completed; [events] the engine events net of the
   sampler's own. *)
let layers p (w : World.t) ~wall_s ~ops ~events ~(h : Tally.t)
    ~(total : Tally.t) =
  let ns_s ns = float_of_int ns *. 1e-9 in
  let per_op x = float_of_int x /. float_of_int (max 1 ops) in
  let share a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let g = Tally.get h in
  let self_s = ns_s p.own_ns in
  let send_s = ns_s p.send.horizon_ns and move_s = ns_s p.move.horizon_ns in
  let loop_s = wall_s -. self_s -. send_s -. move_s in
  let per_call s =
    let n = Samples.count s.calls in
    if n = 0 then Float.nan else float_of_int s.words /. float_of_int n
  in
  let frames = Array.fold_left ( + ) 0 p.frames in
  let samples = p.samples in
  let all = Array.of_list samples in
  let routed =
    Array.of_list
      (List.filter_map
         (fun s ->
            match s.router with
            | Some nd when Bytes.length s.frame >= 20 ->
              Some (Node.routes nd, Ipv4.Packet.View.dst (Ipv4.Packet.View.make s.frame))
            | _ -> None)
         samples)
  in
  let tunneled = decoded samples c_mhrp in
  let control =
    decoded samples c_control
    |> Array.map (fun (pkt : Packet.t) ->
        (Ipv4.Udp.decode pkt.Packet.payload).Ipv4.Udp.data)
  in
  let tcp =
    decoded samples c_tcp |> Array.map (fun (pkt : Packet.t) -> pkt.Packet.payload)
  in
  let decode_encode_ns =
    price all (fun s ->
        match Packet.decode s.frame with
        | pkt -> ignore (Packet.encode pkt)
        | exception Invalid_argument _ -> ())
  in
  let detunnel_ns = price tunneled (fun pkt -> ignore (Mhrp.Encap.detunnel pkt)) in
  let control_ns = price control (fun b -> ignore (Mhrp.Control.decode b)) in
  let tcp_ns = price tcp (fun b -> ignore (Ipv4.Tcp_lite.decode b)) in
  let lookup_ns =
    price routed (fun (table, dst) -> ignore (Net.Route.lookup table dst))
  in
  (* last: rewriting the TTL mutates the samples, so one pass only *)
  let forwardable =
    Array.of_list
      (List.filter_map
         (fun s ->
            let v = Ipv4.Packet.View.make s.frame in
            if s.cls <> c_broadcast && Ipv4.Packet.View.valid v
               && Ipv4.Packet.View.ttl v > 1
            then Some s.frame
            else None)
         samples)
  in
  let view_ns =
    if Array.length forwardable = 0 then Float.nan
    else begin
      let t0 = Clock.now () in
      Array.iter
        (fun b ->
           let v = Ipv4.Packet.View.make b in
           if Ipv4.Packet.View.valid v then Ipv4.Packet.View.decr_ttl v)
        forwardable;
      float_of_int (Clock.now () - t0) /. float_of_int (Array.length forwardable)
    end
  in
  let queue_ns = queue_op_ns p.pending_peak in
  (* the world's own computations, then one more on the built world *)
  let recomputes = Net.Routing.recompute_count () - p.recomputes0 in
  let t0 = Clock.now () in
  Net.Topology.compute_routes w.World.topo;
  let compute_s = Clock.since t0 in
  let est ns count = if Float.is_nan ns then 0.0 else ns *. float_of_int count *. 1e-9 in
  let ip_frames = frames - p.frames.(c_arp) in
  [ ("workload.self_s", self_s, "s");
    ("mhrp.send_s", send_s, "s");
    ("mhrp.move_s", move_s, "s");
    ("netsim.loop_self_s", loop_s, "s");
    ("netsim.events", float_of_int events, "count");
    ("netsim.pending_peak", float_of_int p.pending_peak, "count");
    ("netsim.queue_op_ns", queue_ns, "ns");
    ("gc.minor_s", ns_s p.minor_ns, "s");
    ("gc.major_s", ns_s p.major_ns, "s");
    ("gc.minor_collections", float_of_int p.minor_gcs, "count");
    (* ring events overwritten before the sampler read them: GC time is
       undercounted when this is not 0 *)
    ("gc.lost_events", float_of_int p.lost_events, "count");
    ("net.routing.compute_s", compute_s, "s");
    ("net.routing.recomputes", float_of_int recomputes, "count");
    ("net.lan.frames_per_op", per_op frames, "frames");
    ("net.lan.bytes_per_op", per_op p.bytes, "bytes");
    ("net.lan.broadcast_share", share p.broadcasts frames, "ratio");
    ("net.arp.frames", float_of_int p.frames.(c_arp), "count");
    ("net.node.forwards_per_op", per_op (g "node.forwarded"), "forwards");
    ( "net.node.fast_share",
      share (g "node.fast_forwarded") (g "node.forwarded"),
      "ratio" );
    ("net.node.drops", float_of_int (g "node.dropped"), "count");
    ("net.route.lookup_ns", lookup_ns, "ns");
    ("ipv4.view_fwd_ns", view_ns, "ns");
    ("ipv4.decode_encode_ns", decode_encode_ns, "ns");
    ("ipv4.tcp_decode_ns", tcp_ns, "ns");
    ("mhrp.send_ns_p50", percentile p.send 50.0, "ns");
    ("mhrp.send_ns_p99", percentile p.send 99.0, "ns");
    ("mhrp.send_words", per_call p.send, "words");
    ("mhrp.move_ns", percentile p.move 50.0, "ns");
    ("mhrp.move_words", per_call p.move, "words");
    ("mhrp.tunnels_per_op", per_op (g "mhrp.tunnels"), "tunnels");
    ("mhrp.retunnels", float_of_int (g "mhrp.retunnels"), "count");
    (* whole round: warm-up moves count, so every workload has some *)
    ( "mhrp.ctrl_per_handoff",
      share (Tally.get total "mhrp.control") (Tally.get total "mhrp.moves"),
      "messages" );
    ("mhrp.updates_sent", float_of_int (g "mhrp.updates_sent"), "count");
    ( "mhrp.cache.hit_share",
      share (g "mhrp.cache_hits") (g "mhrp.cache_hits" + g "mhrp.cache_misses"),
      "ratio" );
    ("mhrp.cache.misses", float_of_int (g "mhrp.cache_misses"), "count");
    ("mhrp.cache.evictions", float_of_int (g "mhrp.cache_evictions"), "count");
    ("mhrp.encap.detunnel_ns", detunnel_ns, "ns");
    ("mhrp.control.decode_ns", control_ns, "ns");
    ("transport.segs_per_op", per_op (g "tcp.segs_sent"), "segments");
    ( "transport.rtx_share",
      share (g "tcp.retransmissions") (g "tcp.segs_sent"),
      "ratio" );
    ( "transport.dup_share",
      share (g "tcp.duplicates") (g "tcp.segs_received"),
      "ratio" );
    ("transport.out_of_order", float_of_int (g "tcp.out_of_order"), "count");
    (* "of which" estimates: per-call price x calls made in the horizon *)
    ("est.view_fwd_s", est view_ns (g "node.fast_forwarded"), "s");
    ( "est.decode_encode_s",
      est decode_encode_ns (ip_frames - g "node.fast_forwarded"),
      "s" );
    ("est.detunnel_s", est detunnel_ns (g "mhrp.detunnels"), "s");
    ("est.control_decode_s", est control_ns p.frames.(c_control), "s");
    ("est.tcp_decode_s", est tcp_ns p.frames.(c_tcp), "s");
    ( "est.route_lookup_s",
      est lookup_ns (g "node.forwarded" + g "node.originated"),
      "s" );
    ("est.queue_s", est queue_ns (2 * events), "s") ]
