(* ALLOC: allocation and throughput of the zero-copy forwarding fast
   path (DESIGN.md Section 11).

   Five measurements, each gated on its deterministic numbers:

   - the per-hop header operation in isolation: the classical
     decode -> decr_ttl -> encode round-trip against the view path's
     in-place TTL/checksum rewrite.  Allocation counts are exact word
     counts (gated Pct, absorbing codegen drift across compiler
     versions); the wall-clock ratio between the two loops is recorded
     at Info tolerance, never gated, since it moves with the machine's
     load.  A >= 10x allocation-cut flag is gated exactly.

   - an eight-router chain simulation, run three times: plain transit
     routers on the view path; the same routers forced onto the record
     path (a no-op forward tap, exactly how metric-bearing experiments
     turn the view path off); and a snooping MHRP agent on every router,
     whose cold location cache makes every hop run the cache lookup and
     then forward on the view path.  Gates minor words per hop for all
     three modes and the fast-forward engagement counters (Exact: 8 hops
     x every packet in the fast and agent modes, zero in slow mode).

   - the tunnel path on wire bytes: one agent-built tunnel and its exit
     built from a view against the record-based transformations, with
     byte-for-byte equivalence flags, and one tunneled datagram through
     Figure 1 (sender tunnel, hops, foreign-agent exit, last hop) at
     64 B and 1 KiB payloads.

   - the transport layer: TCP segment encode/decode word counts and the
     full socket send path (queue, segment, deliver, ack) per 256-byte
     send on a quiet topology, with an exact zero-retransmission gate.

   - the control receive path: the words each station spends on an
     agent advertisement it ignores (the slope between LANs of 8 and 32
     home-agent routers), and the words per completed handoff of Figure
     1's mobile ping-ponging between R4's cell and home, with the
     handoff count gated exactly. *)

module Time = Netsim.Time
module Addr = Ipv4.Addr
module Packet = Ipv4.Packet
module View = Ipv4.Packet.View
module Node = Net.Node
module Topology = Net.Topology

let exp = "alloc"

(* --- part 1: the per-hop forwarding operation --------------------- *)

let header_ops = 50_000
let timing_ops = 1_000_000

let sample = Exp_util.sample_packet ~src:(Addr.host 1 10) ~dst:(Addr.host 2 10) ()
let wire_small = Packet.encode sample

(* Larger datagrams — a 512-byte mid-size and a full-MTU bulk-transfer
   packet: the record path's cost grows with the payload it copies
   twice (decode and re-encode), the view path's does not — zero-copy's
   whole point. *)
let wire_of_payload n =
  Packet.encode
    (Ipv4.Packet.make ~id:1 ~proto:Ipv4.Proto.udp ~src:(Addr.host 1 10)
       ~dst:(Addr.host 2 10)
       (Ipv4.Udp.encode
          (Ipv4.Udp.make ~src_port:4000 ~dst_port:4000
             (Bytes.make n '\000'))))

let wire_mid = wire_of_payload 484
let wire_big = wire_of_payload 1444  (* 1472B total, fits a 1500B MTU *)

let record_hop wire =
  let p = Packet.decode wire in
  match Packet.decr_ttl p with
  | Some p -> ignore (Packet.encode p)
  | None -> assert false

(* The fast path's per-hop op, exactly: view, validate, patch TTL in
   place.  The enclosing loops restore the TTL every 60 decrements to
   stay steady-state — an amortised 1/60 of an extra patch. *)
let view_hop buf =
  let v = View.make buf in
  if not (View.valid v) then failwith "view_hop: invalid";
  View.decr_ttl v

let view_restore buf = View.set_ttl (View.make buf) Packet.default_ttl

let view_batch buf = for _ = 1 to 60 do view_hop buf done; view_restore buf

(* Direct calls to known functions, not a generic closure loop: a few ns
   of indirection per iteration would bias the ratio against the cheaper
   path. *)
let time_record n wire =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to n do record_hop wire done;
  Unix.gettimeofday () -. t0

let time_view n buf =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to n / 60 do view_batch buf done;
  Unix.gettimeofday () -. t0

(* best of three: a scheduler preemption inside one run can only slow a
   loop down, so the minimum is the cleanest estimate of each *)
let best f = min (f ()) (min (f ()) (f ()))

let header_size ~size wire =
  let (), rec_alloc =
    Obs.Alloc.measure (fun () ->
        for _ = 1 to header_ops do record_hop wire done)
  in
  let view_buf = Bytes.copy wire in
  let view_ops = header_ops / 60 * 60 in
  let (), view_alloc =
    Obs.Alloc.measure (fun () ->
        for _ = 1 to header_ops / 60 do view_batch view_buf done)
  in
  let rec_w = (Obs.Alloc.per rec_alloc header_ops).Obs.Alloc.minor_words in
  (* The view path allocates nothing per hop; the harness's own words,
     spread over the ops, are a few ten-thousandths.  Rounded to one
     decimal, the gauge reads 0.0, which a Pct tolerance holds exactly,
     so any per-hop allocation coming back fails the check. *)
  let view_w =
    Float.round
      ((Obs.Alloc.per view_alloc view_ops).Obs.Alloc.minor_words *. 10.0)
    /. 10.0
  in
  let rec_s =
    best (fun () -> time_record timing_ops wire) /. float_of_int timing_ops
  in
  let view_s =
    best (fun () -> time_view timing_ops view_buf)
    /. float_of_int (timing_ops / 60 * 60)
  in
  let labels path = [("path", path); ("size", string_of_int size)] in
  Exp_util.rec_f ~exp ~labels:(labels "record") ~tol:(Obs.Metric.Pct 30.0)
    "fwd_minor_words_per_hop" rec_w;
  Exp_util.rec_f ~exp ~labels:(labels "view") ~tol:(Obs.Metric.Pct 30.0)
    "fwd_minor_words_per_hop" view_w;
  Exp_util.rec_f ~exp ~labels:[("size", string_of_int size)]
    ~tol:Obs.Metric.Info "fwd_speedup" (rec_s /. view_s);
  Exp_util.rec_f ~exp ~labels:[("size", string_of_int size)]
    ~tol:Obs.Metric.Info "fwd_view_pps" (1.0 /. view_s);
  (rec_w, view_w, rec_s, view_s)

let part_header () =
  let sizes =
    List.map
      (fun w -> (Bytes.length w, header_size ~size:(Bytes.length w) w))
      [wire_small; wire_mid; wire_big]
  in
  let b_rec_w, b_view_w, b_rec_s, b_view_s =
    snd (List.nth sizes 2)
  in
  let speedup = b_rec_s /. b_view_s in
  (* the order-of-magnitude allocation cut, machine-independent *)
  Exp_util.rec_flag ~exp "fwd_alloc_cut_ge_10x" (b_rec_w /. b_view_w >= 10.0);
  Exp_util.table
    ~columns:
      [ "per-hop fwd op"; "record w/op"; "view w/op"; "record ns";
        "view ns"; "speedup" ]
    (List.map
       (fun (size, (rec_w, view_w, rec_s, view_s)) ->
          [ Printf.sprintf "%dB datagram" size; Exp_util.f1 rec_w;
            Exp_util.f1 view_w; Printf.sprintf "%.0f" (rec_s *. 1e9);
            Printf.sprintf "%.0f" (view_s *. 1e9);
            Printf.sprintf "%.1fx" (rec_s /. view_s) ])
       sizes);
  Exp_util.note
    "full-MTU: %.1fx speedup, %.1f minor words per hop \
     against %.0f (gate: >= 10x fewer), %.2f Mpkt/s on the view path"
    speedup b_view_w b_rec_w (1.0 /. b_view_s /. 1e6)

(* --- part 2: the chain simulation --------------------------------- *)

let chain_routers = 8
let chain_packets = 2000

type chain_mode = Fast | Slow | Agent

(* S on net 0, D on net [chain_routers], router k bridging net k-1 to
   net k.  No Workload.Metrics: its transmit taps would (by design) make
   every transmission decode its packet for them. *)
let chain_run mode =
  let topo = Topology.create ~seed:11 () in
  let lans =
    List.init (chain_routers + 1) (fun k ->
        Topology.add_lan topo ~net:(k + 1) (Printf.sprintf "net%d" k))
  in
  let lan k = List.nth lans k in
  let routers =
    List.init chain_routers (fun k ->
        Topology.add_router topo
          (Printf.sprintf "R%d" (k + 1))
          [(lan k, 2); (lan (k + 1), 1)])
  in
  let s = Topology.add_host topo "S" (lan 0) 10 in
  let d = Topology.add_host topo "D" (lan chain_routers) 10 in
  Topology.compute_routes topo;
  (match mode with
   | Fast -> ()
   | Slow -> List.iter (fun r -> Node.on_forward r (fun _ _ -> ())) routers
   | Agent ->
     List.iter (fun r -> ignore (Mhrp.Agent.create ~snoop:true r)) routers);
  Node.set_proto_handler d Ipv4.Proto.udp (fun _ _ -> ());
  let pkt =
    Exp_util.sample_packet ~src:(Node.primary_addr s)
      ~dst:(Node.primary_addr d) ()
  in
  let engine = Topology.engine topo in
  (* one packet warms every ARP cache on the path *)
  Node.send s pkt;
  Topology.run ~until:(Time.of_sec 0.5) topo;
  let fwd0 = List.map Node.packets_forwarded routers in
  let fast0 = List.map Node.packets_fast_forwarded routers in
  let del0 = Node.packets_delivered d in
  ignore
    (Netsim.Engine.schedule engine ~at:(Time.of_sec 0.6) (fun () ->
         for _ = 1 to chain_packets do Node.send s pkt done));
  let t0 = Unix.gettimeofday () in
  let (), alloc =
    Obs.Alloc.measure (fun () -> Topology.run ~until:(Time.of_sec 5.0) topo)
  in
  let wall = Unix.gettimeofday () -. t0 in
  let sum l0 l1 = List.fold_left2 (fun a x0 x1 -> a + x1 - x0) 0 l0 l1 in
  let hops = sum fwd0 (List.map Node.packets_forwarded routers) in
  let fast = sum fast0 (List.map Node.packets_fast_forwarded routers) in
  let delivered = Node.packets_delivered d - del0 in
  (alloc, hops, fast, delivered, wall)

let part_chain () =
  let gate mode (alloc, hops, fast, delivered, wall) =
    let labels = [("path", mode)] in
    let per_hop = alloc.Obs.Alloc.minor_words /. float_of_int hops in
    Exp_util.rec_i ~exp ~labels "chain_hops" hops;
    Exp_util.rec_i ~exp ~labels "chain_fast_forwarded" fast;
    Exp_util.rec_i ~exp ~labels "chain_delivered" delivered;
    Exp_util.rec_f ~exp ~labels ~tol:(Obs.Metric.Pct 30.0)
      "chain_minor_words_per_hop" per_hop;
    Exp_util.rec_f ~exp ~labels ~tol:Obs.Metric.Info "chain_forwarded_pps"
      (float_of_int hops /. wall);
    (per_hop, fast, wall, hops)
  in
  let fast_ph, fast_n, fast_wall, hops = gate "fast" (chain_run Fast) in
  let slow_ph, slow_n, slow_wall, _ = gate "slow" (chain_run Slow) in
  let agent_ph, agent_n, agent_wall, agent_hops =
    gate "agent" (chain_run Agent)
  in
  let row mode hops n ph wall =
    [ mode; Exp_util.i hops; Exp_util.i n; Exp_util.f1 ph;
      Exp_util.f1 (float_of_int hops /. wall /. 1000.0) ]
  in
  Exp_util.table
    ~columns:["chain mode"; "hops"; "fast-path"; "minor w/hop"; "kpkt-hops/s"]
    [ row "fast" hops fast_n fast_ph fast_wall;
      row "slow" hops slow_n slow_ph slow_wall;
      row "agent" agent_hops agent_n agent_ph agent_wall ];
  Exp_util.note
    "fast path engaged on %d/%d hops (%d/%d through agents); %.1fx fewer \
     minor words per hop"
    fast_n hops agent_n agent_hops (slow_ph /. fast_ph)

(* --- part 3: tunnels on wire bytes ---------------------------------- *)

let encap_ops = 10_000

(* One tunnel and one exit, record path against the wire builders the
   agents run: byte-for-byte equivalence flags and words per pair. *)
let encap_pair () =
  let agent = Addr.host 2 1 and foreign_agent = Addr.host 4 1 in
  let tunneled_rec = Mhrp.Encap.tunnel_by_agent ~agent ~foreign_agent sample in
  let tunneled_wire = Packet.encode tunneled_rec in
  let v = View.make wire_small in
  let tv = View.make tunneled_wire in
  let exit tv =
    match Mhrp.Encap.header_at tv with
    | Some h -> (Mhrp.Encap.detunnel_into tv h, h)
    | None -> failwith "header_at: None"
  in
  let enc_ok =
    Bytes.equal
      (Mhrp.Encap.tunnel_by_agent_into ~agent ~foreign_agent v)
      tunneled_wire
  in
  let dec_ok =
    match Mhrp.Encap.detunnel tunneled_rec with
    | Some (orig, h') ->
      let buf, h = exit tv in
      Bytes.equal buf (Packet.encode orig) && Mhrp.Mhrp_header.equal h h'
    | None -> false
  in
  Exp_util.rec_flag ~exp "encap_wire_equivalent" enc_ok;
  Exp_util.rec_flag ~exp "detunnel_wire_equivalent" dec_ok;
  (* steady-state allocation: the record path rebuilds and re-encodes,
     the wire path writes two exact-size buffers *)
  let (), rec_alloc =
    Obs.Alloc.measure (fun () ->
        for _ = 1 to encap_ops do
          ignore
            (Packet.encode
               (Mhrp.Encap.tunnel_by_agent ~agent ~foreign_agent sample));
          ignore (Mhrp.Encap.detunnel tunneled_rec)
        done)
  in
  let (), wire_alloc =
    Obs.Alloc.measure (fun () ->
        for _ = 1 to encap_ops do
          ignore (Mhrp.Encap.tunnel_by_agent_into ~agent ~foreign_agent v);
          ignore (exit tv)
        done)
  in
  let rec_w = (Obs.Alloc.per rec_alloc encap_ops).Obs.Alloc.minor_words in
  let wire_w = (Obs.Alloc.per wire_alloc encap_ops).Obs.Alloc.minor_words in
  Exp_util.rec_f ~exp ~labels:[("path", "record")] ~tol:(Obs.Metric.Pct 30.0)
    "encap_minor_words_per_op" rec_w;
  Exp_util.rec_f ~exp ~labels:[("path", "wire")] ~tol:(Obs.Metric.Pct 30.0)
    "encap_minor_words_per_op" wire_w;
  [ [ "encap+decap, record (rebuild+re-encode)"; Exp_util.f1 rec_w; "-" ];
    [ "encap+decap, wire (single blit)"; Exp_util.f1 wire_w;
      (if enc_ok && dec_ok then "yes" else "NO") ] ]

let tunnel_packets = 200

(* One tunneled datagram through Figure 1, per packet: S's sender-built
   tunnel on a location-cache hit, the forwarding hops, R4's tunnel
   exit and the last hop to M, with M's receive.  A first burst warms
   the ARP caches and the event queue; every measured datagram must
   arrive. *)
let tunnel_words size =
  let f = Workload.Topo_gen.figure1 () in
  let topo = f.Workload.Topo_gen.topo in
  let s = f.Workload.Topo_gen.s and m = f.Workload.Topo_gen.m in
  Workload.Mobility.move_at topo m ~at:(Time.of_sec 0.5)
    f.Workload.Topo_gen.net_d;
  Topology.run ~until:(Time.of_sec 2.0) topo;
  let foreign_agent =
    match Mhrp.Agent.mobile m with
    | Some { Mhrp.Mobile_host.phase = Mhrp.Mobile_host.Registered fa; _ } ->
      fa
    | _ -> failwith "tunnel_words: M is not registered"
  in
  let dst = Mhrp.Agent.address m in
  let received = ref 0 in
  Mhrp.Agent.on_app_receive m (fun _ -> incr received);
  let data = Bytes.make size '\000' in
  let burst ~until =
    Mhrp.Location_cache.update (Mhrp.Agent.cache s) ~mobile:dst ~foreign_agent;
    for _ = 1 to tunnel_packets do Mhrp.Agent.send_udp s ~dst data done;
    Topology.run ~until:(Time.of_sec until) topo
  in
  burst ~until:3.0;
  let before = !received in
  let (), alloc = Obs.Alloc.measure (fun () -> burst ~until:4.0) in
  if !received - before <> tunnel_packets then
    failwith "tunnel_words: a measured datagram was lost";
  (Obs.Alloc.per alloc tunnel_packets).Obs.Alloc.minor_words

let part_encap () =
  let rows = encap_pair () in
  let tunnel =
    List.map
      (fun size ->
         let w = tunnel_words size in
         Exp_util.rec_f ~exp ~labels:[("size", string_of_int size)]
           ~tol:(Obs.Metric.Pct 30.0) "tunnel_minor_words_per_packet" w;
         [ Printf.sprintf "Figure 1 tunneled datagram, %dB" size;
           Exp_util.f1 w; "-" ])
      [64; 1024]
  in
  Exp_util.table ~columns:["tunnel path"; "minor w/op"; "wire-equivalent"]
    (rows @ tunnel)

(* --- part 4: transport segment codec and socket send path --------- *)

let tcp_ops = 20_000
let sock_sends = 400

let tcp_segment =
  Ipv4.Tcp_lite.make ~seq:0x1234_5678 ~ack:0x0fed_cba9
    ~flags:[Ipv4.Tcp_lite.Psh; Ipv4.Tcp_lite.Ack] ~window:4096
    ~src_port:49152 ~dst_port:80 (Bytes.create 512)

let tcp_wire = Ipv4.Tcp_lite.encode tcp_segment

let part_transport () =
  (* the reference segment codec in isolation: the tests, the wire
     corpus and the record-level tools use it; sockets write and read
     segments in place *)
  let (), enc_alloc =
    Obs.Alloc.measure (fun () ->
        for _ = 1 to tcp_ops do
          ignore (Ipv4.Tcp_lite.encode tcp_segment)
        done)
  in
  let (), dec_alloc =
    Obs.Alloc.measure (fun () ->
        for _ = 1 to tcp_ops do
          match Ipv4.Tcp_lite.decode tcp_wire with
          | Some _ -> ()
          | None -> failwith "tcp decode: None"
        done)
  in
  let enc_w = (Obs.Alloc.per enc_alloc tcp_ops).Obs.Alloc.minor_words in
  let dec_w = (Obs.Alloc.per dec_alloc tcp_ops).Obs.Alloc.minor_words in
  Exp_util.rec_f ~exp ~labels:[("op", "encode")] ~tol:(Obs.Metric.Pct 30.0)
    "tcp_minor_words_per_op" enc_w;
  Exp_util.rec_f ~exp ~labels:[("op", "decode")] ~tol:(Obs.Metric.Pct 30.0)
    "tcp_minor_words_per_op" dec_w;
  (* the full socket send path on a quiet Figure 1 topology: one
     established connection, each op queues 256 stream bytes and runs the
     engine until the ack returns — the segment written from the send
     stream into its packet, two ARP-warm hops, the in-place receive and
     delivery (recv_cb gets the packet's bytes, no copy), ack processing
     and timer churn included.
     Retransmissions must be exactly zero: an idle-path RTO misfire would
     silently double the cost. *)
  let f =
    Workload.Topo_gen.figure1 ()
  in
  let topo = f.Workload.Topo_gen.topo in
  let server = Transport.Stack.create f.Workload.Topo_gen.m in
  let client = Transport.Stack.create f.Workload.Topo_gen.s in
  let received = ref 0 in
  ignore
    (Transport.Socket.listen server ~port:7 (fun sock ->
         Transport.Socket.recv_cb sock (fun _ _ len ->
             received := !received + len)));
  let sock =
    Transport.Socket.connect client
      ~dst:(Mhrp.Agent.address f.Workload.Topo_gen.m) ~dst_port:7 ()
  in
  Topology.run ~until:(Time.of_sec 1.0) topo;
  assert (Transport.Socket.is_established sock);
  let chunk = Bytes.make 256 '\000' in
  let send_op () =
    Transport.Socket.send sock chunk;
    Topology.run ~until:(Time.add (Topology.now topo) (Time.of_ms 50)) topo
  in
  send_op ();  (* warm the path before measuring *)
  let (), sock_alloc =
    Obs.Alloc.measure (fun () -> for _ = 1 to sock_sends do send_op () done)
  in
  let sock_w = (Obs.Alloc.per sock_alloc sock_sends).Obs.Alloc.minor_words in
  let rtx =
    (Transport.Stack.counters client).Transport.Counters.retransmissions
  in
  Exp_util.rec_f ~exp ~tol:(Obs.Metric.Pct 30.0)
    "sock_send_minor_words_per_op" sock_w;
  Exp_util.rec_i ~exp "sock_send_retransmissions" rtx;
  Exp_util.rec_i ~exp "sock_send_bytes_delivered" !received;
  Exp_util.table
    ~columns:["transport op"; "minor w/op"]
    [ [ "tcp encode (512B, Psh|Ack)"; Exp_util.f1 enc_w ];
      [ "tcp decode (512B, Psh|Ack)"; Exp_util.f1 dec_w ];
      [ "socket send 256B (round trip)"; Exp_util.f1 sock_w ] ];
  Exp_util.note
    "socket send path: %.0f minor words per 256B send-and-ack round trip, \
     %d retransmissions (gate: exactly 0)"
    sock_w rtx

(* --- part 5: the control receive path ------------------------------ *)

(* The minor words of one advertisement from one of [k] snooping
   home-agent routers on a LAN: every other router receives it and,
   being no mobile host, ignores it.  The first advertisement builds
   the LAN's station order and is not measured. *)
let advert_words k =
  let topo = Topology.create ~seed:11 () in
  let lan = Topology.add_lan topo ~net:1 "lan" in
  let agents =
    List.init k (fun i ->
        let r =
          Topology.add_router topo (Printf.sprintf "R%d" i) [(lan, i + 1)]
        in
        let a = Mhrp.Agent.create ~snoop:true r in
        Mhrp.Agent.enable_home_agent a;
        a)
  in
  let advert_until sec =
    Mhrp.Agent.broadcast_advert (List.hd agents);
    Topology.run ~until:(Time.of_sec sec) topo
  in
  advert_until 1.0;
  let (), alloc = Obs.Alloc.measure (fun () -> advert_until 2.0) in
  alloc.Obs.Alloc.minor_words

let handoff_moves = 200
let handoff_period_ms = 200

(* Figure 1 under a reliable control plane: M ping-pongs between R4's
   cell and home, each move a full solicitation, advertisement, connect
   and registration.  Two untimed moves warm the ARP caches and the
   event queue. *)
let handoff_loop () =
  let f =
    Workload.Topo_gen.figure1
      ~config:(Mhrp.Config.make ~reliable_control:true ()) ()
  in
  let topo = f.Workload.Topo_gen.topo in
  let m = f.Workload.Topo_gen.m in
  let completed = ref 0 in
  Mhrp.Agent.on_registered m (fun _ -> incr completed);
  let schedule_moves ~from_ms n =
    for k = 0 to n - 1 do
      ignore
        (Netsim.Engine.schedule (Topology.engine topo)
           ~at:(Time.of_ms (from_ms + (k * handoff_period_ms)))
           (fun () ->
              Mhrp.Agent.move_to ~topo m
                (if k mod 2 = 0 then f.Workload.Topo_gen.net_d
                 else f.Workload.Topo_gen.net_b)))
    done
  in
  schedule_moves ~from_ms:1000 2;
  Topology.run ~until:(Time.of_sec 2.0) topo;
  let warm = !completed in
  schedule_moves ~from_ms:2000 handoff_moves;
  let until = Time.of_ms (3000 + (handoff_moves * handoff_period_ms)) in
  let (), alloc = Obs.Alloc.measure (fun () -> Topology.run ~until topo) in
  (alloc, !completed - warm)

let part_control () =
  let small = advert_words 8 and large = advert_words 32 in
  let per_receiver = (large -. small) /. 24.0 in
  let alloc, handoffs = handoff_loop () in
  let per_handoff =
    (Obs.Alloc.per alloc (max 1 handoffs)).Obs.Alloc.minor_words
  in
  Exp_util.rec_f ~exp ~tol:(Obs.Metric.Pct 30.0)
    "advert_minor_words_per_receiver" per_receiver;
  Exp_util.rec_i ~exp "handoff_completed" handoffs;
  Exp_util.rec_f ~exp ~tol:(Obs.Metric.Pct 30.0)
    "handoff_minor_words_per_op" per_handoff;
  Exp_util.table
    ~columns:["control receive path"; "minor words"]
    [ [ "ignored advertisement, per receiver"; Exp_util.f1 per_receiver ];
      [ Printf.sprintf "completed handoff (%d of %d)" handoffs handoff_moves;
        Exp_util.f1 per_handoff ] ]

let run () =
  Exp_util.heading "ALLOC"
    "zero-copy fast path: allocations, throughput, tunnel path";
  part_header ();
  part_chain ();
  part_encap ();
  part_transport ();
  part_control ()

let experiment =
  Exp_util.Experiment.make ~id:"alloc"
    ~title:"zero-copy fast path: allocations, throughput, tunnel path" run
