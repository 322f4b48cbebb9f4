(* The zero-copy forwarding fast path (DESIGN.md Section 11): the
   in-place header rewrite and the wire-built tunnels must be
   byte-equivalent to the classical decode -> rebuild -> encode paths,
   the view decoders must be total on hostile bytes, a transit chain
   must produce byte-identical traffic whether or not the fast path
   engages, and tracing a world must not change the path it takes. *)

module Time = Netsim.Time
module Rng = Netsim.Rng
module Addr = Ipv4.Addr
module Packet = Ipv4.Packet
module View = Ipv4.Packet.View
module Node = Net.Node
module Topology = Net.Topology

let qtest = QCheck_alcotest.to_alcotest
let arb_seed = QCheck.(make ~print:string_of_int Gen.(int_bound 1_000_000))

(* A random packet: fields, fragmentation bits, options and payload all
   derived from one printable seed. *)
let mk_packet ?(options = true) rng =
  let opts =
    if not options then []
    else
      match Rng.int rng 4 with
      | 0 -> [Ipv4.Ip_option.lsrr [Addr.host 9 1; Addr.host 9 2]]
      | 1 -> [Ipv4.Ip_option.Nop; Ipv4.Ip_option.lsrr [Addr.host 9 3]]
      | _ -> []
  in
  let more_fragments = Rng.int rng 4 = 0 in
  Packet.make ~tos:(Rng.int rng 256) ~id:(Rng.int rng 0x10000)
    ~dont_fragment:(Rng.int rng 4 = 0 && not more_fragments)
    ~more_fragments
    ~frag_offset:(8 * Rng.int rng 16)
    ~ttl:(1 + Rng.int rng 255)
    ~proto:(Rng.int rng 256)
    ~src:(Addr.host (Rng.int rng 200) (1 + Rng.int rng 250))
    ~dst:(Addr.host (Rng.int rng 200) (1 + Rng.int rng 250))
    (Bytes.init (Rng.int rng 201) (fun _ -> Char.chr (Rng.int rng 256)))
    ~options:opts

(* In-place TTL rewrite == decode -> mutate -> re-encode, bit for bit,
   for arbitrary headers (with and without options). *)
let patch_equals_reencode seed =
  let rng = Rng.of_int seed in
  let p = mk_packet rng in
  let wire = Packet.encode p in
  let new_ttl = Rng.int rng 256 in
  let a = Bytes.copy wire in
  let va = View.make a in
  View.valid va
  && (View.decr_ttl va;
      Bytes.equal a
        (Packet.encode { p with Ipv4.Packet.ttl = p.Ipv4.Packet.ttl - 1 }))
  && (let b = Bytes.copy wire in
      let vb = View.make b in
      View.set_ttl vb new_ttl;
      Bytes.equal b (Packet.encode { p with Ipv4.Packet.ttl = new_ttl }))

(* Checksum.update == zero-and-recompute after any single word change,
   on any header-like range (first byte pinned non-zero, as in real IPv4
   headers — the documented precondition). *)
let update_equals_set seed =
  let rng = Rng.of_int seed in
  let len = 20 + (2 * Rng.int rng 21) in
  let buf = Bytes.init len (fun _ -> Char.chr (Rng.int rng 256)) in
  Bytes.set buf 0 '\x45';
  Ipv4.Checksum.set buf ~at:10 ~off:0 ~len;
  let i =
    let i = 2 + (2 * Rng.int rng ((len / 2) - 2)) in
    if i = 10 then 12 else i
  in
  let new_word = Rng.int rng 0x10000 in
  let a = Bytes.copy buf and b = Bytes.copy buf in
  let old_word = Bytes.get_uint16_be a i in
  Bytes.set_uint16_be a i new_word;
  Ipv4.Checksum.update a ~at:10 ~old_word ~new_word;
  Bytes.set_uint16_be b i new_word;
  Ipv4.Checksum.set b ~at:10 ~off:0 ~len;
  Bytes.equal a b

(* View.valid and View.decode_prefix never raise on arbitrary bytes, the
   whole string or its last two thirds; a valid option-free view whose
   total length is its buffer's decodes. *)
let view_total s =
  let buf = Bytes.of_string s in
  let n = Bytes.length buf in
  let check off len =
    let v = View.make (Bytes.sub buf off len) in
    let no_raise name f =
      match f () with
      | _ -> true
      | exception e ->
        QCheck.Test.fail_reportf "%s raised %s on %S off=%d len=%d" name
          (Printexc.to_string e) s off len
    in
    no_raise "View.valid" (fun () -> View.valid v)
    && no_raise "View.decode_prefix" (fun () -> View.decode_prefix v)
    && (not
          (View.valid v
           && (not (View.has_options v))
           && View.total_length v = len)
        ||
        match View.decode v with
        | _ -> true
        | exception e ->
          QCheck.Test.fail_reportf
            "View.decode raised %s on a valid view of %S"
            (Printexc.to_string e) s)
  in
  check 0 n && (n < 3 || check (n / 3) (n - (n / 3)))

(* --- the wire-byte tunnel builders against the record functions --- *)

module Encap = Mhrp.Encap
module Header = Mhrp.Mhrp_header

let random_addr rng = Addr.host (Rng.int rng 200) (1 + Rng.int rng 250)

(* [p]'s wire bytes, on a coin flip with the reserved flag bit set —
   received bytes may carry it, and decoding drops it. *)
let wire_of rng (p : Packet.t) =
  let wire = Packet.encode p in
  if Rng.int rng 2 = 0 then begin
    Bytes.set_uint8 wire 6 (Bytes.get_uint8 wire 6 lor 0x80);
    Ipv4.Checksum.set wire ~at:10 ~off:0 ~len:(Packet.header_length p)
  end;
  wire

(* [p] tunneled with [heads] as its header's list. *)
let tunneled_with (p : Packet.t) heads =
  { p with
    Packet.proto = Ipv4.Proto.mhrp;
    payload =
      Header.encode
        (Header.make ~prev_sources:heads ~orig_proto:p.Packet.proto
           ~mobile:p.Packet.dst ())
        p.Packet.payload }

(* The wire re-tunnel's verdict and bytes equal the record re-tunnel's,
   encoded. *)
let same_retunnel record (wire : bytes Encap.retunnel_result) =
  match record, wire with
  | Some (Encap.Retunneled p), Encap.Retunneled b ->
    Bytes.equal (Packet.encode p) b
  | ( Some (Encap.Retunneled_overflow { packet; notify }),
      Encap.Retunneled_overflow { packet = b; notify = n } ) ->
    Bytes.equal (Packet.encode packet) b && List.equal Addr.equal notify n
  | Some (Encap.Loop_detected { members }), Encap.Loop_detected { members = m }
    ->
    List.equal Addr.equal members m
  | _ -> false

(* Exit and re-tunnel of [tp] on the wire == the record functions. *)
let exit_and_retunnel_agree rng ~max_prev_sources (tp : Packet.t) =
  let v = View.make (wire_of rng tp) in
  match Encap.header_at v, Encap.detunnel tp with
  | Some h, Some (original, h') ->
    Header.equal h h'
    && Bytes.equal (Encap.detunnel_into v h) (Packet.encode original)
    && List.for_all
         (fun me ->
            let new_dst = random_addr rng in
            same_retunnel
              (Encap.retunnel ~max_prev_sources ~me ~new_dst tp)
              (Encap.retunnel_into ~max_prev_sources ~me ~new_dst v h))
         (* an outsider; the incoming source itself; and, when the list
            is not empty, one of its members — the two loop cases *)
         (random_addr rng :: tp.Packet.src
          :: (match h.Header.prev_sources with
              | [] -> []
              | heads -> [List.nth heads (Rng.int rng (List.length heads))]))
  | _ -> false (* a tunnel the record functions built always parses *)

(* Every [_into] builder == encoding the record function's result, for
   random packets with and without IP options (those with options go
   through the record fallback), tunnel lists of every length up to the
   bound, and the loop and full-list verdicts. *)
let encap_into_equals_record seed =
  let rng = Rng.of_int seed in
  let p = mk_packet rng in
  let v = View.make (wire_of rng p) in
  let agent = Addr.host 3 1 and foreign_agent = Addr.host 4 1 in
  let max_prev_sources = Mhrp.Config.default.Mhrp.Config.max_prev_sources in
  let ok_agent =
    Bytes.equal
      (Encap.tunnel_by_agent_into ~agent ~foreign_agent v)
      (Packet.encode (Encap.tunnel_by_agent ~agent ~foreign_agent p))
  in
  let ok_sender =
    Bytes.equal
      (Encap.tunnel_by_sender_into ~foreign_agent p)
      (Packet.encode (Encap.tunnel_by_sender ~foreign_agent p))
  in
  let ok_lists =
    List.for_all
      (fun k ->
         exit_and_retunnel_agree rng ~max_prev_sources
           (tunneled_with p (List.init k (fun _ -> random_addr rng))))
      (List.init (max_prev_sources + 1) Fun.id)
  in
  (* a packet that is not a tunnel has no header on either path —
     unless its payload happens to parse as an MHRP header, in which
     case the two must still agree *)
  let ok_plain =
    match Encap.header_at v, Encap.header_of p with
    | None, None -> true
    | Some h, Some h' -> Header.equal h h'
    | _ -> false
  in
  ok_agent && ok_sender && ok_lists && ok_plain

(* The field writers an originating node uses == the record encoders
   they replace, kept as the reference: random identification,
   protocol, addresses and payload, the payload written into the gap
   after the build.  The identification and the protocol are each out
   of range one draw in eight, and the length is at the IP limit one
   draw in eight, either side of it for both writers: an invalid field
   must raise the reference's [Invalid_argument]. *)
let field_writers_equal_records seed =
  let rng = Rng.of_int seed in
  let out_of_range max =
    if Rng.int rng 8 = 0 then max + 1 + Rng.int rng 100
    else Rng.int rng (max + 1)
  in
  let id = out_of_range 0xFFFF in
  let proto = out_of_range 0xFF in
  let src = random_addr rng and dst = random_addr rng in
  let foreign_agent = random_addr rng in
  let len =
    if Rng.int rng 8 = 0 then 0xFFFF - 36 + Rng.int rng 24 else Rng.int rng 64
  in
  let payload = Bytes.init len (fun _ -> Char.chr (Rng.int rng 256)) in
  let record = Packet.make ~id ~proto ~src ~dst payload in
  let outcome f =
    match f () with b -> Ok b | exception Invalid_argument msg -> Error msg
  in
  let agree written reference =
    match outcome written, outcome reference with
    | Ok wire, Ok expected ->
      Bytes.blit payload 0 wire (Bytes.length wire - len) len;
      Bytes.equal wire expected
    | Error a, Error b -> String.equal a b
    | Ok _, Error msg ->
      QCheck.Test.fail_reportf "the writer accepted what raised %S" msg
    | Error msg, Ok _ ->
      QCheck.Test.fail_reportf "the writer raised %S on a valid packet" msg
  in
  agree
    (fun () -> Packet.encode_header ~id ~proto ~src ~dst ~gap:len)
    (fun () -> Packet.encode record)
  && agree
       (fun () ->
          Encap.sender_tunnel_header ~id ~proto ~src ~dst ~foreign_agent
            ~gap:len)
       (fun () -> Encap.tunnel_by_sender_into ~foreign_agent record)

(* --- end-to-end: a transit chain with the fast path on vs off ------ *)

type chain_result = {
  captured : (Addr.t * Addr.t * int * int * string) list;  (* src,dst,id,ttl,payload *)
  forwarded : int list;
  fast : int list;
  dropped : int list;
  delivered : int;
}

(* S - R1 - R2 - D over three LANs; [slow] forces the classical path
   with a no-op forward tap, exactly how metric-bearing experiments do.
   [sends] runs at 1s against the sender and receiver addresses. *)
let chain_run ?(mid_mtu = 1500) ~slow sends =
  let topo = Topology.create ~seed:5 () in
  let a = Topology.add_lan topo ~net:1 "netA" in
  let b = Topology.add_lan topo ~mtu:mid_mtu ~net:2 "netB" in
  let c = Topology.add_lan topo ~net:3 "netC" in
  let r1 = Topology.add_router topo "R1" [(a, 1); (b, 1)] in
  let r2 = Topology.add_router topo "R2" [(b, 2); (c, 1)] in
  let s = Topology.add_host topo "S" a 10 in
  let d = Topology.add_host topo "D" c 10 in
  Topology.compute_routes topo;
  if slow then begin
    Node.on_forward r1 (fun _ _ -> ());
    Node.on_forward r2 (fun _ _ -> ())
  end;
  let captured = ref [] in
  Node.set_proto_handler d Ipv4.Proto.udp (fun _ v ->
      let pkt = Packet.View.decode v in
      captured :=
        ( pkt.Ipv4.Packet.src, pkt.Ipv4.Packet.dst, pkt.Ipv4.Packet.id,
          pkt.Ipv4.Packet.ttl, Bytes.to_string pkt.Ipv4.Packet.payload )
        :: !captured);
  ignore
    (Netsim.Engine.schedule (Topology.engine topo) ~at:(Time.of_sec 1.0)
       (fun () -> sends s (Node.primary_addr s) (Node.primary_addr d)));
  Topology.run ~until:(Time.of_sec 10.0) topo;
  { captured = List.rev !captured;
    forwarded = [Node.packets_forwarded r1; Node.packets_forwarded r2];
    fast = [Node.packets_fast_forwarded r1; Node.packets_fast_forwarded r2];
    dropped =
      List.map Node.packets_dropped [r1; r2; s; d];
    delivered = Node.packets_delivered d }

let send_mixed s src dst =
  for i = 1 to 30 do
    (* payload sizes, ids and TTLs vary; ttl=1 exercises time-exceeded
       at R1, ttl=2 at R2 — both fall off the fast path by design *)
    let ttl = match i mod 3 with 0 -> 1 | 1 -> 2 | _ -> 64 in
    Node.send s
      (Packet.make ~id:i ~ttl ~proto:Ipv4.Proto.udp ~src ~dst
         (Ipv4.Udp.encode
            (Ipv4.Udp.make ~src_port:1 ~dst_port:2
               (Bytes.make (7 * i mod 120) 'x'))))
  done

let chains_equivalent () =
  let fast = chain_run ~slow:false send_mixed in
  let slow = chain_run ~slow:true send_mixed in
  Alcotest.(check int) "delivered" slow.delivered fast.delivered;
  Alcotest.(check (list int)) "forwarded" slow.forwarded fast.forwarded;
  Alcotest.(check (list int)) "dropped" slow.dropped fast.dropped;
  Alcotest.(check bool) "traffic byte-identical" true
    (fast.captured = slow.captured);
  (* every transit of a forwardable packet took the fast path... *)
  Alcotest.(check (list int)) "fast path engaged" fast.forwarded fast.fast;
  (* ...and none did with a tap installed *)
  Alcotest.(check (list int)) "fast path disengaged" [0; 0] slow.fast

(* --- the same comparison through MHRP agent routers ------------- *)

module Agent = Mhrp.Agent
module TG = Workload.Topo_gen

type agent_chain_result = {
  at_mobile : (Addr.t * Addr.t * int * int * string) list;
  at_r4 : (Addr.t * Addr.t * int * int * string) list;
  node_forwarded : int list;
  node_fast : int list;
  node_dropped : int list;
  counters : Mhrp.Counters.t list;
  caches : (int * int * int) list;  (* hits, misses, evictions *)
  r1_tunnels : int;
  r2_intercepts : int;
}

(* Figure 1 with a snooping agent on every router.  M has moved to R4's
   cell; S, a plain sender, talks to M's home address and to R4.  The
   home agent R2 intercepts M's first datagrams and tells S where M is;
   R1 snoops that location update in transit and tunnels the rest on a
   cache hit; R3 and R1's misses forward plain and tunneled packets.
   [tapped] puts a no-op forward tap on every router, which keeps every
   hop on the record route. *)
let agent_chain_run ~tapped =
  let f = TG.figure1 () in
  let topo = f.TG.topo in
  let routers = [f.TG.r1; f.TG.r2; f.TG.r3; f.TG.r4] in
  if tapped then
    List.iter (fun r -> Node.on_forward (Agent.node r) (fun _ _ -> ())) routers;
  let capture into (pkt : Packet.t) =
    into :=
      ( pkt.Packet.src, pkt.Packet.dst, pkt.Packet.id, pkt.Packet.ttl,
        Bytes.to_string pkt.Packet.payload )
      :: !into
  in
  let at_mobile = ref [] and at_r4 = ref [] in
  Agent.on_app_receive f.TG.m (capture at_mobile);
  Agent.on_app_receive f.TG.r4 (capture at_r4);
  Workload.Mobility.move_at topo f.TG.m ~at:(Time.of_sec 0.5) f.TG.net_d;
  let s = Agent.node f.TG.s in
  let datagram ~id dst =
    Packet.make ~id ~proto:Ipv4.Proto.udp ~src:(Node.primary_addr s) ~dst
      (Ipv4.Udp.encode
         (Ipv4.Udp.make ~src_port:1 ~dst_port:2
            (Bytes.make (5 * id mod 90) 'z')))
  in
  for i = 1 to 20 do
    ignore
      (Netsim.Engine.schedule (Topology.engine topo)
         ~at:(Time.of_ms (3000 + (10 * i)))
         (fun () ->
            Node.send s (datagram ~id:i (Agent.address f.TG.m));
            Node.send s (datagram ~id:(100 + i) (Agent.address f.TG.r4))))
  done;
  Topology.run ~until:(Time.of_sec 6.0) topo;
  let nodes = Topology.nodes topo in
  let agents = [f.TG.s; f.TG.m; f.TG.r1; f.TG.r2; f.TG.r3; f.TG.r4] in
  let cache a =
    let c = Agent.cache a in
    Mhrp.Location_cache.(hits c, misses c, evictions c)
  in
  { at_mobile = List.rev !at_mobile;
    at_r4 = List.rev !at_r4;
    node_forwarded = List.map Node.packets_forwarded nodes;
    node_fast = List.map Node.packets_fast_forwarded nodes;
    node_dropped = List.map Node.packets_dropped nodes;
    counters = List.map Agent.counters agents;
    caches = List.map cache agents;
    r1_tunnels = (Agent.counters f.TG.r1).Mhrp.Counters.tunnels_built;
    r2_intercepts = (Agent.counters f.TG.r2).Mhrp.Counters.intercepts }

let agent_chains_equivalent () =
  let view = agent_chain_run ~tapped:false in
  let record = agent_chain_run ~tapped:true in
  Alcotest.(check int) "M got every datagram" 20 (List.length view.at_mobile);
  Alcotest.(check int) "R4 got every datagram" 20 (List.length view.at_r4);
  Alcotest.(check bool) "traffic to M byte-identical" true
    (view.at_mobile = record.at_mobile);
  Alcotest.(check bool) "traffic to R4 byte-identical" true
    (view.at_r4 = record.at_r4);
  Alcotest.(check (list int)) "forwarded" record.node_forwarded
    view.node_forwarded;
  Alcotest.(check (list int)) "dropped" record.node_dropped view.node_dropped;
  Alcotest.(check bool) "Mhrp.Counters" true (view.counters = record.counters);
  Alcotest.(check bool) "cache hits, misses, evictions" true
    (view.caches = record.caches);
  (* the scenario exercises all three agent verdicts *)
  Alcotest.(check bool) "R2 intercepted" true (view.r2_intercepts > 0);
  Alcotest.(check bool) "R1 tunneled on a cache hit" true
    (view.r1_tunnels > 0);
  (* node order: R1 R2 R3 R4 S M.  R3 only ever forwards plainly, R1
     rewrites its cache hits into tunnels (the record route) and forwards
     its misses undecoded. *)
  (match view.node_forwarded, view.node_fast with
   | r1 :: _ :: r3 :: _, r1_fast :: _ :: r3_fast :: _ ->
     Alcotest.(check bool) "R3 forwarded" true (r3 > 0);
     Alcotest.(check int) "R3: every hop on the view path" r3 r3_fast;
     Alcotest.(check int) "R1: every miss on the view path"
       (r1 - view.r1_tunnels) r1_fast
   | _ -> Alcotest.fail "unexpected node list");
  Alcotest.(check (list int)) "view path off when tapped"
    (List.map (fun _ -> 0) record.node_fast)
    record.node_fast

(* --- tracing keeps every hop's route ------------------------------ *)

(* A world with its traffic scheduled: the agents whose deliveries and
   counters the traced and untraced runs must agree on, and a horizon. *)
type receive_world = {
  w_topo : Topology.t;
  w_receivers : Agent.t list;
  w_agents : Agent.t list;
  w_until : Time.t;
}

type receive_result = {
  rx_payloads : (Addr.t * Addr.t * int * int * string) list list;
  rx_counters : Mhrp.Counters.t list;
  rx_delivered : int list;
  rx_forwarded : int list;
  rx_dropped : int list;
  rx_fast : int list;
  rx_traced : string -> int;  (* trace events of a kind *)
}

let sum = List.fold_left ( + ) 0

(* Figure 1: M hands off to R4's cell and back home while S streams
   datagrams and pings at it. *)
let figure1_world () =
  let f = TG.figure1 () in
  let topo = f.TG.topo in
  Workload.Mobility.move_at topo f.TG.m ~at:(Time.of_sec 1.0) f.TG.net_d;
  Workload.Mobility.move_at topo f.TG.m ~at:(Time.of_sec 3.0) f.TG.net_b;
  let m = Agent.address f.TG.m in
  for i = 1 to 50 do
    ignore
      (Netsim.Engine.schedule (Topology.engine topo)
         ~at:(Time.of_ms (500 + (100 * i)))
         (fun () ->
            Agent.send_udp f.TG.s ~id:i ~dst:m (Bytes.make (3 * i) 'd');
            (* an echo request with set data: [send_ping]'s is
               uninitialised *)
            if i mod 5 = 0 then
              Agent.send f.TG.s
                (Packet.make ~id:i ~proto:Ipv4.Proto.icmp
                   ~src:(Agent.address f.TG.s) ~dst:m
                   (Ipv4.Icmp.encode
                      (Ipv4.Icmp.Echo_request
                         { ident = i; seq = i; data = Bytes.make 8 'e' })))))
  done;
  { w_topo = topo; w_receivers = [f.TG.m; f.TG.s];
    w_agents = [f.TG.s; f.TG.m; f.TG.r1; f.TG.r2; f.TG.r3; f.TG.r4];
    w_until = Time.of_sec 7.0 }

(* Four snooping campuses: every mobile visits the next campus's cell,
   then half go on to a third cell and half return home, while each
   correspondent sends plain datagrams, as a host without MHRP would, to
   the two mobiles of the next campus in turn.  Home agents claim
   packets in transit ([Consume]) and the correspondents' routers tunnel
   on snooped cache hits ([Replace]). *)
let campus_world () =
  let c =
    TG.campuses ~campuses:4 ~mobiles_per_campus:2 ~correspondents:4 ()
  in
  let topo = c.TG.c_topo in
  Array.iteri
    (fun k m ->
       let home = k / 2 in
       Workload.Mobility.move_at topo m ~at:(Time.of_ms (1000 + (100 * k)))
         c.TG.c_cells.((home + 1) mod 4);
       Workload.Mobility.move_at topo m ~at:(Time.of_ms (3000 + (100 * k)))
         (if k mod 2 = 0 then c.TG.c_cells.((home + 2) mod 4)
          else c.TG.c_homes.(home)))
    c.TG.c_mobiles;
  Array.iteri
    (fun k s ->
       let s = Agent.node s in
       for i = 1 to 40 do
         let m = c.TG.c_mobiles.((2 * ((k + 1) mod 4)) + (i mod 2)) in
         let pkt =
           Packet.make ~id:i ~proto:Ipv4.Proto.udp ~src:(Node.primary_addr s)
             ~dst:(Agent.address m)
             (Ipv4.Udp.encode
                (Ipv4.Udp.make ~src_port:1 ~dst_port:2
                   (Bytes.make (2 * i) 'c')))
         in
         ignore
           (Netsim.Engine.schedule (Topology.engine topo)
              ~at:(Time.of_ms (500 + (100 * i) + (7 * k)))
              (fun () -> Node.send s pkt))
       done)
    c.TG.c_senders;
  { w_topo = topo; w_receivers = Array.to_list c.TG.c_mobiles;
    w_agents =
      Array.to_list c.TG.c_routers @ Array.to_list c.TG.c_mobiles
      @ Array.to_list c.TG.c_senders;
    w_until = Time.of_sec 6.0 }

let receive_run world ~traced =
  let w = world () in
  let trace = Topology.trace w.w_topo in
  Netsim.Trace.set_enabled trace traced;
  let capture into (pkt : Packet.t) =
    into :=
      ( pkt.Packet.src, pkt.Packet.dst, pkt.Packet.id, pkt.Packet.ttl,
        Bytes.to_string pkt.Packet.payload )
      :: !into
  in
  let captured =
    List.map
      (fun a ->
         let into = ref [] in
         Agent.on_app_receive a (capture into);
         into)
      w.w_receivers
  in
  Topology.run ~until:w.w_until w.w_topo;
  let nodes = Topology.nodes w.w_topo in
  { rx_payloads = List.map (fun into -> List.rev !into) captured;
    rx_counters = List.map Agent.counters w.w_agents;
    rx_delivered = List.map Node.packets_delivered nodes;
    rx_forwarded = List.map Node.packets_forwarded nodes;
    rx_dropped = List.map Node.packets_dropped nodes;
    rx_fast = List.map Node.packets_fast_forwarded nodes;
    rx_traced = (fun kind -> Netsim.Trace.count trace ~kind) }

(* A live trace only records: the traced run takes every route the
   untraced one does, and the view route emits the record route's
   events, so every delivery and every forward is in the trace. *)
let tracing_keeps_routes world =
  let untraced = receive_run world ~traced:false in
  let traced = receive_run world ~traced:true in
  Alcotest.(check bool) "every receiver got traffic" true
    (List.for_all (fun rx -> rx <> []) untraced.rx_payloads);
  Alcotest.(check bool) "payloads delivered identical" true
    (untraced.rx_payloads = traced.rx_payloads);
  Alcotest.(check bool) "Mhrp.Counters" true
    (untraced.rx_counters = traced.rx_counters);
  Alcotest.(check (list int)) "delivered" untraced.rx_delivered
    traced.rx_delivered;
  Alcotest.(check (list int)) "forwarded" untraced.rx_forwarded
    traced.rx_forwarded;
  Alcotest.(check (list int)) "dropped" untraced.rx_dropped
    traced.rx_dropped;
  Alcotest.(check (list int)) "forwarded on views" untraced.rx_fast
    traced.rx_fast;
  Alcotest.(check bool) "forwarded on views at all" true
    (sum traced.rx_fast > 0);
  Alcotest.(check int) "untraced run recorded nothing" 0
    (untraced.rx_traced "rx");
  Alcotest.(check int) "every delivery traced" (sum traced.rx_delivered)
    (traced.rx_traced "rx");
  Alcotest.(check int) "every forward traced" (sum traced.rx_forwarded)
    (traced.rx_traced "fwd");
  untraced

let figure1_tracing_keeps_routes () =
  let r = tracing_keeps_routes figure1_world in
  Alcotest.(check bool) "M got datagrams on both sides of each handoff"
    true (List.length (List.hd r.rx_payloads) >= 40)

let campus_tracing_keeps_routes () =
  let r = tracing_keeps_routes campus_world in
  (* [rewrite_forward]'s other arms ran traced too: home agents claimed
     packets in transit ([Consume]), and cache hits rewrote forwards
     into tunnels ([Replace]), the only forwards off the view route *)
  Alcotest.(check bool) "a home agent claimed a packet" true
    (List.exists (fun c -> c.Mhrp.Counters.intercepts > 0) r.rx_counters);
  Alcotest.(check bool) "a cache hit rewrote a forward" true
    (sum r.rx_forwarded > sum r.rx_fast)

let send_big s src dst =
  Node.send s
    (Packet.make ~id:77 ~proto:Ipv4.Proto.udp ~src ~dst
       (Ipv4.Udp.encode
          (Ipv4.Udp.make ~src_port:1 ~dst_port:2 (Bytes.make 300 'y'))))

(* A small egress MTU forces fragmentation at R1: the fast path must
   fall back to the classical emit and the reassembled delivery must be
   identical in both modes. *)
let fragmentation_falls_back () =
  let fast = chain_run ~mid_mtu:128 ~slow:false send_big in
  let slow = chain_run ~mid_mtu:128 ~slow:true send_big in
  Alcotest.(check bool) "delivered whole" true (fast.delivered >= 1);
  Alcotest.(check bool) "traffic byte-identical" true
    (fast.captured = slow.captured);
  Alcotest.(check (list int)) "forwarded" slow.forwarded fast.forwarded

let suite =
  [ ( "fastpath",
      [ qtest
          (QCheck.Test.make
             ~name:"in-place TTL patch == decode/mutate/re-encode"
             ~count:300 arb_seed patch_equals_reencode);
        qtest
          (QCheck.Test.make
             ~name:"Checksum.update == full recompute" ~count:300 arb_seed
             update_equals_set);
        qtest
          (QCheck.Test.make
             ~name:"View.valid/decode_prefix total on arbitrary bytes"
             ~count:500
             QCheck.(string_of_size Gen.(int_range 0 64))
             view_total);
        qtest
          (QCheck.Test.make
             ~name:"wire-built tunnels == record tunnels, encoded"
             ~count:200 arb_seed encap_into_equals_record);
        qtest
          (QCheck.Test.make
             ~name:"originated headers written from fields == records, \
                    encoded"
             ~count:500 arb_seed field_writers_equal_records);
        Alcotest.test_case "fast and slow chains are byte-equivalent"
          `Quick chains_equivalent;
        Alcotest.test_case "agent-router chains are byte-equivalent"
          `Quick agent_chains_equivalent;
        Alcotest.test_case "figure1 traced or not: same routes" `Quick
          figure1_tracing_keeps_routes;
        Alcotest.test_case "campuses traced or not: same routes" `Quick
          campus_tracing_keeps_routes;
        Alcotest.test_case "egress fragmentation falls back cleanly"
          `Quick fragmentation_falls_back ] ) ]
