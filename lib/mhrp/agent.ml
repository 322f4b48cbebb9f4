module Time = Netsim.Time
module Engine = Netsim.Engine
module Packet = Ipv4.Packet
module View = Ipv4.Packet.View
module Addr = Ipv4.Addr
module Node = Net.Node

(* The all-ones address marks "explicitly disconnected" in the home-agent
   database — a state Section 3 needs but whose encoding the paper leaves
   open (zero is taken: it means "at home"). *)
let disconnected_marker = Addr.broadcast

(* A peer that keeps a copy of this node's bindings — a replica home
   agent, or the standby regional agent — and the exchange of each
   mobile host's mirrored binding with it, keyed by packed address. *)
type mirror = { peer : Addr.t; syncs : (int, Exchange.t) Hashtbl.t }

type t = {
  node : Node.t;
  config : Config.t;
  counters : Counters.t;
  cache : Location_cache.t;
  limiter : Rate_limiter.t;
  sa : Auth.Sa_table.t;
  mutable auth_nonce : int;
  cache_agent : bool;
  snoop : bool;
  mutable ha : Home_agent.t option;
  mutable replicas : mirror list;  (* HA role: replica home agents *)
  mutable fa : (Foreign_agent.t * int) option;  (* state, serving iface *)
  mutable mh : Mobile_host.t option;
  mutable regional : Regional.t option;  (* Config.hierarchy *)
  mutable regional_parent : Addr.t option;  (* FA role: my regional agent *)
  mutable regional_backup_parent : Addr.t option;
      (* FA role: standby regional agent advertised at connect time *)
  mutable region_mirror : mirror option;
      (* regional role: backup to mirror binding writes to *)
  mutable region_peer_captured : bool;
      (* regional role: we captured an unresponsive peer's address *)
  fa_miss_probes : (int, unit) Hashtbl.t;
      (* packed mobile -> visitor-miss ARP probe in flight *)
  mutable regional_sweep_timer : bool;
  mutable app_tap : View.t -> unit;
  mutable update_tap : mobile:Addr.t -> foreign_agent:Addr.t -> unit;
  mutable registered_tap : Addr.t -> unit;
  mutable icmp_error_tap : Ipv4.Icmp.t -> Packet.t option -> unit;
  mutable advert_timer : bool;
}

let node t = t.node
let config t = t.config
let counters t = t.counters
let cache t = t.cache
let limiter t = t.limiter
let address t = Node.primary_addr t.node
let home_agent t = t.ha
let foreign_agent t = Option.map fst t.fa
let mobile t = t.mh
let regional_agent t = t.regional

let on_app_receive t f = t.app_tap <- (fun v -> f (View.decode v))
let on_app_receive_view t f = t.app_tap <- f
let on_location_update t f = t.update_tap <- f
let on_registered t f = t.registered_tap <- f
let on_icmp_error t f = t.icmp_error_tap <- f

let engine t = Node.engine t.node
let now t = Engine.now (engine t)

(* All three arguments, never [let tracef t = Node.tracef t.node]: the
   partial application would allocate a closure on every call.  Every
   call is guarded by [tracing] (node.mli). *)
let tracing t = Node.tracing t.node
let tracef t kind fmt = Node.tracef t.node kind fmt

(* --- authentication (RFC 2002-style extension; experiment E15) --- *)

let install_key t ~mobile ~spi ~key =
  Auth.Sa_table.install t.sa ~mobile ~spi ~key

let next_nonce t =
  t.auth_nonce <- t.auth_nonce + 1;
  (* Unique across all senders without coordination: own address in the
     high half, a local counter in the low half. *)
  Int64.logor
    (Int64.shift_left (Int64.of_int (Addr.to_int (address t))) 32)
    (Int64.of_int (t.auth_nonce land 0xFFFF_FFFF))

let auth_ext t ~mobile payload =
  if not t.config.Config.authenticate then None
  else
    match Auth.Sa_table.find t.sa mobile with
    | None -> None
    | Some sa ->
      Some
        (Auth.Extension.encode
           (Auth.Extension.sign ~key:sa.Auth.Sa_table.key
              ~spi:sa.Auth.Sa_table.spi ~timestamp:(now t)
              ~nonce:(next_nonce t) payload))

(* With [Config.authenticate] on, gate a state mutation on the
   extension at the tail of [wire], which must authenticate [canonical]
   — the message's canonical re-encoding, not the wire prefix, so a
   checksum covering the extension can never enter its own MAC.  [kind]
   tags the rejection trace event.  Callers test the flag first: both
   byte strings cost a buffer (and [canonical] a checksum) to build. *)
let authorize t ~mobile ~src ~wire ~canonical ~kind =
  let verdict =
    match Auth.Extension.split wire with
    | None -> None
    | Some (_, ext) ->
      Some
        (Auth.Sa_table.verify t.sa ~mobile ~now:(now t)
           ~payload:canonical ext)
  in
  match verdict with
  | Some Auth.Sa_table.Ok ->
    t.counters.Counters.auth_ok <- t.counters.Counters.auth_ok + 1;
    true
  | Some ((Auth.Sa_table.Stale | Auth.Sa_table.Replayed) as v) ->
    t.counters.Counters.replay_drop <-
      t.counters.Counters.replay_drop + 1;
    if tracing t then
      tracef t kind "replay of message about %a from %a (%a)" Addr.pp
        mobile Addr.pp src Auth.Sa_table.pp_verdict v;
    false
  | Some v ->
    t.counters.Counters.auth_fail <- t.counters.Counters.auth_fail + 1;
    if tracing t then
      tracef t kind "rejected message about %a from %a (%a)" Addr.pp
        mobile Addr.pp src Auth.Sa_table.pp_verdict v;
    false
  | None ->
    t.counters.Counters.auth_fail <- t.counters.Counters.auth_fail + 1;
    if tracing t then
      tracef t kind "unauthenticated message about %a from %a" Addr.pp
        mobile Addr.pp src;
    false

(* A location update's authorization: the ICMP message in [len] bytes at
   [off] of [buf] is its wire form. *)
let update_authentic t buf ~off ~len ~src ~mobile ~foreign_agent =
  (not t.config.Config.authenticate)
  || authorize t ~mobile ~src ~wire:(Bytes.sub buf off len)
       ~canonical:
         (Ipv4.Icmp.encode
            (Ipv4.Icmp.Location_update { mobile; foreign_agent }))
       ~kind:"forged-update"

(* --- home-agent database shorthands --- *)

let ha_location t mobile =
  match t.ha with
  | Some ha -> Home_agent.location ha mobile
  | None -> None

let ha_claims t dst =
  (* Should this node capture packets addressed to [dst]?  Yes while the
     mobile host it serves is away or explicitly disconnected.  Asked of
     every forwarded packet, so it must not allocate. *)
  match t.ha with
  | Some ha -> Home_agent.is_away ha dst
  | None -> false

(* A regional agent that captured its crashed mirror peer's address
   answers for it until the peer is heard from again. *)
let region_peer_claims t dst =
  t.region_peer_captured
  && (match t.region_mirror with
      | Some m -> Addr.equal m.peer dst
      | None -> false)

let claims t dst = ha_claims t dst || region_peer_claims t dst

(* --- originated packets, each written once ---

   A packet this node originates is one buffer: the IP header (or a
   sender-built tunnel's header) followed by a gap the sender writes its
   payload into, so no intermediate encoding is built and copied.  The
   payload's last bytes are an authentication extension, if any. *)

(* The buffer of a packet with a [len]-byte payload, left for the caller
   to write in the buffer's last [len] bytes: a sender-built tunnel to
   [fa] when there is one (the [sender_tunnel] decision below), else
   plain IP.  Written from the fields, so no packet record is built. *)
let originate_from ~id ~proto ~src ~dst ~len fa =
  match fa with
  | Some fa ->
    Encap.sender_tunnel_header ~id ~proto ~src ~dst ~foreign_agent:fa ~gap:len
  | None -> Packet.encode_header ~id ~proto ~src ~dst ~gap:len

let originate t ~id ~proto ~dst ~len fa =
  originate_from ~id ~proto ~src:(address t) ~dst ~len fa

let ext_length = function None -> 0 | Some ext -> Bytes.length ext

(* Copy [ext], if any, to the end of [wire]. *)
let put_ext wire = function
  | None -> ()
  | Some ext ->
    let n = Bytes.length ext in
    Bytes.blit ext 0 wire (Bytes.length wire - n) n

(* An ICMP message and its extension, one checksum over both. *)
let icmp_wire ~src ~dst msg ext =
  let len = Ipv4.Icmp.length msg + ext_length ext in
  let wire =
    originate_from ~id:0 ~proto:Ipv4.Proto.icmp ~src ~dst ~len None
  in
  put_ext wire ext;
  Ipv4.Icmp.write msg wire ~off:(Bytes.length wire - len) ~len;
  wire

(* A control message travels as a UDP datagram to [Control.port]: the
   message, then its extension. *)
let control_length msg ext =
  Ipv4.Udp.header_length + Control.length msg + ext_length ext

let write_control wire msg ext =
  let len = control_length msg ext in
  let off = Bytes.length wire - len in
  Control.write msg wire ~off:(off + Ipv4.Udp.header_length);
  put_ext wire ext;
  Ipv4.Udp.write wire ~off ~src_port:Control.port ~dst_port:Control.port ~len

(* The extension signs the message's own encoding, built only under
   [Config.authenticate]. *)
let control_ext t msg =
  if t.config.Config.authenticate then
    auth_ext t ~mobile:(Control.mobile msg) (Control.encode msg)
  else None

(* --- location updates (Section 4.3) --- *)

let send_location_update t ~dst ~mobile ~foreign_agent =
  if (not (Node.has_address t.node dst)) && not (Addr.is_zero dst) then
    if Rate_limiter.allow t.limiter ~now:(now t) dst then begin
      t.counters.Counters.updates_sent <-
        t.counters.Counters.updates_sent + 1;
      t.counters.Counters.control_messages <-
        t.counters.Counters.control_messages + 1;
      if tracing t then
        tracef t "loc-update-tx" "to %a: %a at %a" Addr.pp dst Addr.pp mobile
          Addr.pp foreign_agent;
      let msg = Ipv4.Icmp.Location_update { mobile; foreign_agent } in
      (* The MAC covers the extension-free encoding; the wire carries
         message + extension under one checksum. *)
      let ext =
        if t.config.Config.authenticate then
          auth_ext t ~mobile (Ipv4.Icmp.encode msg)
        else None
      in
      Node.send_wire t.node (icmp_wire ~src:(address t) ~dst msg ext)
    end

let cache_update t ~mobile ~foreign_agent =
  if t.cache_agent && not (Node.has_address t.node mobile) then begin
    (* Never cache an alias of this very node as the foreign agent for
       itself; everything else is fair game. *)
    Location_cache.update t.cache ~mobile ~foreign_agent;
    if tracing t then
      tracef t "cache" "%a -> %a" Addr.pp mobile Addr.pp foreign_agent
  end

(* --- control-message plumbing --- *)

(* A control message's packet to [dst], tunneled to [fa] if any. *)
let control_wire t ~dst msg fa =
  let ext = control_ext t msg in
  let wire =
    originate t ~id:0 ~proto:Ipv4.Proto.udp ~dst ~len:(control_length msg ext)
      fa
  in
  write_control wire msg ext;
  wire

(* Section 2's capture: gratuitous ARP for [addr] on [iface], "perhaps
   retransmitted a few times for reliability" — [gratuitous_arp_count]
   sends 100 ms apart, while [live] holds. *)
let gratuitous_arp_count = 3

let garp_burst ?(live = fun () -> true) t ~iface addr =
  let rec burst k =
    if k < gratuitous_arp_count && live () then begin
      Node.gratuitous_arp t.node ~iface addr;
      ignore
        (Engine.schedule_after (engine t) ~delay:(Time.of_ms 100) (fun () ->
             burst (k + 1)))
    end
  in
  burst 0

(* The burst on every LAN whose prefix covers [addr]. *)
let garp_burst_covering t addr =
  List.iter
    (fun (i, lan, _) ->
       if Ipv4.Addr.Prefix.mem addr (Net.Lan.prefix lan) then
         garp_burst t ~iface:i addr)
    (Node.ifaces t.node)

(* --- hierarchy soft-state parameters ([Config.regional_lifetime]) --- *)

(* The lifetime a registration advertises on the wire (u16 seconds; 0 =
   hard state). *)
let regional_lifetime_s t =
  let lt = t.config.Config.regional_lifetime in
  if Time.to_us lt = 0 then 0
  else max 1 (int_of_float (ceil (Time.to_sec lt)))

(* How often a registered mobile refreshes its regional binding:
   [Config.regional_refresh], or a third of the lifetime (the
   3-refreshes-per-lifetime convention of agent advertisements). *)
let regional_refresh_interval t =
  let r = t.config.Config.regional_refresh in
  if Time.to_us r > 0 then r
  else Time.of_us (max 1 (Time.to_us t.config.Config.regional_lifetime / 3))

let regional_expiry t ~lifetime_s =
  if lifetime_s > 0 then
    Some (Time.add (now t) (Time.of_sec (float_of_int lifetime_s)))
  else None

(* --- cache-aware application sending (Sections 4.1, 6.2) --- *)

(* The one tunnel decision for a packet this node originates: the
   foreign agent to tunnel it to — authoritatively when we are [dst]'s
   home agent, else on a location-cache hit — or [None] for plain IP. *)
let sender_tunnel t dst =
  match ha_location t dst with
  | Some fa as home
    when not (Addr.is_zero fa) && not (Addr.equal fa disconnected_marker) ->
    home
  | _ ->
    if not t.cache_agent then None
    else
      match Location_cache.find t.cache dst with
      | Some fa as hit ->
        if tracing t then
          tracef t "tunnel" "sender-built for %a via %a" Addr.pp dst Addr.pp fa;
        hit
      | None -> None

let send_tunnel t wire =
  t.counters.Counters.tunnels_built <- t.counters.Counters.tunnels_built + 1;
  Node.send_wire t.node wire

let send t (pkt : Packet.t) =
  match sender_tunnel t pkt.Packet.dst with
  | Some fa ->
    send_tunnel t (Encap.tunnel_by_sender_into ~foreign_agent:fa pkt)
  | None -> Node.send t.node pkt

(* The send of an [originate]d buffer, its payload written. *)
let send_originated t fa wire =
  match fa with
  | Some _ -> send_tunnel t wire
  | None -> Node.send_wire t.node wire

(* A reply that rides the mobile host's tunnel, to the foreign agent
   [fa] when the sender knows one. *)
let send_control_via t ~dst msg fa =
  send_originated t fa (control_wire t ~dst msg fa)

let send_control t ~dst msg =
  t.counters.Counters.control_messages <-
    t.counters.Counters.control_messages + 1;
  if tracing t then tracef t "ctrl-tx" "to %a: %a" Addr.pp dst Control.pp msg;
  send_control_via t ~dst msg None

(* Every acknowledged message — the mobile host's connect notification
   and registrations, and both mirrors' syncs — goes out here, the one
   start of an {!Exchange}: sent now and, under
   [Config.reliable_control], again at each timeout, each resend counted
   by [resent], until acknowledged or [give_up]. *)
let send_acked ?supersede t x ~dst msg ~resent ~give_up =
  send_control t ~dst msg;
  Exchange.start ?supersede x t.node t.config t.counters
    ~resend:(fun () ->
        resent t.counters;
        send_control t ~dst msg)
    ~give_up

let mirror_to peer = { peer; syncs = Hashtbl.create 4 }

(* Mirror [msg], a binding of [mobile], to [m]'s peer. *)
let send_sync ?supersede t m ~mobile msg ~resent ~give_up =
  send_acked ?supersede t (Exchange.find m.syncs (Addr.to_key mobile))
    ~dst:m.peer msg ~resent ~give_up

(* The peer confirmed every binding of [mobile] mirrored to it so far. *)
let sync_acked m ~mobile =
  match Hashtbl.find_opt m.syncs (Addr.to_key mobile) with
  | Some x -> Exchange.ack x
  | None -> ()

let send_udp t ?(src_port = 4000) ?(dst_port = 4000) ?(id = 0) ~dst data =
  let n = Bytes.length data in
  let len = Ipv4.Udp.header_length + n in
  let fa = sender_tunnel t dst in
  let wire = originate t ~id ~proto:Ipv4.Proto.udp ~dst ~len fa in
  let off = Bytes.length wire - len in
  Bytes.blit data 0 wire (off + Ipv4.Udp.header_length) n;
  Ipv4.Udp.write wire ~off ~src_port ~dst_port ~len;
  send_originated t fa wire

let send_ping t ?(id = 0) ?(seq = 0) ~dst () =
  let msg =
    Ipv4.Icmp.Echo_request { ident = id; seq; data = Bytes.make 16 '\000' }
  in
  send t
    (Packet.make ~id ~proto:Ipv4.Proto.icmp ~src:(address t) ~dst
       (Ipv4.Icmp.encode msg))

(* --- ICMP error helper (host unreachable for disconnected hosts) --- *)

let send_unreachable t (offending : Packet.t) =
  if not (Node.has_address t.node offending.Packet.src) then begin
    let encoded = Packet.encode offending in
    let n =
      min (Bytes.length encoded) (Packet.header_length offending + 8)
    in
    let msg = Ipv4.Icmp.host_unreachable ~original:(Bytes.sub encoded 0 n) in
    let pkt =
      Packet.make ~proto:Ipv4.Proto.icmp ~src:(address t)
        ~dst:offending.Packet.src (Ipv4.Icmp.encode msg)
    in
    Node.send t.node pkt
  end

(* --- tunneling operations ---

   Every tunnel is built from the bytes in hand ({!Encap}'s wire
   builders): the received view at a tunnel exit or re-tunnel, whose
   MHRP header [handle_mhrp] decoded in place.  The transport payload
   is copied once per operation, and no packet record is built except
   on the rare branches that hand one to a record consumer. *)

(* A location update to each of [dsts]; [send_location_update] skips
   this node's own addresses.  Top-level, so a delivered tunnel builds
   no closure. *)
let rec send_updates t dsts ~mobile ~foreign_agent =
  match dsts with
  | [] -> ()
  | dst :: rest ->
    send_location_update t ~dst ~mobile ~foreign_agent;
    send_updates t rest ~mobile ~foreign_agent

let regional_binding t mobile =
  match t.regional with
  | Some r -> Regional.find r mobile
  | None -> None

(* A live inter-region forwarding pointer ([Config.regional_grace]): the
   mobile left this region but its old regional agent chases in-flight
   packets to the new one for a grace period. *)
let regional_forward t mobile =
  match t.regional with
  | None -> None
  | Some r ->
    (match Regional.forward r ~now:(now t) mobile with
     | Some target when not (Node.has_address t.node target) -> Some target
     | _ -> None)

(* Initial interception of a plain packet for an away mobile host
   (Sections 2, 6.1): tunnel to its current foreign agent and tell the
   sender where it is.  When the home agent doubles as the mobile's
   regional agent (the host is visiting a cell of its own home region),
   the recorded location is one of our own addresses: tunnel straight to
   the regional binding's foreign agent instead — a tunnel to ourselves
   would come back with us already among the tunnel heads and dissolve
   as a one-hop loop. *)
let ha_intercept t v =
  let mobile = View.dst v in
  t.counters.Counters.intercepts <- t.counters.Counters.intercepts + 1;
  match ha_location t mobile with
  | Some fa when Addr.equal fa disconnected_marker ->
    if tracing t then tracef t "intercept" "%a is disconnected" Addr.pp mobile;
    send_unreachable t (View.decode v)
  | Some fa when not (Addr.is_zero fa) ->
    let target, report =
      if not (Node.has_address t.node fa) then (Some fa, fa)
      else
        match regional_binding t mobile with
        | Some fa' -> (Some fa', fa)
        | None ->
          (match regional_forward t mobile with
           | Some target -> (Some target, target)
           | None -> (None, fa))
    in
    (match target with
     | Some target ->
       t.counters.Counters.tunnels_built <-
         t.counters.Counters.tunnels_built + 1;
       if tracing t then
         tracef t "tunnel" "intercepted for %a, to fa %a" Addr.pp mobile
           Addr.pp target;
       Node.forward_wire t.node
         (Encap.tunnel_by_agent_into ~agent:(address t) ~foreign_agent:target
            v);
       send_location_update t ~dst:(View.src v) ~mobile ~foreign_agent:report
     | None ->
       (* our own regional binding expired with the location entry still
          naming us: the host is gone *)
       if tracing t then
         tracef t "intercept" "%a: own regional binding expired" Addr.pp
           mobile;
       send_unreachable t (View.decode v))
  | Some _ | None ->
    (* At home after all (stale ARP in some neighbour): pass it on to the
       home LAN. *)
    Node.forward_now t.node (View.decode v)

(* Re-tunnel a packet we cannot deliver (Section 4.4), handling list
   overflow and loop detection (Section 5.3). *)
let do_retunnel t v header ~mobile ~new_dst ~report_fa =
  match
    Encap.retunnel_into ~max_prev_sources:t.config.Config.max_prev_sources
      ~me:(address t) ~new_dst v header
  with
  | Encap.Retunneled wire ->
    t.counters.Counters.retunnels <- t.counters.Counters.retunnels + 1;
    if tracing t then
      tracef t "retunnel" "%a -> %a" Addr.pp mobile Addr.pp new_dst;
    Node.forward_wire t.node wire
  | Encap.Retunneled_overflow { packet; notify } ->
    t.counters.Counters.retunnels <- t.counters.Counters.retunnels + 1;
    t.counters.Counters.list_truncations <-
      t.counters.Counters.list_truncations + 1;
    let reported = Option.value report_fa ~default:Addr.zero in
    send_updates t notify ~mobile ~foreign_agent:reported;
    if tracing t then
      tracef t "retunnel" "list overflow: notified %d, on to %a"
        (List.length notify) Addr.pp new_dst;
    Node.forward_wire t.node packet
  | Encap.Loop_detected { members } ->
    t.counters.Counters.loops_detected <-
      t.counters.Counters.loops_detected + 1;
    if tracing t then
      tracef t "loop" "detected, %d members" (List.length members);
    (* We are a member of the loop ourselves: drop our own stale entry
       along with everyone else's — including a regional binding; a loop
       through the regional agent means its binding is as stale as any
       cache entry, and keeping it would rebuild the same loop for every
       subsequent packet. *)
    Location_cache.delete t.cache mobile;
    (match t.regional with
     | Some r -> Regional.withdraw r mobile
     | None -> ());
    send_updates t members ~mobile ~foreign_agent:Addr.zero;
    t.counters.Counters.loops_dissolved <-
      t.counters.Counters.loops_dissolved + 1;
    (match t.config.Config.on_loop with
     | Config.Discard_packet -> ()
     | Config.Tunnel_home ->
       Node.forward_wire t.node
         (Encap.tunnel_by_agent_into ~agent:(address t) ~foreign_agent:mobile
            (View.make (Encap.detunnel_into v header))))

(* Stale foreign agent (or any cache agent handed a tunneled packet for a
   host it no longer serves): to the cached new location, else toward the
   home network (Section 4.4). *)
let retunnel_stale t v (header : Mhrp_header.t) =
  let mobile = header.Mhrp_header.mobile in
  let cached =
    if t.cache_agent then Location_cache.find t.cache mobile else None
  in
  match cached with
  | Some fa when not (Node.has_address t.node fa) ->
    do_retunnel t v header ~mobile ~new_dst:fa ~report_fa:(Some fa)
  | Some _ | None ->
    do_retunnel t v header ~mobile ~new_dst:mobile ~report_fa:None

(* Correct foreign agent: strip the header, update every stale cache agent
   recorded in it (Section 5.1), deliver over the last hop. *)
let deliver_to_visitor t fa_state fa_iface v (header : Mhrp_header.t) =
  (* Report the address the tunnel actually ended at: the foreign agent's
     own address, or the temporary address of a host serving as its own
     foreign agent.  Under hierarchical registration with an explicit
     refresh interval configured — the failure-recovery deployment
     profile — a foreign agent advertises its regional parent instead,
     so correspondent caches keep pointing at the region's stable entry
     point: intra-region handoffs stay invisible to them, a regional
     failover or mirror-peer takeover keeps them valid, and an
     inter-region handoff can be chased through the old regional
     agent's forwarding pointer.  On the slow lifetime/3 fallback
     cadence that entry point is too loosely maintained to pin caches
     to, so the foreign agent keeps reporting itself. *)
  let endpoint =
    match t.regional_parent with
    | Some regional
      when t.config.Config.hierarchy
           && Time.to_us t.config.Config.regional_refresh > 0 -> regional
    | _ -> View.dst v
  in
  let mobile = header.Mhrp_header.mobile in
  t.counters.Counters.detunnels <- t.counters.Counters.detunnels + 1;
  send_updates t header.Mhrp_header.prev_sources ~mobile
    ~foreign_agent:endpoint;
  if tracing t then tracef t "deliver" "to visitor %a" Addr.pp mobile;
  if Node.has_address t.node mobile then
    (* We are the mobile host serving as its own foreign agent. *)
    Node.inject_local t.node (Packet.decode (Encap.detunnel_into v header))
  else
    match Foreign_agent.find fa_state mobile with
    | None -> ()
    | Some { Foreign_agent.mac = Some mac; iface; _ } ->
      Node.send_wire_to_mac t.node ~iface ~dst_mac:mac
        (Encap.detunnel_into v header)
    | Some { Foreign_agent.mac = None; _ } ->
      (* Recovered visitor (Section 5.2): deliver through ARP on the
         serving LAN via a host route, added once — a table rebuilt per
         packet would recompile its lookup every time. *)
      (match Net.Route.host_target (Node.routes t.node) mobile with
       | Some (Net.Route.Direct i) when i = fa_iface -> ()
       | Some _ | None ->
         Node.update_routes t.node (fun r ->
             Net.Route.add_host r mobile (Net.Route.Direct fa_iface)));
      Node.forward_wire t.node (Encap.detunnel_into v header)

(* Home agent receiving a tunneled packet for one of its mobile hosts —
   the packet bounced off a stale or rebooted foreign agent
   (Sections 5.1, 5.2). *)
let ha_handle_tunneled t ha v (header : Mhrp_header.t) =
  let mobile = header.Mhrp_header.mobile in
  let targets =
    List.filter
      (fun a -> not (Node.has_address t.node a))
      (Mhrp_header.tunnel_heads header ~incoming:(View.src v))
  in
  match Home_agent.location ha mobile with
  | None -> retunnel_stale t v header
  | Some fa when Addr.is_zero fa ->
    (* The mobile host is at home: reconstruct and deliver on the home
       network; stale caches learn it is home (Section 6.3). *)
    t.counters.Counters.detunnels <- t.counters.Counters.detunnels + 1;
    send_updates t targets ~mobile ~foreign_agent:Addr.zero;
    Node.forward_wire t.node (Encap.detunnel_into v header)
  | Some fa when Addr.equal fa disconnected_marker ->
    send_updates t targets ~mobile ~foreign_agent:Addr.zero;
    send_unreachable t (Packet.decode (Encap.detunnel_into v header))
  | Some fa when List.exists (Addr.equal fa) targets ->
    (* Section 5.2: the agent that bounced this packet home IS the
       registered foreign agent — it must have rebooted.  Tell everyone
       (including it) and discard the packet. *)
    if tracing t then
      tracef t "fa-recovery" "%a bounced by its own fa %a" Addr.pp mobile
        Addr.pp fa;
    send_updates t targets ~mobile ~foreign_agent:fa
  | Some fa ->
    (* Section 5.1: update every stale agent this packet visited, then
       tunnel on to the correct foreign agent. *)
    send_updates t targets ~mobile ~foreign_agent:fa;
    do_retunnel t v header ~mobile ~new_dst:fa ~report_fa:(Some fa)

(* The mobile host itself received a packet tunneled to its home address:
   it is back home (or the tunnel chased it here).  Deliver to ourselves
   and tell everyone who forwarded the packet that we are at home, so they
   delete their cache entries (Section 6.3). *)
let mh_handle_tunneled_to_self t v (header : Mhrp_header.t) =
  t.counters.Counters.detunnels <- t.counters.Counters.detunnels + 1;
  send_updates t
    (Mhrp_header.tunnel_heads header ~incoming:(View.src v))
    ~mobile:header.Mhrp_header.mobile ~foreign_agent:Addr.zero;
  Node.inject_local t.node (Packet.decode (Encap.detunnel_into v header))

(* Hierarchical counterpart of the Section 5.2 reboot recovery: a foreign
   agent handed a tunneled packet for a mobile host missing from its
   visitor list (a reboot lost the list, or a lost withdrawal left the
   regional binding stale) probes the cell.  An answer means the host is
   still here — re-add it, the regional binding was right after all.  No
   answer means the binding is stale: report a visitor-list miss so the
   regional parent drops it ([Control.Fa_visitor_miss]) — the bounce the
   flat path gets from the home agent's ICMP location updates, which
   never reaches a regional binding.  Skipped while a forwarding-pointer
   cache entry still says where the host went: that entry re-tunnels the
   packet correctly, and the probe would only add control traffic. *)
let fa_probe_missing_visitor t ~mobile =
  match t.fa, t.regional_parent with
  | Some (fa_state, fa_iface), Some regional
    when t.config.Config.hierarchy
      && (not (Foreign_agent.mem fa_state mobile))
      && (not (Node.has_address t.node mobile))
      && (not t.cache_agent || Location_cache.find t.cache mobile = None) ->
    let km = Addr.to_key mobile in
    if not (Hashtbl.mem t.fa_miss_probes km) then begin
      Hashtbl.replace t.fa_miss_probes km ();
      Node.arp_probe t.node ~iface:fa_iface mobile;
      ignore
        (Engine.schedule_after (engine t) ~delay:(Time.of_ms 50) (fun () ->
             Hashtbl.remove t.fa_miss_probes km;
             if Node.is_up t.node then
               match Node.arp_cache_lookup t.node mobile with
               | Some mac ->
                 if not (Foreign_agent.mem fa_state mobile) then begin
                   Foreign_agent.add fa_state
                     { Foreign_agent.mobile; mac = Some mac;
                       iface = fa_iface };
                   t.counters.Counters.recoveries <-
                     t.counters.Counters.recoveries + 1;
                   if tracing t then
                     tracef t "fa-recovery" "re-added visitor %a after probe"
                       Addr.pp mobile
                 end
               | None ->
                 (* report the address the mobiles register — the one
                    advertised on the serving interface, which is what
                    the regional binding records *)
                 let fa_self =
                   match
                     List.find_opt
                       (fun (i, _, _) -> i = fa_iface)
                       (Node.ifaces t.node)
                   with
                   | Some (_, _, Some a) -> a
                   | _ -> address t
                 in
                 if tracing t then
                   tracef t "fa-recovery"
                     "%a did not answer probe: reporting miss to %a" Addr.pp
                     mobile Addr.pp regional;
                 send_control t ~dst:regional
                   (Control.Fa_visitor_miss
                      { mobile; foreign_agent = fa_self })))
    end
  | _ -> ()

(* Dispatch a tunneled packet through our regional role: retunnel to the
   bound foreign agent or chase an inter-region forwarding pointer, and
   answer whether it did; on [false] the caller serves the packet.
   Shared by the pure-regional node and the combined home-and-regional
   node, whose home-agent location entry names one of its own
   addresses.  Overflow notifications report this agent's own address,
   not the inner foreign agent — the region stays opaque, so external
   caches survive intra-region handoffs. *)
let regional_dispatch t v (header : Mhrp_header.t) =
  let mobile = header.Mhrp_header.mobile in
  match regional_binding t mobile with
  | Some fa when not (Node.has_address t.node fa) ->
    t.counters.Counters.regional_retunnels <-
      t.counters.Counters.regional_retunnels + 1;
    do_retunnel t v header ~mobile ~new_dst:fa ~report_fa:(Some (address t));
    true
  | _ ->
    match regional_forward t mobile with
    | Some target ->
      (* inter-region handoff grace period: chase the mobile to its new
         regional agent, and report that agent so stale caches rebind to
         the new region *)
      t.counters.Counters.regional_forwards <-
        t.counters.Counters.regional_forwards + 1;
      if tracing t then
        tracef t "regional" "forwarding %a to new region %a" Addr.pp mobile
          Addr.pp target;
      do_retunnel t v header ~mobile ~new_dst:target ~report_fa:(Some target);
      true
    | None -> false

(* A tunnel this node built to one of its own addresses, looped straight
   back by the network layer: the home agent and the regional agent are
   the same node, and some home-agent path (a registration reply, an
   intercept racing the regional binding write) tunneled to the recorded
   location — us.  Strip our own encapsulation and send the inner packet
   through the regional binding; running it through the normal dispatch
   instead would read our own address among the tunnel heads as a
   one-hop loop and dissolve the binding. *)
let handle_self_tunnel t v (header : Mhrp_header.t) =
  let mobile = header.Mhrp_header.mobile in
  t.counters.Counters.detunnels <- t.counters.Counters.detunnels + 1;
  let original = Encap.detunnel_into v header in
  let target =
    match regional_binding t mobile with
    | Some fa when not (Node.has_address t.node fa) -> Some fa
    | _ -> regional_forward t mobile
  in
  match target with
  | Some fa ->
    t.counters.Counters.tunnels_built <-
      t.counters.Counters.tunnels_built + 1;
    if tracing t then
      tracef t "tunnel" "self-tunnel for %a on to fa %a" Addr.pp mobile
        Addr.pp fa;
    Node.forward_wire t.node
      (Encap.tunnel_by_agent_into ~agent:(address t) ~foreign_agent:fa
         (View.make original))
  | None ->
    if tracing t then
      tracef t "drop" "self-tunnel for %a: no regional binding" Addr.pp
        mobile;
    send_unreachable t (Packet.decode original)

(* Every MHRP packet delivered to this node — addressed here, or claimed
   for a mobile host — is a tunnel exit or a re-tunnel, dispatched on
   the received view and its header decoded in place. *)
let handle_mhrp t v =
  match Encap.header_at v with
  | None -> if tracing t then tracef t "drop" "malformed mhrp packet"
  | Some header ->
    let mobile = header.Mhrp_header.mobile in
    match t.fa with
    | Some (fa_state, fa_iface) when Foreign_agent.mem fa_state mobile ->
      deliver_to_visitor t fa_state fa_iface v header
    | _ when Node.has_address t.node (View.src v) ->
      handle_self_tunnel t v header
    | _ ->
      if Node.has_address t.node mobile then
        mh_handle_tunneled_to_self t v header
      else
        match t.ha with
        | Some ha when Home_agent.serves ha mobile ->
          let location_is_self =
            match Home_agent.location ha mobile with
            | Some loc ->
              (not (Addr.is_zero loc)) && Node.has_address t.node loc
            | None -> false
          in
          if location_is_self then
            (* the mobile is visiting its own home region and we are
               both its home and regional agent: serve the regional
               role — the home-agent path would bounce the packet at
               ourselves as a loop *)
            (if not (regional_dispatch t v header) then
               ha_handle_tunneled t ha v header)
          else ha_handle_tunneled t ha v header
        | _ ->
          if not (regional_dispatch t v header) then begin
            fa_probe_missing_visitor t ~mobile;
            retunnel_stale t v header
          end

(* --- Section 4.5: returned ICMP errors --- *)

let is_unreachable = function
  | Ipv4.Icmp.Dest_unreachable _ -> true
  | _ -> false

let resend_error t msg ~dst ~quoted =
  t.counters.Counters.icmp_errors_reversed <-
    t.counters.Counters.icmp_errors_reversed + 1;
  let encoded = Packet.encode quoted in
  let n = min (Bytes.length encoded) (Packet.header_length quoted + 8 + 64)
  in
  (* Quote generously (header + transport prefix) so the next reversal
     still has the whole MHRP header available. *)
  let original = Bytes.sub encoded 0 n in
  let msg' =
    match msg with
    | Ipv4.Icmp.Dest_unreachable { code; _ } ->
      Ipv4.Icmp.Dest_unreachable { code; original }
    | Ipv4.Icmp.Time_exceeded { code; _ } ->
      Ipv4.Icmp.Time_exceeded { code; original }
    | Ipv4.Icmp.Redirect { gateway; _ } ->
      Ipv4.Icmp.Redirect { gateway; original }
    | other -> other
  in
  if tracing t then tracef t "icmp-reverse" "to %a" Addr.pp dst;
  let pkt =
    Packet.make ~proto:Ipv4.Proto.icmp ~src:(address t) ~dst
      (Ipv4.Icmp.encode msg')
  in
  Node.send t.node pkt

let handle_icmp_error t (msg : Ipv4.Icmp.t) quoted_bytes =
  match Packet.decode_prefix quoted_bytes with
  | None -> t.icmp_error_tap msg None
  | Some (qpkt, _) ->
    if Encap.is_tunneled qpkt && Node.has_address t.node qpkt.Packet.src
    then begin
      (* We are the head of the most recent tunnel this packet was in. *)
      match Mhrp_header.decode_prefix qpkt.Packet.payload with
      | None -> t.icmp_error_tap msg None
      | Some (header, hlen) ->
        let mobile = header.Mhrp_header.mobile in
        if is_unreachable msg && t.cache_agent then begin
          (* The path to our cached location failed — not necessarily the
             mobile host itself (Section 4.5): drop the entry. *)
          Location_cache.delete t.cache mobile;
          if tracing t then
            tracef t "cache" "dropped %a after unreachable" Addr.pp mobile
        end;
        let payload = qpkt.Packet.payload in
        if Bytes.length payload < hlen + 8 then
          (* Not enough of the original quoted: nothing more can be done
             beyond the cache deletion (Section 4.5). *)
          t.icmp_error_tap msg None
        else begin
          let transport =
            Bytes.sub payload hlen (Bytes.length payload - hlen)
          in
          match header.Mhrp_header.prev_sources with
          | [] ->
            (* We built the header as the original sender: reverse to the
               pre-tunnel packet and treat the error as ours. *)
            let original =
              { qpkt with
                Packet.proto = header.Mhrp_header.orig_proto;
                dst = mobile;
                payload = transport }
            in
            t.counters.Counters.icmp_errors_reversed <-
              t.counters.Counters.icmp_errors_reversed + 1;
            t.icmp_error_tap msg (Some original)
          | [sender] ->
            (* We did the initial (agent-built) encapsulation: restore the
               original packet and return the error to the sender. *)
            let original =
              { qpkt with
                Packet.proto = header.Mhrp_header.orig_proto;
                src = sender;
                dst = mobile;
                payload = transport }
            in
            resend_error t msg ~dst:sender ~quoted:original
          | _ :: _ :: _ ->
            (* We re-tunneled it: reverse one step of the tunnel chain. *)
            match Mhrp_header.drop_last_source header with
            | None -> ()
            | Some (header', prev_head) ->
              let quoted =
                { qpkt with
                  Packet.src = prev_head;
                  dst = address t;
                  payload = Mhrp_header.encode header' transport }
              in
              resend_error t msg ~dst:prev_head ~quoted
        end
    end
    else t.icmp_error_tap msg (Some qpkt)

(* --- agent discovery (Section 3) --- *)

(* Advertise on every addressed interface; the walks over the interface
   list are top-level, so a broadcast round allocates only its
   messages. *)
let rec advertise_on t ~home ~foreign = function
  | [] -> ()
  | (_, _, None) :: rest -> advertise_on t ~home ~foreign rest
  | (i, _, Some agent) :: rest ->
    t.counters.Counters.control_messages <-
      t.counters.Counters.control_messages + 1;
    Node.broadcast_ip t.node ~iface:i
      (icmp_wire ~src:agent ~dst:Addr.broadcast
         (Ipv4.Icmp.Agent_advertisement { agent; home; foreign })
         None);
    advertise_on t ~home ~foreign rest

let broadcast_advert t =
  let home = t.ha <> None in
  let foreign = t.fa <> None in
  if home || foreign then advertise_on t ~home ~foreign (Node.ifaces t.node)

let rec solicit_on t = function
  | [] -> ()
  | (i, _, _) :: rest ->
    t.counters.Counters.control_messages <-
      t.counters.Counters.control_messages + 1;
    Node.broadcast_ip t.node ~iface:i
      (icmp_wire ~src:(address t) ~dst:Addr.broadcast
         Ipv4.Icmp.Agent_solicitation None);
    solicit_on t rest

let solicit t = solicit_on t (Node.ifaces t.node)

let start_advert_timer t =
  if not t.advert_timer then begin
    t.advert_timer <- true;
    Engine.every (engine t) ~interval:t.config.Config.advert_interval
      (fun () -> if Node.is_up t.node then broadcast_advert t)
  end

(* --- Section 5.2: foreign-agent state recovery --- *)

let fa_recovery_check t ~mobile ~foreign_agent =
  match t.fa with
  | Some (fa_state, fa_iface)
    when Node.has_address t.node foreign_agent
      && (not (Foreign_agent.mem fa_state mobile))
      && not (Node.has_address t.node mobile) ->
    let add mac =
      Foreign_agent.add fa_state
        { Foreign_agent.mobile; mac; iface = fa_iface };
      t.counters.Counters.recoveries <- t.counters.Counters.recoveries + 1;
      if tracing t then
        tracef t "fa-recovery" "re-added visitor %a" Addr.pp mobile
    in
    if t.config.Config.verify_recovered_visitors then begin
      (* Verify presence with a local query (the paper suggests an ARP
         query) before believing the home agent. *)
      Node.arp_probe t.node ~iface:fa_iface mobile;
      ignore
        (Engine.schedule_after (engine t) ~delay:(Time.of_ms 50) (fun () ->
             match Node.arp_cache_lookup t.node mobile with
             | Some mac -> add (Some mac)
             | None ->
               if tracing t then
                 tracef t "fa-recovery" "%a did not answer query" Addr.pp
                   mobile))
    end
    else add None
  | _ -> ()

(* --- mobile-host registration machinery (Section 3) --- *)

let current_iface t =
  match Node.ifaces t.node with
  | (i, lan, _) :: _ -> (i, lan)
  | [] -> failwith (Node.name t.node ^ ": no interface")

let notify_old_fa t mh ~new_foreign_agent =
  match mh.Mobile_host.old_fa with
  | Some old_fa when not (Addr.equal old_fa new_foreign_agent) ->
    t.counters.Counters.fa_disconnects <-
      t.counters.Counters.fa_disconnects + 1;
    send_control t ~dst:old_fa
      (Control.Fa_disconnect
         { mobile = mh.Mobile_host.home; new_foreign_agent });
    mh.Mobile_host.old_fa <- None
  | _ -> mh.Mobile_host.old_fa <- None

let complete_registration t mh ~foreign_agent =
  Exchange.ack mh.Mobile_host.connect;
  mh.Mobile_host.registrations_completed <-
    mh.Mobile_host.registrations_completed + 1;
  mh.Mobile_host.last_advert <- now t;
  if Addr.is_zero foreign_agent then begin
    mh.Mobile_host.phase <- Mobile_host.At_home;
    notify_old_fa t mh ~new_foreign_agent:Addr.zero
  end
  else begin
    mh.Mobile_host.phase <- Mobile_host.Registered foreign_agent;
    notify_old_fa t mh ~new_foreign_agent:foreign_agent
  end;
  if tracing t then
    tracef t "registered" "%a" Mobile_host.pp_phase mh.Mobile_host.phase;
  t.registered_tap foreign_agent

(* Every exchange of the mobile host is retransmitted under
   [Config.reliable_control] ({!Exchange}): without it a single lost
   registration or connect notification strands the host (the
   implicit-disconnection watchdog only re-solicits from a settled phase,
   never from mid-registration). *)
let register_with_home_agent t mh ~foreign_agent =
  send_acked t mh.Mobile_host.home_reg ~dst:mh.Mobile_host.home_agent
    (Control.Reg_request { mobile = mh.Mobile_host.home; foreign_agent })
    ~resent:(fun c ->
        c.Counters.reg_retransmissions <- c.Counters.reg_retransmissions + 1)
    ~give_up:ignore

(* Bind to the serving foreign agent at the regional agent
   ([Config.hierarchy]) — the only registration an intra-region handoff
   sends.  Exhausting the retransmissions ([Config.reliable_control])
   declares the regional agent dead and fails over. *)
let rec register_with_region t mh ~regional ~foreign_agent =
  send_acked t mh.Mobile_host.region_reg ~dst:regional
    (Control.Reg_region
       { mobile = mh.Mobile_host.home; foreign_agent;
         lifetime_s = regional_lifetime_s t })
    ~resent:(fun c ->
        c.Counters.region_retransmissions <-
          c.Counters.region_retransmissions + 1)
    ~give_up:(fun () -> region_failover t mh ~failed:regional)

(* Regional-agent crash recovery: the retransmission loop gave up, so the
   regional agent is presumed down.  Re-anchor at the advertised backup
   when one exists (the home agent must be repointed — external tunnels
   land on the regional agent, and the crashed one blackholes them), else
   fall back to a direct, flat registration with the current foreign
   agent; the next hierarchical connect ack restores aggregation. *)
and region_failover t mh ~failed =
  let still_current =
    match mh.Mobile_host.regional with
    | Some r -> Addr.equal r failed
    | None -> false
  in
  if still_current then begin
    t.counters.Counters.region_failovers <-
      t.counters.Counters.region_failovers + 1;
    match mh.Mobile_host.phase with
    | (Mobile_host.Registered fa | Mobile_host.Registering fa)
      when not (Addr.is_zero fa) -> begin
        match mh.Mobile_host.regional_backup with
        | Some backup when not (Addr.equal backup failed) ->
          if tracing t then
            tracef t "region-failover" "%a unresponsive: backup %a takes over"
              Addr.pp failed Addr.pp backup;
          mh.Mobile_host.regional <- Some backup;
          register_with_home_agent t mh ~foreign_agent:backup;
          register_with_region t mh ~regional:backup ~foreign_agent:fa
        | _ ->
          if tracing t then
            tracef t "region-failover"
              "%a unresponsive: registering directly with home agent" Addr.pp
              failed;
          mh.Mobile_host.regional <- None;
          register_with_home_agent t mh ~foreign_agent:fa
      end
    | _ -> mh.Mobile_host.regional <- None
  end

(* Fire-and-forget withdrawal (no ack, no retry): a stale binding is
   soft state the data-path machinery — and now its lifetime — corrects,
   and an acked withdrawal could race with — and falsely acknowledge —
   the registration to the next region.  On an inter-region handoff
   ([new_regional]) with a grace period configured, the withdrawal
   becomes a [Region_forward]: the old regional agent keeps a forwarding
   pointer so in-flight packets are re-tunneled instead of dropped.  A
   no-op outside hierarchy mode: [mh.regional] is only ever set by a
   hierarchical connect ack. *)
let withdraw_regional ?new_regional t mh =
  match mh.Mobile_host.regional with
  | None -> ()
  | Some regional ->
    (match new_regional with
     | Some next
       when Time.to_us t.config.Config.regional_grace > 0
         && not (Addr.equal next regional) ->
       send_control t ~dst:regional
         (Control.Region_forward
            { mobile = mh.Mobile_host.home; new_regional = next })
     | _ ->
       send_control t ~dst:regional
         (Control.Reg_region
            { mobile = mh.Mobile_host.home; foreign_agent = Addr.zero;
              lifetime_s = 0 }));
    mh.Mobile_host.regional <- None

(* A mobile host's routes on the [lan] it reaches through interface
   [i]: the LAN direct, everything else via [gateway]. *)
let set_attached_routes t i lan ~gateway =
  Node.set_routes t.node
    (Net.Route.add_default
       (Net.Route.add Net.Route.empty (Net.Lan.prefix lan)
          (Net.Route.Direct i))
       (Net.Route.Via gateway))

let connect_via_foreign_agent t mh fa_addr =
  mh.Mobile_host.phase <- Mobile_host.Registering fa_addr;
  let i, lan = current_iface t in
  set_attached_routes t i lan ~gateway:fa_addr;
  t.counters.Counters.fa_connects <- t.counters.Counters.fa_connects + 1;
  send_acked t mh.Mobile_host.connect ~dst:fa_addr
    (Control.Fa_connect
       { mobile = mh.Mobile_host.home; mac = Node.iface_mac t.node i })
    ~resent:(fun c ->
        c.Counters.connect_retransmissions <-
          c.Counters.connect_retransmissions + 1)
    ~give_up:(fun () ->
        (* fall back to agent discovery: the next advertisement (from
           this or any other agent) restarts the connection attempt *)
        mh.Mobile_host.phase <- Mobile_host.Searching)

let connect_home t mh ha_addr =
  mh.Mobile_host.phase <- Mobile_host.Registering Addr.zero;
  let i, lan = current_iface t in
  set_attached_routes t i lan ~gateway:ha_addr;
  (* Reconnecting to the home network: broadcast gratuitous ARP replies so
     neighbours (and the home agent) replace the home agent's link address
     with ours again (Section 2), retransmitted for reliability — until
     the host moves on, which retires interface [i]. *)
  let moves = mh.Mobile_host.moves in
  garp_burst t ~iface:i mh.Mobile_host.home
    ~live:(fun () -> mh.Mobile_host.moves = moves);
  withdraw_regional t mh;
  register_with_home_agent t mh ~foreign_agent:Addr.zero;
  complete_registration t mh ~foreign_agent:Addr.zero

let mh_handle_advert t ~agent ~home ~foreign =
  match t.mh with
  | None -> ()
  | Some mh ->
    (* hearing our current agent (or the home agent while home) refreshes
       the implicit-disconnection clock (Section 3) *)
    (match mh.Mobile_host.phase with
     | Mobile_host.Registered fa | Mobile_host.Registering fa
       when Addr.equal agent fa ->
       mh.Mobile_host.last_advert <- now t
     | Mobile_host.At_home
       when Addr.equal agent mh.Mobile_host.home_agent ->
       mh.Mobile_host.last_advert <- now t
     | _ -> ());
    match mh.Mobile_host.phase with
    | Mobile_host.Searching ->
      if home && Addr.equal agent mh.Mobile_host.home_agent then begin
        if tracing t then
          tracef t "discovery" "home agent heard: %a" Addr.pp agent;
        connect_home t mh agent
      end
      else if foreign then begin
        if tracing t then
          tracef t "discovery" "foreign agent heard: %a" Addr.pp agent;
        connect_via_foreign_agent t mh agent
      end
    | Mobile_host.At_home | Mobile_host.Registering _
    | Mobile_host.Registered _ | Mobile_host.Disconnected -> ()

(* --- control-message handling --- *)

(* Apply a registration to the home-agent database with its side effects
   (ARP capture bursts when the host departs its home LAN), without
   replying — shared by direct registrations and replica synchronisation
   (Section 2's replicated home agents). *)
let register_mobile t ~mobile ~foreign_agent =
  match t.ha with
  | None -> ()
  | Some ha when Home_agent.serves ha mobile ->
    let previous = Home_agent.location ha mobile in
    Home_agent.register ha ~mobile ~foreign_agent;
    t.counters.Counters.registrations <-
      t.counters.Counters.registrations + 1;
    if tracing t then
      tracef t "register" "%a now at %a" Addr.pp mobile Addr.pp foreign_agent;
    (* Departure from home: capture the host's traffic on the home LAN by
       poisoning neighbour ARP caches, retransmitted for reliability
       (Section 2).  Proxy ARP is in force via the arp_proxy hook. *)
    (match previous with
     | Some prev
       when Addr.is_zero prev && not (Addr.is_zero foreign_agent) ->
       garp_burst_covering t mobile
     | _ -> ())
  | Some _ -> ()

(* Section 2's replicated home agents: an accepted registration is
   mirrored to every replica, each replica's exchange per mobile host
   superseded by the next registration.  Top-level, so an agent without
   replicas builds nothing. *)
let rec sync_replicas t ~mobile ~foreign_agent = function
  | [] -> ()
  | m :: rest ->
    send_sync t m ~mobile (Control.Ha_sync { mobile; foreign_agent })
      ~resent:(fun c ->
          c.Counters.sync_retransmissions <-
            c.Counters.sync_retransmissions + 1)
      ~give_up:ignore;
    sync_replicas t ~mobile ~foreign_agent rest

let ha_handle_registration t ha ~mobile ~foreign_agent =
  if Home_agent.serves ha mobile then begin
    register_mobile t ~mobile ~foreign_agent;
    sync_replicas t ~mobile ~foreign_agent t.replicas;
    (* The reply reaches a visiting host through its new tunnel. *)
    send_control_via t ~dst:mobile
      (Control.Reg_reply { mobile; accepted = true })
      (sender_tunnel t mobile);
    t.counters.Counters.control_messages <-
      t.counters.Counters.control_messages + 1
  end

(* The interface whose LAN [mac] is attached to, else [default]. *)
let rec iface_with_station mac ~default = function
  | [] -> default
  | (i, lan, _) :: rest ->
    if Net.Lan.attached lan mac then i
    else iface_with_station mac ~default rest

let fa_handle_connect t ~mobile ~mac =
  match t.fa with
  | None -> ()
  | Some (fa_state, fa_iface) ->
    (* Find the interface whose LAN the mobile host's link address is
       attached to; default to the serving interface. *)
    let iface =
      iface_with_station mac ~default:fa_iface (Node.ifaces t.node)
    in
    Foreign_agent.add fa_state
      { Foreign_agent.mobile; mac = Some mac; iface };
    t.counters.Counters.fa_connects <- t.counters.Counters.fa_connects + 1;
    if tracing t then
      tracef t "visitor" "%a connected (mac %a)" Addr.pp mobile Net.Mac.pp mac;
    t.counters.Counters.control_messages <-
      t.counters.Counters.control_messages + 1;
    (* Under hierarchy, a foreign agent with a provisioned regional
       parent tells the mobile host to register through it instead of
       the home agent. *)
    let ack_msg =
      match t.regional_parent with
      | Some regional when t.config.Config.hierarchy ->
        Control.Fa_connect_ack_r
          { mobile; regional;
            backup =
              Option.value t.regional_backup_parent ~default:Addr.zero }
      | _ -> Control.Fa_connect_ack { mobile }
    in
    Node.send_wire_to_mac t.node ~iface ~dst_mac:mac
      (control_wire t ~dst:mobile ack_msg None)

let fa_handle_disconnect t ~mobile ~new_foreign_agent =
  match t.fa with
  | None -> ()
  | Some (fa_state, _) ->
    Foreign_agent.remove fa_state mobile;
    t.counters.Counters.fa_disconnects <-
      t.counters.Counters.fa_disconnects + 1;
    if tracing t then
      tracef t "visitor" "%a disconnected (now %a)" Addr.pp mobile Addr.pp
        new_foreign_agent;
    (* Forwarding pointer (Section 2): the old foreign agent may cache the
       new location, kept as an ordinary cache entry. *)
    if t.config.Config.forwarding_pointers
       && not (Addr.is_zero new_foreign_agent)
    then cache_update t ~mobile ~foreign_agent:new_foreign_agent

let mh_handle_reg_reply t ~mobile ~accepted =
  (* Section 3's notifications are independent, not a handshake: the home
     agent's reply only confirms.  Registration already completed when the
     notifications were sent, so a temporarily unreachable home agent does
     not stall the move (the forwarding-pointer scenario of Section 2). *)
  match t.mh with
  | Some mh when Addr.equal mobile mh.Mobile_host.home ->
    if tracing t then
      tracef t "registered" "home agent %s"
        (if accepted then "confirmed" else "refused");
    (* the reply acknowledges every outstanding registration request,
       stopping its retransmission loop *)
    Exchange.ack mh.Mobile_host.home_reg;
    ignore accepted
  | _ -> ()

let mh_handle_connect_ack t ~mobile =
  match t.mh with
  | Some mh when Addr.equal mobile mh.Mobile_host.home -> begin
      match mh.Mobile_host.phase with
      | Mobile_host.Registering fa when not (Addr.is_zero fa) ->
        (* a plain (non-hierarchical) foreign agent: any old regional
           binding is now stale *)
        withdraw_regional t mh;
        register_with_home_agent t mh ~foreign_agent:fa;
        complete_registration t mh ~foreign_agent:fa
      | _ -> ()
    end
  | _ -> ()

(* Hierarchical connect ack: the home agent learns (at most once per
   region) that the host lives behind the regional agent; every handoff
   under the same regional agent only rebinds there.  This is the
   aggregation that cuts long-haul control traffic per handoff (E19). *)
let mh_handle_connect_ack_r t ~mobile ~regional ~backup =
  match t.mh with
  | Some mh when Addr.equal mobile mh.Mobile_host.home -> begin
      match mh.Mobile_host.phase with
      | Mobile_host.Registering fa when not (Addr.is_zero fa) ->
        let same_region =
          match mh.Mobile_host.regional with
          | Some prev -> Addr.equal prev regional
          | None -> false
        in
        if not same_region then begin
          (* leaving a region: trade the withdrawal for a grace-period
             forwarding pointer when one is configured *)
          withdraw_regional ~new_regional:regional t mh;
          register_with_home_agent t mh ~foreign_agent:regional
        end;
        mh.Mobile_host.regional <- Some regional;
        mh.Mobile_host.regional_backup <-
          (if Addr.is_zero backup then None else Some backup);
        register_with_region t mh ~regional ~foreign_agent:fa;
        complete_registration t mh ~foreign_agent:fa
      | _ -> ()
    end
  | _ -> ()

let mh_handle_reg_region_ack t ~mobile =
  match t.mh with
  | Some mh when Addr.equal mobile mh.Mobile_host.home ->
    if tracing t then tracef t "registered" "regional agent confirmed";
    Exchange.ack mh.Mobile_host.region_reg
  | _ -> ()

(* The mirror peer exhausted every binding-sync retransmission: it is
   down.  Capture its regional address on the shared LANs — the
   Section 2 gratuitous-ARP manoeuvre — so correspondents whose caches
   still tunnel into the region through the dead agent reach this
   node's mirrored binding table instead; the proxy-ARP hook answers
   later queries.  Released the moment the peer is heard from again
   (its own post-reboot syncs, or an ack to ours). *)
let region_peer_takeover t =
  match t.region_mirror with
  | Some m when not t.region_peer_captured ->
    t.region_peer_captured <- true;
    t.counters.Counters.region_takeovers <-
      t.counters.Counters.region_takeovers + 1;
    if tracing t then
      tracef t "regional" "peer %a unresponsive: capturing its address"
        Addr.pp m.peer;
    garp_burst_covering t m.peer
  | _ -> ()

let region_peer_release t ~peer =
  if region_peer_claims t peer then begin
    t.region_peer_captured <- false;
    if tracing t then
      tracef t "regional" "peer %a is back: releasing its address" Addr.pp
        peer
  end

(* Mirror a binding write to the configured backup regional agent so it
   can take over the region on a crash, retransmitted under
   [Config.reliable_control] until the backup confirms. *)
let sync_region_binding t ~mobile ~foreign_agent ~lifetime_s =
  match t.region_mirror with
  | None -> ()
  | Some m ->
    (* A newer generation superseding this one must NOT cancel the retry
       chain: any ack covers every earlier generation, so only an ack
       (or a reboot) counts as the peer answering.  Otherwise a refresh
       cadence shorter than the full retry schedule would re-arm forever
       and the peer's death would never surface. *)
    send_sync ~supersede:false t m ~mobile
      (Control.Region_sync { mobile; foreign_agent; lifetime_s })
      ~resent:(fun c ->
          c.Counters.region_sync_retransmissions <-
            c.Counters.region_sync_retransmissions + 1)
      ~give_up:(fun () -> region_peer_takeover t)

let regional_handle_registration t ~mobile ~foreign_agent ~lifetime_s =
  match t.regional with
  | None -> ()
  | Some r ->
    if Addr.is_zero foreign_agent then begin
      Regional.withdraw r mobile;
      if tracing t then tracef t "regional" "%a withdrawn" Addr.pp mobile;
      (* no ack: see [withdraw_regional] *)
      sync_region_binding t ~mobile ~foreign_agent:Addr.zero ~lifetime_s:0
    end
    else begin
      (match
         Regional.register r ?expires_at:(regional_expiry t ~lifetime_s)
           ~mobile ~foreign_agent ()
       with
       | `Fresh ->
         t.counters.Counters.regional_registrations <-
           t.counters.Counters.regional_registrations + 1;
         if tracing t then
           tracef t "regional" "%a now at %a" Addr.pp mobile Addr.pp
             foreign_agent
       | `Refresh ->
         (* pure keep-alive: the binding is unchanged, only its lifetime
            re-arms — not a registration, or refreshes would inflate the
            E19 aggregation counters *)
         if tracing t then
           tracef t "regional" "%a refreshed at %a" Addr.pp mobile Addr.pp
             foreign_agent);
      sync_region_binding t ~mobile ~foreign_agent ~lifetime_s;
      (* the ack reaches the visiting host through the binding we just
         wrote, exactly as the home agent's reply rides its tunnel *)
      t.counters.Counters.control_messages <-
        t.counters.Counters.control_messages + 1;
      send_control_via t ~dst:mobile (Control.Reg_region_ack { mobile })
        (Some foreign_agent)
    end

(* Backup regional agent: apply a mirrored binding without re-propagating
   (cf. [Ha_sync]), confirming under a reliable control plane so the
   primary stops retransmitting. *)
let regional_handle_sync t ~src ~mobile ~foreign_agent ~lifetime_s =
  region_peer_release t ~peer:src;
  match t.regional with
  | None -> ()
  | Some r ->
    if Addr.is_zero foreign_agent then Regional.withdraw r mobile
    else begin
      ignore
        (Regional.register r ?expires_at:(regional_expiry t ~lifetime_s)
           ~mobile ~foreign_agent ());
      if tracing t then
        tracef t "regional" "synced %a -> %a" Addr.pp mobile Addr.pp
          foreign_agent
    end;
    if t.config.Config.reliable_control then
      send_control t ~dst:src (Control.Region_sync_ack { mobile })

let regional_handle_sync_ack t ~src ~mobile =
  region_peer_release t ~peer:src;
  match t.region_mirror with
  | Some m -> sync_acked m ~mobile
  | None -> ()

(* The hierarchical invalidation bounce: the serving foreign agent says
   it does not know this visitor (and the cell did not answer a probe),
   so the binding is stale — but only if it still points there; a racing
   re-registration to a different foreign agent must win. *)
let regional_handle_visitor_miss t ~mobile ~foreign_agent =
  match t.regional with
  | None -> ()
  | Some r ->
    if Regional.invalidate r ~mobile ~foreign_agent then begin
      t.counters.Counters.regional_invalidations <-
        t.counters.Counters.regional_invalidations + 1;
      if tracing t then
        tracef t "regional" "%a invalidated: %a reports no such visitor"
          Addr.pp mobile Addr.pp foreign_agent
    end

(* Inter-region handoff: replace the departing mobile's binding with a
   grace-period forwarding pointer toward its new regional agent. *)
let regional_handle_forward t ~mobile ~new_regional =
  match t.regional with
  | None -> ()
  | Some r ->
    Regional.withdraw r mobile;
    sync_region_binding t ~mobile ~foreign_agent:Addr.zero ~lifetime_s:0;
    let grace = t.config.Config.regional_grace in
    if Time.to_us grace > 0 && not (Node.has_address t.node new_regional)
    then begin
      Regional.set_forward r ~mobile ~new_regional
        ~expires_at:(Time.add (now t) grace);
      if tracing t then
        tracef t "regional" "%a left region: forwarding to %a for %a" Addr.pp
          mobile Addr.pp new_regional Time.pp grace
    end

(* A control message in the [len] bytes at [off] of a received packet's
   buffer: the UDP data of a datagram to [Control.port]. *)
let handle_control t v ~off ~len =
  let buf = View.buffer v in
  let src = View.src v in
  match Control.decode_at buf ~off ~len with
  | None -> ()
  | Some msg
    when t.config.Config.authenticate
         && not
              (authorize t ~mobile:(Control.mobile msg) ~src
                 ~wire:(Bytes.sub buf off len) ~canonical:(Control.encode msg)
                 ~kind:"auth-fail") -> ()
  | Some msg ->
      if tracing t then tracef t "ctrl-rx" "%a" Control.pp msg;
      match msg with
      | Control.Reg_request { mobile; foreign_agent } ->
        (match t.ha with
         | Some ha -> ha_handle_registration t ha ~mobile ~foreign_agent
         | None -> ())
      | Control.Reg_reply { mobile; accepted } ->
        mh_handle_reg_reply t ~mobile ~accepted
      | Control.Fa_connect { mobile; mac } ->
        fa_handle_connect t ~mobile ~mac
      | Control.Fa_connect_ack { mobile } -> mh_handle_connect_ack t ~mobile
      | Control.Fa_disconnect { mobile; new_foreign_agent } ->
        fa_handle_disconnect t ~mobile ~new_foreign_agent
      | Control.Ha_sync { mobile; foreign_agent } ->
        (* replica synchronisation: apply without re-propagating; under a
           reliable control plane, confirm so the originator can stop
           retransmitting *)
        register_mobile t ~mobile ~foreign_agent;
        if t.config.Config.reliable_control then
          send_control t ~dst:src (Control.Ha_sync_ack { mobile })
      | Control.Ha_sync_ack { mobile } ->
        (match List.find_opt (fun m -> Addr.equal m.peer src) t.replicas with
         | Some m -> sync_acked m ~mobile
         | None -> ())
      | Control.Fa_connect_ack_r { mobile; regional; backup } ->
        mh_handle_connect_ack_r t ~mobile ~regional ~backup
      | Control.Reg_region { mobile; foreign_agent; lifetime_s } ->
        regional_handle_registration t ~mobile ~foreign_agent ~lifetime_s
      | Control.Reg_region_ack { mobile } ->
        mh_handle_reg_region_ack t ~mobile
      | Control.Fa_visitor_miss { mobile; foreign_agent } ->
        regional_handle_visitor_miss t ~mobile ~foreign_agent
      | Control.Region_sync { mobile; foreign_agent; lifetime_s } ->
        regional_handle_sync t ~src ~mobile ~foreign_agent ~lifetime_s
      | Control.Region_sync_ack { mobile } ->
        regional_handle_sync_ack t ~src ~mobile
      | Control.Region_forward { mobile; new_regional } ->
        regional_handle_forward t ~mobile ~new_regional

(* --- ICMP handling --- *)

(* Only a mobile host heeds an advertisement ([mh_handle_advert]), so
   everyone else skips it on its type byte: a solicitation draws
   advertisements to every station on the LAN.  The rest is decoded
   from the received bytes, and a record is built only for an echo
   reply handed to [app_tap]. *)
let handle_icmp t v =
  let buf = View.buffer v in
  let off = View.payload_offset v in
  let len = View.payload_length v in
  match t.mh with
  | None when len > 0
           && Bytes.get_uint8 buf off = Ipv4.Icmp.agent_advertisement_type ->
    ()
  | _ ->
    match Ipv4.Icmp.decode_at buf ~off ~len with
    | None -> () (* unknown type: silently discard (RFC 1122) *)
    | Some msg ->
      match msg with
      | Ipv4.Icmp.Location_update { mobile; foreign_agent } ->
        t.counters.Counters.updates_received <-
          t.counters.Counters.updates_received + 1;
        if
          update_authentic t buf ~off ~len ~src:(View.src v) ~mobile
            ~foreign_agent
        then begin
          if tracing t then
            tracef t "loc-update-rx" "%a at %a" Addr.pp mobile Addr.pp
              foreign_agent;
          cache_update t ~mobile ~foreign_agent;
          fa_recovery_check t ~mobile ~foreign_agent;
          t.update_tap ~mobile ~foreign_agent
        end
      | Ipv4.Icmp.Echo_request { ident; seq; data } ->
        let reply = Ipv4.Icmp.Echo_reply { ident; seq; data } in
        send t
          (Packet.make ~id:(View.id v) ~proto:Ipv4.Proto.icmp
             ~src:(address t) ~dst:(View.src v)
             (Ipv4.Icmp.encode reply))
      | Ipv4.Icmp.Echo_reply _ -> t.app_tap v
      | Ipv4.Icmp.Dest_unreachable { original; _ }
      | Ipv4.Icmp.Time_exceeded { original; _ }
      | Ipv4.Icmp.Redirect { original; _ } ->
        handle_icmp_error t msg original
      | Ipv4.Icmp.Agent_advertisement { agent; home; foreign } ->
        mh_handle_advert t ~agent ~home ~foreign
      | Ipv4.Icmp.Agent_solicitation ->
        if t.ha <> None || t.fa <> None then broadcast_advert t

(* --- local-delivery dispatch --- *)

(* Packets can be delivered to this node either because they are addressed
   to it or because a hook intercepted them for a mobile host; route the
   latter to home-agent processing whatever their protocol. *)
let dispatch t handler v =
  let dst = View.dst v in
  if Node.has_address t.node dst || Addr.equal dst Addr.broadcast then
    handler t v
  else if ha_claims t dst then ha_intercept t v
  else handler t v

(* Length and checksum are checked once, in place; only a datagram for
   the application is decoded. *)
let handle_udp t v =
  let buf = View.buffer v in
  let off = View.payload_offset v in
  let n = Ipv4.Udp.length_at buf ~off ~len:(View.payload_length v) in
  if n >= 0 then
    if Ipv4.Udp.dst_port_at buf ~off = Control.port then
      handle_control t v ~off:(off + Ipv4.Udp.header_length)
        ~len:(n - Ipv4.Udp.header_length)
    else t.app_tap v

(* --- forwarding hook (router cache agents, Sections 4.3, 6.2) --- *)

(* An ICMP location update in transit, told from its type byte without
   decoding the packet. *)
let is_location_update v =
  View.proto v = Ipv4.Proto.icmp
  && View.payload_length v > 0
  && Bytes.get_uint8 (View.buffer v) (View.payload_offset v)
     = Ipv4.Icmp.location_update_type

(* Decided from the header, and nothing is decoded: an intercept or a
   cache hit builds its tunnel from the view, a snooped location update
   is read in place, and a miss forwards the received buffer untouched
   (Section 7: routers between tunnel endpoints forward packets
   unmodified). *)
let rewrite_forward t v =
  let dst = View.dst v in
  if ha_claims t dst then begin
    if View.proto v = Ipv4.Proto.mhrp then handle_mhrp t v
    else ha_intercept t v;
    Node.Consume
  end
  else if t.snoop then begin
    (* Examine forwarded packets: cache location updates in transit and
       tunnel for destinations we have cached (Section 4.3: routers should
       make this a configuration option — it is ours). *)
    (if is_location_update v then
       let buf = View.buffer v in
       let off = View.payload_offset v in
       let len = View.payload_length v in
       match Ipv4.Icmp.decode_at buf ~off ~len with
       | Some (Ipv4.Icmp.Location_update { mobile; foreign_agent }) ->
         if
           update_authentic t buf ~off ~len ~src:(View.src v) ~mobile
             ~foreign_agent
         then cache_update t ~mobile ~foreign_agent
       | Some _ | None -> ());
    if View.proto v <> Ipv4.Proto.mhrp && t.cache_agent then
      match Location_cache.find t.cache dst with
      | Some fa when not (Node.has_address t.node fa) ->
        t.counters.Counters.tunnels_built <-
          t.counters.Counters.tunnels_built + 1;
        if tracing t then
          tracef t "tunnel" "forwarding cache hit for %a via %a" Addr.pp dst
            Addr.pp fa;
        Node.Replace
          (Encap.tunnel_by_agent_into ~agent:(address t) ~foreign_agent:fa v)
      | Some _ | None -> Node.Forward
    else Node.Forward
  end
  else Node.Forward

(* --- construction --- *)

let create ?(config = Config.default) ?(cache_agent = true)
    ?(snoop = false) node =
  let t =
    { node; config;
      counters = Counters.create ();
      cache = Location_cache.create ~capacity:config.Config.cache_capacity;
      (* 64 recent update destinations, LRU (Section 4.3) *)
      limiter =
        Rate_limiter.create ~capacity:64
          ~min_interval:config.Config.update_min_interval;
      (* at most 2 s of clock skew; nonce tables start at 64 entries *)
      sa = Auth.Sa_table.create ~window:(Time.of_sec 2.0) ~capacity:64;
      auth_nonce = 0;
      cache_agent; snoop;
      ha = None; replicas = []; fa = None; mh = None;
      regional = None; regional_parent = None;
      regional_backup_parent = None; region_mirror = None;
      region_peer_captured = false;
      fa_miss_probes = Hashtbl.create 4; regional_sweep_timer = false;
      app_tap = (fun _ -> ());
      update_tap = (fun ~mobile:_ ~foreign_agent:_ -> ());
      registered_tap = (fun _ -> ());
      icmp_error_tap = (fun _ _ -> ());
      advert_timer = false }
  in
  (* every MHRP packet, addressed or intercepted, is a tunnel exit *)
  Node.set_proto_handler node Ipv4.Proto.mhrp (fun _ v -> handle_mhrp t v);
  Node.set_proto_handler node Ipv4.Proto.icmp (fun _ v ->
      dispatch t handle_icmp v);
  Node.set_proto_handler node Ipv4.Proto.udp (fun _ v ->
      dispatch t handle_udp v);
  Node.set_proto_handler node Ipv4.Proto.tcp (fun _ v ->
      dispatch t (fun t v -> t.app_tap v) v);
  Node.set_accept_ip node (fun _ dst -> claims t dst);
  Node.set_arp_proxy node (fun addr -> claims t addr);
  Node.set_rewrite_forward node (fun _ v -> rewrite_forward t v);
  Node.on_reboot node (fun _ ->
      (match t.fa with Some (fa_state, _) -> Foreign_agent.clear fa_state
                     | None -> ());
      (match t.ha with Some ha -> Home_agent.reboot ha | None -> ());
      (* regional bindings are soft state, lost like visitor lists *)
      (match t.regional with Some r -> Regional.clear r | None -> ());
      t.region_peer_captured <- false;
      (* and so is every binding mirror still being retried *)
      (match t.region_mirror with
       | Some m -> Hashtbl.iter (fun _ x -> Exchange.ack x) m.syncs
       | None -> ());
      Hashtbl.reset t.fa_miss_probes;
      Location_cache.clear t.cache;
      (* A mirrored regional agent reclaims its own address: the peer
         may have captured it with gratuitous ARP while this node was
         down (the same burst, in reverse, repairs neighbour caches) *)
      (match t.regional, t.region_mirror with
       | Some _, Some _ ->
         List.iter
           (fun (i, _, addr) ->
              match addr with
              | Some a -> garp_burst t ~iface:i a
              | None -> ())
           (Node.ifaces t.node)
       | _ -> ()));
  t

let enable_home_agent ?(replicas = []) t =
  if t.ha = None then begin
    t.ha <-
      Some (Home_agent.create ~persistent:t.config.Config.ha_persistent ());
    start_advert_timer t
  end;
  if replicas <> [] then t.replicas <- List.map mirror_to replicas

let enable_foreign_agent t ~iface =
  (match t.fa with
   | None -> t.fa <- Some (Foreign_agent.create (), iface)
   | Some (state, _) -> t.fa <- Some (state, iface));
  start_advert_timer t

let enable_regional_agent ?backup t =
  if t.regional = None then t.regional <- Some (Regional.create ());
  (match backup with
   | Some peer -> t.region_mirror <- Some (mirror_to peer)
   | None -> ());
  (* Soft-state sweep: evict bindings whose lifetime ran out unrefreshed.
     Swept at a quarter lifetime so an expired binding lingers at most
     25% past its advertised lifetime; armed only when lifetimes are in
     play, so pre-failover configurations run a timer-free table. *)
  if t.config.Config.hierarchy
     && Time.to_us t.config.Config.regional_lifetime > 0
     && not t.regional_sweep_timer
  then begin
    t.regional_sweep_timer <- true;
    let interval =
      Time.of_us (max 1 (Time.to_us t.config.Config.regional_lifetime / 4))
    in
    Engine.every (engine t) ~interval (fun () ->
        if Node.is_up t.node then
          match t.regional with
          | Some r ->
            List.iter
              (fun (mobile, fa) ->
                 t.counters.Counters.regional_expirations <-
                   t.counters.Counters.regional_expirations + 1;
                 if tracing t then
                   tracef t "regional" "%a expired (was at %a)" Addr.pp
                     mobile Addr.pp fa)
              (Regional.expire r ~now:(now t))
          | None -> ())
  end

let set_regional_parent ?backup t regional =
  t.regional_parent <- Some regional;
  t.regional_backup_parent <- backup

let add_mobile t mobile =
  match t.ha with
  | None -> failwith "Agent.add_mobile: not a home agent"
  | Some ha -> Home_agent.add_mobile ha mobile

let make_mobile t ~home_agent =
  let home = address t in
  Node.add_address t.node home;
  (* keep answering to the home address across moves *)
  let mh = Mobile_host.create ~home ~home_agent in
  mh.Mobile_host.last_advert <- now t;
  t.mh <- Some mh;
  (* Implicit-disconnection watchdog (Section 3): a host carried out of
     range hears no more advertisements from its agent; when the lifetime
     lapses it starts searching for a new one. *)
  let lifetime = t.config.Config.advert_lifetime in
  let check_interval =
    Time.of_us (max 1 (Time.to_us lifetime / 3))
  in
  Engine.every (engine t) ~interval:check_interval (fun () ->
      if Node.is_up t.node then
        match t.mh with
        | Some mh ->
          (match mh.Mobile_host.phase with
           | Mobile_host.Registered _ | Mobile_host.At_home ->
             if
               Time.(
                 diff (now t) mh.Mobile_host.last_advert > lifetime)
             then begin
               mh.Mobile_host.implicit_disconnects <-
                 mh.Mobile_host.implicit_disconnects + 1;
               (match Mobile_host.current_fa mh with
                | Some fa -> mh.Mobile_host.old_fa <- Some fa
                | None -> ());
               mh.Mobile_host.phase <- Mobile_host.Searching;
               if tracing t then
                 tracef t "discovery"
                   "agent advertisements expired: searching";
               solicit t
             end
           | Mobile_host.Searching | Mobile_host.Registering _
           | Mobile_host.Disconnected -> ())
        | None -> ());
  (* Regional soft-state refresh ([Config.regional_lifetime]): re-send
     the binding at a fraction of its lifetime so it never expires while
     the host is alive.  The refresh doubles as a liveness probe — under
     a reliable control plane an unacked exchange is left to its
     retransmission loop (whose exhaustion triggers failover) rather
     than being superseded by the next refresh, which would reset the
     loop forever and mask the dead agent. *)
  if t.config.Config.hierarchy
     && (Time.to_us t.config.Config.regional_refresh > 0
         || Time.to_us t.config.Config.regional_lifetime > 0)
  then
    Engine.every (engine t) ~interval:(regional_refresh_interval t)
      (fun () ->
         if Node.is_up t.node then
           match t.mh with
           | Some mh -> begin
               match mh.Mobile_host.regional, mh.Mobile_host.phase with
               | Some regional, Mobile_host.Registered fa
                 when (not (Addr.is_zero fa))
                   && ((not t.config.Config.reliable_control)
                       || not (Exchange.pending mh.Mobile_host.region_reg))
                 ->
                 register_with_region t mh ~regional ~foreign_agent:fa
               | None, Mobile_host.Registered fa
                 when (not (Addr.is_zero fa))
                   && Exchange.pending mh.Mobile_host.home_reg ->
                 (* Post-failover direct registration that the home agent
                    never confirmed — the whole region may have been
                    unreachable while its transit router was down.  Keep
                    re-sending at the refresh cadence (each attempt
                    supersedes the previous retry loop) until the home
                    agent answers, or delivery is never restored. *)
                 register_with_home_agent t mh ~foreign_agent:fa
               | _ -> ()
             end
           | None -> ())

(* --- movement (Section 3) --- *)

let leave_own_fa_mode t mh =
  match mh.Mobile_host.own_fa_temp with
  | None -> ()
  | Some temp ->
    Node.remove_address t.node temp;
    (match t.fa with
     | Some (fa_state, _) ->
       Foreign_agent.remove fa_state mh.Mobile_host.home
     | None -> ());
    mh.Mobile_host.own_fa_temp <- None

let move_to ~topo ?own_fa_temp t lan =
  match t.mh with
  | None -> invalid_arg "Agent.move_to: not a mobile host"
  | Some mh ->
    mh.Mobile_host.moves <- mh.Mobile_host.moves + 1;
    Exchange.ack mh.Mobile_host.connect;
    (match Mobile_host.current_fa mh with
     | Some fa when not (Addr.is_zero fa) -> mh.Mobile_host.old_fa <- Some fa
     | _ -> ());
    leave_own_fa_mode t mh;
    Net.Topology.move_host topo t.node lan;
    Node.set_routes t.node Net.Route.empty;
    match own_fa_temp with
    | None ->
      mh.Mobile_host.phase <- Mobile_host.Searching;
      if tracing t then tracef t "move" "to %s, soliciting" (Net.Lan.name lan);
      solicit t
    | Some temp ->
      (* Serve as own foreign agent at a temporary address (Section 2).
         Obtaining the address and gateway is outside the protocol; we
         model the result: the address is configured and a default route
         via an existing router on the LAN is known. *)
      if not (Ipv4.Addr.Prefix.mem temp (Net.Lan.prefix lan)) then
        invalid_arg "Agent.move_to: temporary address not in LAN prefix";
      Node.add_address t.node temp;
      mh.Mobile_host.own_fa_temp <- Some temp;
      let i, _ = current_iface t in
      enable_foreign_agent t ~iface:i;
      (match t.fa with
       | Some (fa_state, _) ->
         Foreign_agent.add fa_state
           { Foreign_agent.mobile = mh.Mobile_host.home;
             mac = Some (Node.iface_mac t.node i); iface = i }
       | None -> ());
      let gateway =
        List.find_map
          (fun n ->
             if Node.is_router n && not (Node.name n = Node.name t.node)
             then
               List.find_map
                 (fun (_, l, addr) -> if l == lan then addr else None)
                 (Node.ifaces n)
             else None)
          (Net.Topology.nodes topo)
      in
      (match gateway with
       | None -> invalid_arg "Agent.move_to: no router on target LAN"
       | Some gw -> set_attached_routes t i lan ~gateway:gw);
      mh.Mobile_host.phase <- Mobile_host.Registering temp;
      if tracing t then
        tracef t "move" "to %s as own fa %a" (Net.Lan.name lan) Addr.pp temp;
      withdraw_regional t mh;
      register_with_home_agent t mh ~foreign_agent:temp;
      complete_registration t mh ~foreign_agent:temp

let disconnect t =
  match t.mh with
  | None -> invalid_arg "Agent.disconnect: not a mobile host"
  | Some mh ->
    if tracing t then tracef t "move" "explicit disconnect";
    Exchange.ack mh.Mobile_host.connect;
    (match Mobile_host.current_fa mh with
     | Some fa when not (Addr.is_zero fa) -> mh.Mobile_host.old_fa <- Some fa
     | _ -> ());
    leave_own_fa_mode t mh;
    withdraw_regional t mh;
    (* Home agent first, then the old foreign agent (Section 3). *)
    register_with_home_agent t mh ~foreign_agent:disconnected_marker;
    notify_old_fa t mh ~new_foreign_agent:Addr.zero;
    mh.Mobile_host.phase <- Mobile_host.Disconnected
