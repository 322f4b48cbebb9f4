(* The agent record and what every role uses: origination and control
   sends, acknowledged exchanges and the binding mirrors,
   authentication, location updates and the location cache, the
   Section 4.4 re-tunnel, and agent discovery.  Every agent is a cache
   agent, so the cache role lives here too. *)

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

(* Each role's state, created when the role is enabled. *)
type home = { db : Home_agent.t; mutable replicas : mirror list }

type visited = {
  visitors : Foreign_agent.t;
  mutable serving : int;  (* the interface visitors attach through *)
  mutable parent : Addr.t option;  (* the regional agent above us *)
  mutable backup_parent : Addr.t option;
      (* its standby, advertised at connect time *)
  probes : (int, unit) Hashtbl.t;
      (* packed mobile -> visitor-miss ARP probe in flight *)
}

type region = {
  bindings : Regional.t;
  mutable mirror : mirror option;  (* the backup binding writes go to *)
  mutable peer_captured : bool;
      (* we captured an unresponsive peer's address *)
}

type t = {
  node : Node.t;
  config : Config.t;
  counters : Counters.t;
  cache : Location_cache.t;
  limiter : Rate_limiter.t;
  sa : Auth.Sa_table.t;
  mutable auth_nonce : int;
  snoop : bool;
  mutable ha : home option;
  mutable fa : visited option;
  mutable mh : Mobile_host.t option;
  mutable regional : region option;  (* Config.hierarchy *)
  mutable app_tap : View.t -> unit;
  mutable update_tap : mobile:Addr.t -> foreign_agent:Addr.t -> unit;
  mutable registered_tap : Addr.t -> unit;
  mutable icmp_error_tap : Ipv4.Icmp.t -> Packet.t option -> unit;
  mutable advert_timer : bool;
}

let node t = t.node
let counters t = t.counters
let cache t = t.cache
let limiter t = t.limiter
let address t = Node.primary_addr t.node

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
  | Some ha -> Home_agent.location ha.db mobile
  | None -> None

(* A regional agent that captured its crashed mirror peer's address
   answers for it until the peer is heard from again. *)
let region_peer_claims t dst =
  match t.regional with
  | Some { peer_captured = true; mirror = Some m; _ } -> Addr.equal m.peer dst
  | Some _ | None -> false

(* Should this node capture packets addressed to [dst]?  Yes while the
   mobile host it serves as home agent is away or explicitly
   disconnected, and for a captured peer.  Asked of every forwarded
   packet, so it must not allocate. *)
let claims t dst =
  (match t.ha with Some ha -> Home_agent.is_away ha.db dst | None -> false)
  || region_peer_claims t dst

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

(* An ICMP message and its extension, one checksum over both, under the
   tunnel decision [fa]. *)
let icmp_wire ~id ~src ~dst msg ext fa =
  let len = Ipv4.Icmp.length msg + ext_length ext in
  let wire = originate_from ~id ~proto:Ipv4.Proto.icmp ~src ~dst ~len fa in
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

(* --- location updates and the location cache (Section 4.3) --- *)

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
      Node.send_wire t.node
        (icmp_wire ~id:0 ~src:(address t) ~dst msg ext None)
    end

(* A location update to each of [dsts]; [send_location_update] skips
   this node's own addresses.  Top-level, so a delivered tunnel builds
   no closure. *)
let rec send_updates t dsts ~mobile ~foreign_agent =
  match dsts with
  | [] -> ()
  | dst :: rest ->
    send_location_update t ~dst ~mobile ~foreign_agent;
    send_updates t rest ~mobile ~foreign_agent

let cache_update t ~mobile ~foreign_agent =
  if not (Node.has_address t.node mobile) then begin
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

(* {!send} of an ICMP message, written once. *)
let send_icmp t ~id ~dst msg =
  let fa = sender_tunnel t dst in
  send_originated t fa (icmp_wire ~id ~src:(address t) ~dst msg None fa)

let send_ping t ?(id = 0) ~dst () =
  send_icmp t ~id ~dst
    (Ipv4.Icmp.Echo_request
       { ident = id; seq = 0; data = Bytes.make 16 '\000' })

(* Host unreachable, for a disconnected host's traffic. *)
let send_unreachable t (offending : Packet.t) =
  if not (Node.has_address t.node offending.Packet.src) then begin
    let encoded = Packet.encode offending in
    let n =
      min (Bytes.length encoded) (Packet.header_length offending + 8)
    in
    Node.send_wire t.node
      (icmp_wire ~id:0 ~src:(address t) ~dst:offending.Packet.src
         (Ipv4.Icmp.host_unreachable ~original:(Bytes.sub encoded 0 n))
         None None)
  end

(* --- the Section 4.4 re-tunnel ---

   Every tunnel is built from the bytes in hand ({!Encap}'s wire
   builders): the received view at a tunnel exit or re-tunnel, whose
   MHRP header [handle_mhrp] decoded in place.  The transport payload
   is copied once per operation, and no packet record is built except
   on the rare branches that hand one to a record consumer. *)

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
     | Some r -> Regional.withdraw r.bindings mobile
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
  match Location_cache.find t.cache mobile with
  | Some fa when not (Node.has_address t.node fa) ->
    do_retunnel t v header ~mobile ~new_dst:fa ~report_fa:(Some fa)
  | Some _ | None ->
    do_retunnel t v header ~mobile ~new_dst:mobile ~report_fa:None

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
      (icmp_wire ~id:0 ~src:agent ~dst:Addr.broadcast
         (Ipv4.Icmp.Agent_advertisement { agent; home; foreign })
         None None);
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
      (icmp_wire ~id:0 ~src:(address t) ~dst:Addr.broadcast
         Ipv4.Icmp.Agent_solicitation None None);
    solicit_on t rest

let solicit t = solicit_on t (Node.ifaces t.node)

let start_advert_timer t =
  if not t.advert_timer then begin
    t.advert_timer <- true;
    Engine.every (engine t) ~interval:t.config.Config.advert_interval
      (fun () -> if Node.is_up t.node then broadcast_advert t)
  end
