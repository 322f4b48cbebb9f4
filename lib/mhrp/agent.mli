(** The MHRP protocol engine: one instance per participating node.

    An agent composes the paper's roles on a single node — any combination
    of home agent, foreign agent, mobile host and cache agent (Section 2:
    "may be combined in different ways on one or more hosts or routers") —
    and installs the IP-stack hooks that realise them:

    - the MHRP protocol handler (tunneled-packet processing, Section 4.4);
    - the ICMP handler (location updates Section 4.3, returned errors
      Section 4.5, agent discovery Section 3);
    - the control-message handler (registrations, Section 3);
    - interception hooks and proxy ARP for home agents (Section 2);
    - forwarding hooks for router cache agents (Sections 4.3, 6.2).

    Every node that "implements MHRP" — including plain correspondent
    hosts that merely want to cache mobile locations — is an [Agent];
    hosts without one ignore location updates exactly as the paper's
    backward-compatibility argument requires.

    Each role's state is created when the role is enabled, and its
    handlers live in one module of the library: [Home_role],
    [Foreign_role], [Regional_role] and [Mobile_role]; [Agent_core] holds
    what every role uses (origination, control sends and mirrors,
    authentication, location updates and the cache, the re-tunnel,
    discovery).  This module builds the agent and dispatches received
    packets to the roles. *)

type t

val create : ?config:Config.t -> ?snoop:bool -> Net.Node.t -> t
(** A cache agent: it maintains and uses a location cache.  [snoop]
    (default false): as a router, examine forwarded packets for location
    updates and cacheable destinations — the configuration option of
    Section 4.3. *)

val node : t -> Net.Node.t
val counters : t -> Counters.t
val cache : t -> Location_cache.t
val limiter : t -> Rate_limiter.t
val address : t -> Ipv4.Addr.t

(** {1 Roles} *)

val enable_home_agent : ?replicas:Ipv4.Addr.t list -> t -> unit
(** Serve as a home agent.  [replicas] names the other home agents of a
    replicated group by their {!address}es (Section 2: replicas "must
    cooperate to provide a consistent view of the database"), replacing
    any named before: every
    registration this agent accepts is mirrored to each
    ([Control.Ha_sync], retransmitted under [Config.reliable_control]
    until that replica's [Ha_sync_ack], resends counted in
    [Counters.sync_retransmissions]).  A replica applies a sync without
    mirroring it on, so each group member names the others; with
    several members on the home LAN, whichever is up answers proxy ARP
    for a departed host and intercepts its traffic. *)

val enable_foreign_agent : t -> iface:int -> unit
(** Serve visiting mobile hosts on the LAN of this interface. *)

val home_agent : t -> Home_agent.t option
val foreign_agent : t -> Foreign_agent.t option

val enable_regional_agent : ?backup:Ipv4.Addr.t -> t -> unit
(** Serve as the regional agent of a hierarchy ([Config.hierarchy]):
    maintain the region's mobile->foreign-agent binding table and
    re-tunnel arriving packets through it.  The home agent registers
    visiting hosts at this agent's address; intra-region handoffs only
    rewrite bindings here.  With a positive [Config.regional_lifetime], a
    periodic sweep evicts bindings whose soft-state lifetime ran out
    unrefreshed.  [backup] names a standby regional agent to mirror every
    binding write to ([Control.Region_sync], retransmitted under
    [Config.reliable_control]) so it can take the region over on a
    crash. *)

val set_regional_parent : ?backup:Ipv4.Addr.t -> t -> Ipv4.Addr.t -> unit
(** Foreign-agent role under hierarchy: the regional agent this foreign
    agent belongs to, handed to mobile hosts at connect time
    ([Control.Fa_connect_ack_r]) along with the region's standby agent
    [backup] when one is provisioned — the failover target mobiles use
    when the primary stops acknowledging.  Provisioning the tree is
    outside the protocol, like agent addresses themselves.  Raises
    [Invalid_argument] before {!enable_foreign_agent}. *)

val regional_agent : t -> Regional.t option

val add_mobile : t -> Ipv4.Addr.t -> unit
(** Home-agent role: begin serving this (initially at-home) mobile host.
    Raises [Failure] without the role. *)

val make_mobile : t -> home_agent:Ipv4.Addr.t -> unit
(** This node is a mobile host with the given home agent.  Its home
    address (the node's primary address) is kept claimed across moves. *)

val mobile : t -> Mobile_host.t option

(** {1 Mobile-host movement (Section 3)} *)

val move_to :
  topo:Net.Topology.t -> ?own_fa_temp:Ipv4.Addr.t -> t -> Net.Lan.t -> unit
(** Carry the host to another network: detach, attach, solicit agents, and
    register through whatever agent answers (recognising the home agent
    when the destination is the home network).  With [own_fa_temp], skip
    agent discovery and serve as own foreign agent at that temporary
    address (Section 2).  Notification order follows Section 3: new
    foreign agent, then home agent, then old foreign agent. *)

val disconnect : t -> unit
(** Planned disconnection: notify the home agent, then the old foreign
    agent (Section 3).  The home agent records the host as disconnected —
    we register the all-ones address, a value the paper leaves open — and
    answers subsequent traffic with host-unreachable errors. *)

(** {1 Data path} *)

val send : t -> Ipv4.Packet.t -> unit
(** Cache-aware send: tunnel straight to the foreign agent on a cache hit
    (Section 6.2), or authoritatively from the home-agent database;
    otherwise plain IP. *)

val sender_tunnel : t -> Ipv4.Addr.t -> Ipv4.Addr.t option
(** The tunnel decision {!send} makes for a packet this node originates
    to a destination: the foreign agent to tunnel it to — authoritatively
    when this node is the destination's home agent, else on a
    location-cache hit (which counts as the cache's hit) — or [None] for
    plain IP.  The first step of a wire-level send: {!sender_tunnel},
    then {!originate}, then {!send_originated} with the same decision. *)

val originate :
  t -> id:int -> proto:Ipv4.Proto.t -> dst:Ipv4.Addr.t -> len:int ->
  Ipv4.Addr.t option -> bytes
(** [originate t ~id ~proto ~dst ~len fa] is the buffer of a packet from
    this node's address to [dst] with a [len]-byte payload, sized for the
    tunnel decision [fa]: plain IP ({!Ipv4.Packet.encode_header}) for
    [None], a sender-built tunnel to the foreign agent
    ({!Encap.sender_tunnel_header}) for [Some].  The header is written
    from the fields, with no packet record built; the caller writes the
    payload into the buffer's last [len] bytes with the codec's writer,
    and the packet on the wire is then the one {!send} would send for
    [Packet.make ~id ~proto ~src ~dst payload].  Counts and sends
    nothing. *)

val send_originated : t -> Ipv4.Addr.t option -> bytes -> unit
(** Send an {!originate}d buffer, its payload written, under the same
    tunnel decision: counts [tunnels_built] for a sender-built tunnel.
    A caller whose payload writer raises never gets here, so nothing is
    counted or on the wire.  The transport's segment path
    ({!Transport.Stack.send_segment}). *)

val send_udp :
  t -> ?src_port:int -> ?dst_port:int -> ?id:int -> dst:Ipv4.Addr.t ->
  bytes -> unit
(** {!send} of a UDP datagram, written once: the header and the data go
    straight into the buffer {!originate} sizes, so on a cache hit the
    sender-built tunnel is the only copy of the data. *)

val send_ping : t -> ?id:int -> dst:Ipv4.Addr.t -> unit -> unit

val on_app_receive : t -> (Ipv4.Packet.t -> unit) -> unit
(** Non-control traffic delivered to this node (after any
    decapsulation), decoded. *)

val on_app_receive_view : t -> (Ipv4.Packet.View.t -> unit) -> unit
(** {!on_app_receive} without the decode: the tap gets the received
    packet's view, valid only for the call (DESIGN.md Section 11) — a
    tap that keeps anything copies it out first.  Replaces any tap
    installed either way.  The transport reads segments through it in
    place. *)

val on_location_update :
  t -> (mobile:Ipv4.Addr.t -> foreign_agent:Ipv4.Addr.t -> unit) -> unit

val on_registered : t -> (Ipv4.Addr.t -> unit) -> unit
(** Mobile host: registration completed with the given foreign agent
    (zero = home). *)

val on_icmp_error : t -> (Ipv4.Icmp.t -> Ipv4.Packet.t option -> unit) -> unit
(** An ICMP error reached this node as original sender; the packet is the
    reconstructed offending packet when enough of it was quoted. *)

(** {1 Authentication (RFC 2002-style extension, experiment E15)}

    With [Config.authenticate] on, every control message and location
    update this agent originates carries an authentication extension
    (keyed MAC + timestamp + nonce) signed under the mobile host's
    security association, and every received one is verified {e before}
    any routing state mutates, accepting at most 2 s of clock skew.
    Verification outcomes land in
    [Counters.auth_ok]/[auth_fail]/[replay_drop] and, on rejection, in
    trace kinds ["auth-fail"] (control) and ["forged-update"] (location
    updates).  Messages about mobile hosts without an installed
    association are rejected. *)

val install_key :
  t -> mobile:Ipv4.Addr.t -> spi:int -> key:Auth.Siphash.key -> unit
(** Provision the security association for a mobile host (key
    distribution itself is outside the protocol, as in Mobile IP). *)

(** {1 Internals exposed for tests and experiments} *)

val send_control : t -> dst:Ipv4.Addr.t -> Control.t -> unit
(** Send a control message as a UDP datagram to [Control.port], plain
    IP: the packet buffer is allocated once, and the datagram and
    message are written straight into it.  Counted in
    [Counters.control_messages] and traced as ["ctrl-tx"], as is every
    transmission of an acknowledged message (registrations, connect
    notifications and both mirrors' syncs), which all go out through
    this one sender and one {!Exchange} start. *)

val send_location_update :
  t -> dst:Ipv4.Addr.t -> mobile:Ipv4.Addr.t ->
  foreign_agent:Ipv4.Addr.t -> unit
(** Rate-limited (Section 4.3). *)

val broadcast_advert : t -> unit
