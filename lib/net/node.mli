(** A host or router.

    A node owns interfaces onto {!Lan}s, an ARP cache, a routing table, and
    a protocol stack.  The stack is pluggable through three hook points that
    are exactly the extension points the paper's agents need:

    - {b protocol handlers} — per-IP-protocol local delivery (MHRP
      decapsulation, ICMP location updates, baseline tunnels), handed
      the received packet as a view;
    - {b accept_ip} — claim packets whose destination is not one of this
      node's addresses (a home agent capturing a departed mobile host's
      traffic off its home LAN, Section 2; a foreign agent recognising a
      visiting host's address);
    - {b rewrite_forward} — observe or transform packets being forwarded (a
      cache agent tunneling packets for cached mobile hosts and snooping
      location updates, Sections 4.3 and 6.2).

    The two forwarding hooks see headers, not records: [accept_ip] gets
    the destination address and [rewrite_forward] a
    {!Ipv4.Packet.View.t}, so a router whose hooks decide from the header
    (the common case: a cache miss, a destination nobody claims)
    forwards without decoding the packet.

    Plain IP behaviour — longest-prefix forwarding, TTL decrement with ICMP
    time-exceeded, ICMP destination-unreachable on routing or ARP failure,
    echo replies, RFC 791 loose-source-route processing — lives here, so
    every protocol under test runs over the same substrate. *)

type t

type forward_action =
  | Forward  (** Normal IP forwarding. *)
  | Replace of bytes
      (** Forward this packet instead: its wire encoding, in a buffer
          the hook built (never the view's own) — a tunneling hook
          writes it straight from the view. *)
  | Consume  (** The stack disposed of the packet itself. *)

(** How much of an offending packet ICMP errors quote — Section 4.5 hinges
    on the difference. *)
type icmp_quote = Quote_min  (** IP header + 8 bytes (RFC 792). *)
                | Quote_full  (** The entire packet (RFC 1122 allows). *)

val create :
  engine:Netsim.Engine.t -> mac_alloc:Mac.Alloc.t ->
  ?trace:Netsim.Trace.t -> ?router:bool -> ?icmp_quote:icmp_quote ->
  string -> t
(** [create ~engine ~mac_alloc name].  [router] (default false) enables
    forwarding.  Each packet costs 50µs of processing on a router and
    20µs on a host; packets carrying IP options cost 8 times that — the
    router "slow path" of Section 7.  ARP retries are 500ms apart, and
    resolved entries age out of the cache after 60s (as contemporary BSD
    stacks did), after which a fresh ARP exchange is required — without
    aging, a departed host's stale binding would swallow frames silently
    forever. *)

val name : t -> string
val engine : t -> Netsim.Engine.t
val is_router : t -> bool

val tracing : t -> bool
(** [tracing node] — the node has a trace and it is enabled
    ({!Netsim.Trace.active}).  Allocation-free: every {!tracef} call
    is guarded by it. *)

val tracef :
  t -> string -> ('a, Format.formatter, unit, unit) format4 -> 'a
(** [tracef node kind fmt ...] records one [kind] event in the node's
    trace, rendered from [fmt] only while the trace is enabled; tracing
    never changes the route a packet takes.  An untraced call still
    costs: the format consumes its arguments by building a closure for
    each conversion, at least 5 words per [%s] or [%d] and 10 per [%a].
    So call it as [if tracing node then tracef node kind fmt ...], and
    keep side effects out of the arguments, which an untraced run never
    evaluates.  Apply all three arguments in one call: a partial
    application allocates a closure per call. *)

(** {1 Interfaces and addresses} *)

val attach : t -> ?addr:Ipv4.Addr.t -> Lan.t -> int
(** Attach to a LAN, returning the interface index.  [addr] is the
    interface address; a visiting mobile host attaches without one.
    The interface table keeps only the interfaces since the node's
    oldest active one, and doubles when those fill it, so an attach
    costs the same however often the node has moved. *)

val detach : t -> int -> unit
(** Leave the LAN; the interface index is retired for good, so a stale
    ARP wait or route naming it cannot reach a LAN attached later.  A
    packet still waiting on a retired interface — for an ARP retry, or
    as a {!send_wire_to_mac} or {!broadcast_ip} inside its processing
    delay — is dropped as ["iface-down"].  Packets that joined the same
    ARP wait on a live interface since (the host came back) keep
    waiting, and the retry goes out there. *)

val ifaces : t -> (int * Lan.t * Ipv4.Addr.t option) list
(** The active interfaces, in index order.  Like {!addresses} and
    {!primary_addr}, it returns a list cached at the last {!attach},
    {!detach}, {!add_address} or {!remove_address}, so asking costs
    nothing however often the node has moved. *)

val iface_lan : t -> int -> Lan.t
val iface_mac : t -> int -> Mac.t
val iface_addr : t -> int -> Ipv4.Addr.t option
val iface_to : t -> Ipv4.Addr.Prefix.t -> int option
(** Interface attached to the LAN with this prefix, if any. *)

val addresses : t -> Ipv4.Addr.t list
(** All addresses this node answers to (interface addresses plus extras). *)

val add_address : t -> Ipv4.Addr.t -> unit
(** Claim an extra address — a mobile host keeps answering to its home
    address wherever it is attached. *)

val remove_address : t -> Ipv4.Addr.t -> unit
val has_address : t -> Ipv4.Addr.t -> bool
(** Allocation-free: checked on every received and routed packet. *)

val iface_for_next_hop : t -> Ipv4.Addr.t -> int
(** The first active interface whose LAN prefix covers the address —
    the egress for a gateway route — or [-1] if none does.
    Allocation-free. *)

val primary_addr : t -> Ipv4.Addr.t
(** The node's canonical address (first configured).  Raises [Failure] if
    the node has none. *)

(** {1 Routing} *)

val routes : t -> Route.t
val set_routes : t -> Route.t -> unit
val update_routes : t -> (Route.t -> Route.t) -> unit

(** {1 Stack hooks} *)

val set_proto_handler :
  t -> Ipv4.Proto.t -> (t -> Ipv4.Packet.View.t -> unit) -> unit
(** [set_proto_handler node proto h] hands every packet of protocol
    [proto] that this node delivers locally (addressed to it,
    IP-broadcast, or claimed by [accept_ip]) to [h node v].  [v] covers
    exactly one whole, valid, unfragmented packet, so a handler decodes
    only what it keeps.  The view is read-only: a MAC-broadcast frame's
    buffer is shared by every station on the LAN.  It is valid only for
    the call: a handler that keeps anything must {!Ipv4.Packet.View.decode}
    it.

    Most packets reach the handler with no decode at all: valid,
    option-free, unfragmented, exact-length packets, the view then
    being the received buffer itself.  The rest take the record route
    and reach the handler as a view of their re-encoding: packets with
    options (a completed loose source route), fragments (after
    reassembly) or trailing bytes, packets the node sends to one of its
    own addresses, and packets passed to {!inject_local}.  A live trace
    changes neither route: it only decodes a copy to render the event.
    A packet whose header is invalid is dropped as malformed.
    Without a handler, ICMP gets the built-in echo responder and
    anything else is dropped as ["no-proto-handler"].  Replaces any
    previous handler for [proto]. *)

val set_accept_ip : t -> (t -> Ipv4.Addr.t -> bool) -> unit
(** [f node dst] claims a received packet addressed to [dst], which is
    none of this node's addresses: [true] delivers it to the local
    stack instead of forwarding it.  Replaces any previous claim; the
    default claims nothing. *)

val set_rewrite_forward :
  t -> (t -> Ipv4.Packet.View.t -> forward_action) -> unit
(** [f node v] decides the fate of a packet this router forwards.  [v]
    covers the packet's bytes after the TTL decrement.  It is valid only
    for the duration of the call: the node keeps forwarding the same
    buffer afterwards, so a hook that keeps anything must copy it —
    {!Ipv4.Packet.View.decode} it, or build a new packet from it, as a
    [Replace] does — and must never mutate it.  Read header fields
    from the view and decode only when a record is needed.  Replaces
    any previous hook; the default returns [Forward]. *)

val set_arp_proxy : t -> (Ipv4.Addr.t -> bool) -> unit
(** Answer ARP requests for these addresses with this node's MAC —
    the home agent's proxy ARP (Section 2). *)

val on_reboot : t -> (t -> unit) -> unit
(** Called after a reboot so stacks can drop volatile state (a foreign
    agent forgetting its visitor list, Section 5.2). *)

val on_forward : t -> (t -> Ipv4.Packet.t -> unit) -> unit
(** Metrics tap: every packet this node forwards (including rewritten and
    source-routed ones).  All taps multicast: each registration adds an
    observer (called in registration order) rather than replacing the
    previous one, so workload metrics and invariant checkers can watch
    the same node. *)

val on_transmit : t -> (t -> Ipv4.Packet.t -> unit) -> unit
(** Metrics tap: every unicast IP frame this node puts on a LAN —
    originations, forwards, tunnel re-injections and last-hop deliveries
    alike.  Experiments count per-packet LAN traversals with it. *)

val on_broadcast : t -> (t -> Ipv4.Packet.t -> unit) -> unit
(** Metrics tap: every link-level IP broadcast this node puts on a LAN
    ({!broadcast_ip}: agent advertisements, link-state hellos and LSA
    floods).  Kept separate from {!on_transmit} so hop-count metrics
    over unicast traffic are not polluted by periodic beacons, while
    control-byte accounting can still see every control transmission. *)

val on_drop : t -> (t -> string -> Ipv4.Packet.t -> unit) -> unit

val set_fault_filter : t -> (t -> Ipv4.Packet.t -> bool) option -> unit
(** Fault injection hook, checked on every outgoing IP packet (unicast
    and broadcast, after fragmentation).  A [false] verdict loses the
    packet, counted as a ["fault-loss"] drop.  [None] (the default)
    transmits everything. *)

(** {1 Sending} *)

val send : t -> Ipv4.Packet.t -> unit
(** Route and transmit a locally-originated packet. *)

val forward_now : t -> Ipv4.Packet.t -> unit
(** Route and transmit without TTL decrement or rewrite hooks: used by
    stacks re-injecting a packet they have transformed (tunneling). *)

(** {2 Wire senders}

    Senders over a packet's encoding, which they take over: the caller
    must not touch the buffer again.  The record senders above encode
    once and call {!send_wire} and {!forward_wire}, so the two are
    interchangeable.  A packet whose header carries options (IHL > 5)
    costs the slow-path delay ({!create}) in {!send_wire} and
    {!forward_wire}, as in their record forms.  The bytes must be one
    valid packet: an MHRP agent passes the tunnels it builds on the
    wire ({!Mhrp.Encap}), never received bytes it has not copied. *)

val send_wire : t -> bytes -> unit
val forward_wire : t -> bytes -> unit

val send_wire_to_mac : t -> iface:int -> dst_mac:Mac.t -> bytes -> unit
(** Transmit directly to a known MAC, bypassing routing and ARP — a
    foreign agent delivering over the last hop to a visiting mobile host
    whose link address it learned at registration (Section 2).  Builds
    the frame at once and puts it on the LAN after the processing delay;
    the frame is all it allocates.  An [iface] that
    is not an active interface when the delay ends drops the packet as
    ["iface-down"]. *)

val broadcast_ip : t -> iface:int -> bytes -> unit
(** Link-level broadcast of an encoded IP packet (agent advertisements
    and solicitations, link-state hellos and floods), which it takes
    over like the wire senders; it allocates only the frame.  The fault
    filter and {!on_broadcast} taps see it decoded.  An [iface] that is
    not an active interface when the processing delay ends drops the
    packet as ["iface-down"]. *)

val inject_local : t -> Ipv4.Packet.t -> unit
(** Deliver a packet to this node's own stack as if it had arrived — a
    mobile host acting as its own foreign agent hands itself the
    reconstructed inner packet this way. *)

val gratuitous_arp : t -> iface:int -> Ipv4.Addr.t -> unit
(** Broadcast an ARP reply binding the given IP to this node's MAC on that
    LAN (Section 2's capture/reclaim manoeuvre). *)

val arp_cache_lookup : t -> Ipv4.Addr.t -> Mac.t option
val arp_cache_size : t -> int

val arp_probe : t -> iface:int -> Ipv4.Addr.t -> unit
(** Broadcast an ARP request without queueing a packet behind it,
    dropping any cached entry for the target first so the answer (or
    its absence) reflects the LAN {e now}.  A rebooted foreign agent
    verifies a visiting host's presence this way (Section 5.2); check
    {!arp_cache_lookup} after a round-trip. *)

(** {1 Failure injection} *)

val is_up : t -> bool
val set_up : t -> bool -> unit
(** Going down silently discards traffic; state is retained. *)

val reboot : t -> unit
(** Clear ARP cache and pending queues, run [on_reboot] hooks. *)

val crash_for : t -> Netsim.Time.t -> unit
(** Down now, back up (with [reboot]) after the given delay. *)

(** {1 Counters} *)

val packets_forwarded : t -> int

val packets_fast_forwarded : t -> int
(** The subset of {!packets_forwarded} forwarded without a decode: the
    TTL and checksum rewritten in the received buffer, the
    [rewrite_forward] hook (if any) answering [Forward] from the view,
    and — unless egress needs fragmentation — the received buffer
    reused for the outgoing frame.  Every router takes this path for
    option-free unicast packets, MHRP agents and baseline routers
    included, unless a forward tap needs the record; a live trace does
    not change the count.
    Hops the hook rewrites ([Replace]) or claims ([Consume]) do not
    count; neither does anything that falls back to the decoded
    path, whose wire semantics are identical.  Counted at receive time,
    so a hop whose egress falls back (fragmentation) still counts.  The
    allocation CI lane gates this counter to catch accidental
    de-optimisation. *)

val packets_delivered : t -> int
val packets_originated : t -> int
val packets_dropped : t -> int
