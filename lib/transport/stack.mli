(** Per-node transport stack: TCP/UDP demultiplexing over an MHRP agent.

    One stack per agent.  The stack owns the agent's application-receive
    tap — but claims it {e lazily}, on the first registration that can
    receive (a listener, a connection, a bound datagram port).  A stack
    used only to send datagrams never touches the tap, so metric
    watchers installed with {!Workload.Metrics.watch_receiver} keep
    working unchanged next to send-only traffic generators.

    At most one receiving stack per agent: installing a second replaces
    the first's tap, exactly like any other call to
    {!Mhrp.Agent.on_app_receive}.

    Determinism: all state is per-stack (no globals), IP identification
    and initial sequence numbers come from per-stack counters, and every
    timer runs on the node's {!Netsim.Engine} — a simulation using
    stacks stays bit-identical under [--jobs N]. *)

type t

val create : Mhrp.Agent.t -> t
val agent : t -> Mhrp.Agent.t
val engine : t -> Netsim.Engine.t
val address : t -> Ipv4.Addr.t

val counters : t -> Counters.t
(** Aggregate over every socket and datagram port of this stack. *)

val connections : t -> int
(** Currently-registered TCP connections (any state before close). *)

(** {1 Internals — the plumbing {!Socket} is built on}

    Applications should not call these; use {!Socket}. *)

type tcp_rx = src:Ipv4.Addr.t -> bytes -> off:int -> len:int -> unit
(** A received segment: the [len] bytes at [off], already accepted by
    {!Ipv4.Tcp_lite.valid_at} and read with its [_at] readers.  The
    bytes are the received packet's, valid only for the call: a
    receiver copies out what it keeps. *)

type udp_rx = src:Ipv4.Addr.t -> bytes -> off:int -> len:int -> unit
(** A received datagram, header included: the [len] bytes at [off],
    already accepted by {!Ipv4.Udp.length_at} ([len] is its length
    field).  Valid only for the call, as a segment is. *)

val register_conn :
  t -> local_port:int -> remote:Ipv4.Addr.t -> remote_port:int -> tcp_rx ->
  unit
(** Raises [Invalid_argument] if the 4-tuple is taken. *)

val unregister_conn :
  t -> local_port:int -> remote:Ipv4.Addr.t -> remote_port:int -> unit

val register_listener : t -> port:int -> tcp_rx -> unit
val unregister_listener : t -> port:int -> unit
val register_udp : t -> port:int -> udp_rx -> unit

val handle_view : t -> Ipv4.Packet.View.t -> unit
(** The receive tap the stack installs on its agent: a received packet,
    read in place.  A segment {!Ipv4.Tcp_lite.valid_at} accepts goes to
    the connection on its 4-tuple — found with no allocation — else to
    its port's listener, else is answered with a reset
    ({!send_rst_for}); a datagram {!Ipv4.Udp.length_at} accepts goes to
    its port's receiver, if any.  Anything else is dropped. *)

val fresh_ip_id : t -> int
(** The next IP identification of a packet this stack sends: 1 to
    0xFFFF in turn, wrapping past 0xFFFF to 1 (never 0), one per
    transmission — retransmissions included. *)

val fresh_iss : t -> int
(** The next initial sequence number: 1000, then one 1,000,000 stride
    per connection, wrapping back to 1000 before reaching 2^31 — so
    every stream has at least 2 GiB of the 32-bit sequence space.
    Connections whose sequence spaces overlap are told apart by their
    4-tuple. *)

val fresh_ephemeral_port : t -> remote:Ipv4.Addr.t -> remote_port:int -> int
(** The next of the ports 49152–65535, in turn and wrapping, that holds
    no connection to [remote]:[remote_port]; a port in use to that
    endpoint is skipped.  Raises [Failure] when all 16,384 are. *)

val send_segment :
  t -> dst:Ipv4.Addr.t -> src_port:int -> dst_port:int -> seq:int ->
  ack:int -> flags:int -> window:int -> Send_queue.t -> len:int -> unit
(** One segment carrying the [len] stream bytes from sequence number
    [seq] on, written straight into a fresh-ID IP packet: the buffer is
    {!Mhrp.Agent.originate}d for the agent's tunnel decision
    (mobility-transparent: tunneled when needed), the data gathered
    into it once from the queue's chunks ({!Send_queue.blit}, which
    raises [Invalid_argument] for bytes the queue no longer holds), and
    the header written around it by
    {!Ipv4.Tcp_lite.write}; only then is it counted and sent
    ({!Mhrp.Agent.send_originated}).  Allocates the packet and, for a
    tunnel decided on a location-cache hit, the decision's [Some].
    [flags] is the wire's flag byte.  An out-of-range field raises
    {!Ipv4.Tcp_lite.encode}'s [Invalid_argument] before anything is
    counted or sent. *)

val send_rst_for : t -> src:Ipv4.Addr.t -> bytes -> off:int -> len:int -> unit
(** Reset whatever connection the peer thinks the received segment at
    [off] belongs to (never sent in response to a reset). *)
