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

type tcp_rx = src:Ipv4.Addr.t -> Ipv4.Tcp_lite.t -> unit
type udp_rx = src:Ipv4.Addr.t -> Ipv4.Udp.t -> unit

val register_conn :
  t -> local_port:int -> remote:Ipv4.Addr.t -> remote_port:int -> tcp_rx ->
  unit
(** Raises [Invalid_argument] if the 4-tuple is taken. *)

val unregister_conn :
  t -> local_port:int -> remote:Ipv4.Addr.t -> remote_port:int -> unit

val register_listener : t -> port:int -> tcp_rx -> unit
val unregister_listener : t -> port:int -> unit
val register_udp : t -> port:int -> udp_rx -> unit

val fresh_iss : t -> int
val fresh_ephemeral_port : t -> int

val transmit_tcp : t -> dst:Ipv4.Addr.t -> Ipv4.Tcp_lite.t -> unit
(** Encode, wrap in a fresh-ID IP packet and hand to
    {!Mhrp.Agent.send} (mobility-transparent: tunneled when needed). *)

val transmit_udp :
  t -> ?id:int -> ?tap:(Ipv4.Packet.t -> unit) -> dst:Ipv4.Addr.t ->
  Ipv4.Udp.t -> unit
(** [id] overrides the stack's IP-id counter (workload generators keep
    their own tracked id sequences); [tap] sees the application-level
    packet just before it is sent. *)

val send_rst_for : t -> src:Ipv4.Addr.t -> Ipv4.Tcp_lite.t -> unit
(** Reset whatever connection the peer thinks [seg] belongs to (never
    sent in response to a reset). *)
