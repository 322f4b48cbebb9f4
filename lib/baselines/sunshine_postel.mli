(** The Sunshine-Postel proposal (IEN 135, 1980), the paper's oldest
    comparison point.

    A single {e global database} records each mobile host's current
    forwarder.  Senders query the database, then source-route packets
    through the forwarder (we use the real LSRR option).  When a mobile
    host has moved, the old forwarder answers new packets with ICMP host
    unreachable; the sender must re-query the database and retransmit.

    The MHRP paper's critique (Section 7): the global database limits
    scalability — every sender's cold start and every staleness event is a
    round trip to one central service, whose state grows with the world's
    mobile-host population. *)

type t
type forwarder

val create : Net.Topology.t -> db_node:Net.Node.t -> t
(** [db_node] hosts the global registry. *)

val add_forwarder : t -> Net.Node.t -> lan:Net.Lan.t -> forwarder

val make_mobile : t -> Net.Node.t -> unit

val move : t -> Net.Node.t -> forwarder:forwarder -> Net.Lan.t -> unit
(** Link-level move plus registration of the new forwarder in the global
    database (and removal from the old forwarder's visitor list). *)

val send : t -> src:Net.Node.t -> Ipv4.Packet.t -> unit
(** Query-then-source-route data path with local forwarder caching and
    unreachable-triggered re-query and retransmission. *)

val control_messages : t -> int
(** Registrations, queries and answers. *)

val db_lookups : t -> int
val db_state_bytes : t -> int
