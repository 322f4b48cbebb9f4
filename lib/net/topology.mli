(** Container wiring an engine, LANs and nodes into an internetwork.

    Provides the builder vocabulary the experiments use ("add a backbone,
    three campus networks and a wireless cell, compute routes"), plus the
    link-level half of host movement: detaching a mobile host's interface
    from one LAN and attaching it to another.  Protocol-level movement
    (agent discovery, registration) lives in the MHRP library. *)

type t

val create : ?seed:int -> ?icmp_quote:Node.icmp_quote -> unit -> t
(** [icmp_quote] (default [Quote_full]) is applied to every node created
    through this topology: how much of an offending packet its ICMP errors
    quote.  [Quote_full] is what Section 4.5's error reversal needs;
    [Quote_min] exercises the degraded path. *)

val engine : t -> Netsim.Engine.t
val trace : t -> Netsim.Trace.t
val rng : t -> Netsim.Rng.t

val add_lan :
  t -> ?latency:Netsim.Time.t -> ?bandwidth_bps:int -> ?mtu:int ->
  ?prefix_len:int -> net:int -> string -> Lan.t
(** A LAN whose prefix is {!Ipv4.Addr.net_len}[ net prefix_len]
    (default prefix length 24, i.e. {!Ipv4.Addr.net}[ net]).  Pass a
    shorter [prefix_len] — on a base clear of the /24 plan — for
    segments that must address hundreds of stations, like the backbone
    of the 256-campus experiment. *)

val add_router : t -> string -> (Lan.t * int) list -> Node.t
(** [add_router t name [(lan, host_id); ...]] — a router with one
    interface per listed LAN, addressed as host [host_id] of that LAN's
    prefix. *)

val add_host : t -> ?router:bool -> string -> Lan.t -> int -> Node.t
(** A (single-homed) host, addressed as the given host id of the LAN. *)

val node : t -> string -> Node.t
(** Raises [Not_found]. *)

val on_node_added : t -> (Node.t -> unit) -> unit
(** Called for every node added after registration — lets measurement
    taps cover nodes created mid-experiment. *)

val lan : t -> string -> Lan.t
val nodes : t -> Node.t list
val lans : t -> Lan.t list

val registration_ops : t -> int
(** Elementary operations spent registering LANs and nodes so far: one per
    [add_lan]/[add_node] name probe.  Regression tests assert this stays
    linear in the number of registrations (wall-clock budgets are flaky in
    CI; this counter is deterministic). *)

val compute_routes : t -> unit
(** Run {!Routing.compute} over the current topology. *)

val move_host : t -> Node.t -> Lan.t -> unit
(** Link-level move: detach the node's interfaces and attach it to the
    given LAN.  If the node's home address belongs to the LAN's prefix the
    interface is configured with it (the host is home); otherwise the
    interface carries no address, as for a visiting mobile host. *)

val run : ?until:Netsim.Time.t -> t -> unit
val now : t -> Netsim.Time.t

val total_frames : t -> int
val total_bytes : t -> int
