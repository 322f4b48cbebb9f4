(** A broadcast network segment — one of the paper's "networks".

    Each LAN owns an IP prefix (one of the "network numbers" of Section 1)
    and a set of attached stations keyed by MAC address.  Frames are
    delivered after a latency plus serialization delay; a destination MAC of
    {!Mac.broadcast} reaches every station except the sender.  Wireless
    cells (like network D of Figure 1) are LANs whose stations come and go
    as mobile hosts move. *)

type t

type station = Frame.t -> unit
(** Called when a frame addressed to (or broadcast past) this station
    arrives. *)

val create :
  engine:Netsim.Engine.t -> name:string -> ?latency:Netsim.Time.t ->
  ?bandwidth_bps:int -> ?mtu:int -> Ipv4.Addr.Prefix.t -> t
(** Defaults: 500µs latency, 10 Mb/s, 1500-byte MTU. *)

val mtu : t -> int

val id : t -> int
(** Process-unique identity of this LAN instance.  Stable for the LAN's
    lifetime; used as an O(1) hash key by the routing graph builder. *)

val name : t -> string
val prefix : t -> Ipv4.Addr.Prefix.t

val attach : t -> Mac.t -> station -> unit
(** Raises [Invalid_argument] if the MAC is already attached.  Adds the
    MAC to {!stations} in place, copying only the list cells of lower
    MACs. *)

val detach : t -> Mac.t -> unit
(** Removes the MAC from {!stations} the same way; a MAC not attached
    is ignored. *)

(** Register a promiscuous tap: called for every frame the LAN delivers,
    whatever its destination MAC — a NIC in promiscuous mode on a
    broadcast segment.  Monitors observe only; they cannot suppress
    delivery.  Used by the security experiments' eavesdropping
    adversary. *)
val add_monitor : t -> station -> unit
val attached : t -> Mac.t -> bool

val stations : t -> Mac.t list
(** The attached MACs in ascending order — broadcast fan-out order.
    Kept current by {!attach} and {!detach}, so reading it never sorts
    or allocates. *)

val send : t -> Frame.t -> unit
(** Queue the frame for delivery.  Silently dropped when the LAN is down
    or the destination is absent (like real Ethernet). *)

val set_up : t -> bool -> unit
val is_up : t -> bool

val frames_sent : t -> int
val bytes_sent : t -> int
