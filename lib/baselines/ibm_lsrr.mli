(** The IBM loose-source-route proposals (Perkins & Rekhter).

    A mobile host registers with a {e base station} on the network it
    visits.  Every packet it sends carries an LSRR option through the base
    station, so the recorded route received by the correspondent names the
    base station; correspondents reverse the recorded route for their
    replies.  Overhead is 8 bytes each way — matching MHRP's forward
    overhead, but paid on {e both} directions, and every optioned packet
    takes the router slow path (experiment E10).

    After a move, correspondents keep sending down the stale reversed
    route until the mobile host happens to send them a fresh packet (or
    the stale base station's unreachable error arrives); initial contact
    reaches the mobile host through a base station on its home network
    that re-source-routes toward the current base station. *)

type t
type base

val create : Net.Topology.t -> t

val add_base : t -> Net.Node.t -> lan:Net.Lan.t -> base

val make_mobile : t -> Net.Node.t -> home_base:base -> unit

val move : t -> Net.Node.t -> base:base -> unit
(** Attach to the base station's LAN and register (the registration
    travels to the home base station so initial contact keeps working). *)

val send : t -> src:Net.Node.t -> Ipv4.Packet.t -> unit
(** From a mobile host: source-routed out through its base station.  From
    a correspondent: down the reversed recorded route when one is known,
    else via the destination's home base station. *)

val on_receive : t -> Net.Node.t -> (Ipv4.Packet.t -> unit) -> unit
(** Also performs the recorded-route reversal bookkeeping for the node. *)

val control_messages : t -> int

val lsrr_overhead : int
(** 8 bytes: the LSRR option with one address, padded. *)
