(** Matsushita's packet-forwarding proposal (Wada, Ohnishi, Marsh).

    A Packet Forwarding Server (PFS) on the mobile host's home network
    tunnels packets to the host's temporary address with IPTP — 40 bytes
    of overhead per packet ({!Iptp}).  In {e forwarding mode} all traffic
    goes through the PFS (no route optimisation); in {e autonomous mode}
    senders cache the temporary address after a PFS binding notice and
    tunnel directly. *)

type mode = Forwarding | Autonomous

type t

val create : Net.Topology.t -> mode -> t

val add_pfs : t -> Net.Node.t -> unit
(** The node (a home-network router) becomes a PFS. *)

val make_mobile : t -> Net.Node.t -> pfs:Net.Node.t -> unit

val move :
  t -> Net.Node.t -> lan:Net.Lan.t -> via_router:Net.Node.t ->
  temp:Ipv4.Addr.t -> unit
(** Obtain the temporary address and register it with the PFS. *)

val send : t -> src:Net.Node.t -> Ipv4.Packet.t -> unit
val on_receive : t -> Net.Node.t -> (Ipv4.Packet.t -> unit) -> unit

val control_messages : t -> int
