(** Sony's Virtual IP header (Teraoka et al., SIGCOMM '91).

    Every host has a permanent VIP address and a physical IP address; every
    data packet carries a 28-byte VIP header between the IP header and the
    transport header — the overhead the MHRP paper quotes.  The IP header's
    addresses hold the physical addresses used for routing; the VIP header
    holds the permanent identities. *)

type t = {
  vip_src : Ipv4.Addr.t;
  vip_dst : Ipv4.Addr.t;
  hop_count : int;
  timestamp : int;  (** Cache-versioning field of the VIP design. *)
}

val add : t -> Ipv4.Packet.t -> Ipv4.Packet.t
(** Insert the VIP header; the packet's protocol becomes
    {!Ipv4.Proto.vip}. *)

val strip : Ipv4.Packet.t -> (t * Ipv4.Packet.t) option
(** Remove it, restoring the original transport protocol. *)

val peek : Ipv4.Packet.t -> t option
