(** Matsushita's Internet Packet Transmission Protocol (Wada et al.).

    Tunneling adds a complete new IP header plus a separate 20-byte IPTP
    header — 40 bytes per packet, the figure the MHRP paper quotes. *)

val encap : outer_src:Ipv4.Addr.t -> outer_dst:Ipv4.Addr.t ->
  Ipv4.Packet.t -> Ipv4.Packet.t
(** Protocol {!Ipv4.Proto.iptp}; the entire original packet rides behind
    the IPTP header. *)

val decap : Ipv4.Packet.t -> Ipv4.Packet.t option
