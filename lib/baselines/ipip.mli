(** The Columbia protocol's IP-within-IP encapsulation (Ioannidis et al.,
    SIGCOMM '91).

    A complete new IP header is prepended plus a 4-byte shim, so each
    tunneled packet carries 24 bytes of overhead — the figure the MHRP
    paper quotes in its Section 7 comparison.  Contrast with MHRP's 8/12
    bytes: the whole original packet (header included) rides inside. *)

val overhead : int
(** 24: a 20-byte outer IP header plus the 4-byte shim. *)

val encap : outer_src:Ipv4.Addr.t -> outer_dst:Ipv4.Addr.t ->
  Ipv4.Packet.t -> Ipv4.Packet.t
(** Wrap the whole original packet (protocol {!Ipv4.Proto.ipip}). *)

val decap : Ipv4.Packet.t -> Ipv4.Packet.t option
(** Unwrap; [None] if not a well-formed IPIP packet. *)

val shim_tunnel :
  proto:Ipv4.Proto.t -> magic:int -> shim_length:int ->
  (outer_src:Ipv4.Addr.t -> outer_dst:Ipv4.Addr.t ->
   Ipv4.Packet.t -> Ipv4.Packet.t)
  * (Ipv4.Packet.t -> Ipv4.Packet.t option)
(** The [(encap, decap)] pair of a whole-packet tunnel under protocol
    [proto] whose [shim_length]-byte shim (at least 4) opens with the
    16-bit [magic] and the inner packet's 16-bit length, the rest zero.
    [encap] and [decap] above are its 4-byte instance; {!Iptp} is the
    20-byte one. *)
