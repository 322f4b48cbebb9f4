(** The MHRP encapsulation transformations (Sections 4.1 and 4.4).

    Unlike typical encapsulation protocols, MHRP does not wrap the packet
    in a complete new IP header: it edits the necessary fields of the
    existing header and inserts the small MHRP header between the IP header
    and the transport header.  The functions on {!Ipv4.Packet} records
    define each transformation; the agents run their wire-byte
    counterparts (the [_into] builders below), which produce the same
    bytes, and perform the message sends they call for. *)

val tunnel_by_sender :
  foreign_agent:Ipv4.Addr.t -> Ipv4.Packet.t -> Ipv4.Packet.t
(** Section 4.1, built by the original sender (a cache agent with a hit):
    protocol and destination move into the MHRP header, the source is kept,
    the previous-source list is empty — 8 bytes of overhead. *)

val tunnel_by_agent :
  agent:Ipv4.Addr.t -> foreign_agent:Ipv4.Addr.t -> Ipv4.Packet.t ->
  Ipv4.Packet.t
(** Section 4.1, built by the home agent or an intermediate cache agent:
    additionally the original source moves into the previous-source list
    and the agent becomes the IP source — 12 bytes of overhead. *)

val is_tunneled : Ipv4.Packet.t -> bool

val header_of : Ipv4.Packet.t -> Mhrp_header.t option
(** The MHRP header of a tunneled packet, if well-formed. *)

val detunnel : Ipv4.Packet.t -> (Ipv4.Packet.t * Mhrp_header.t) option
(** Section 4.4 at the correct foreign agent: strip the MHRP header and
    reconstruct the original packet (source from the first list entry when
    the header was agent-built).  [None] if the packet is not a
    well-formed MHRP packet. *)

type 'a retunnel_result =
  | Retunneled of 'a
  | Retunneled_overflow of {
      packet : 'a;
      notify : Ipv4.Addr.t list;
      (** The truncated-away list entries: Section 4.4 requires a location
          update to each before the list is reset. *)
    }
  | Loop_detected of { members : Ipv4.Addr.t list }
      (** This node's address was already in the list (Section 5.3): the
          addresses that form the loop, each owed a cache-delete update. *)

val retunnel :
  max_prev_sources:int -> me:Ipv4.Addr.t -> new_dst:Ipv4.Addr.t ->
  Ipv4.Packet.t -> Ipv4.Packet.t retunnel_result option
(** Section 4.4 at a stale foreign agent (or the home agent forwarding a
    bounced packet): append the incoming tunnel head to the list (with the
    overflow fan-out when full), make this agent the IP source and
    [new_dst] — the next foreign agent or the mobile host's home address —
    the IP destination.  [None] if the packet is not MHRP. *)

val added_bytes : original:Ipv4.Packet.t -> tunneled:Ipv4.Packet.t -> int
(** Wire-size difference — the overhead the paper quotes as 8/12 bytes. *)

(** {1 Tunnels built on wire bytes}

    The agents' tunnel path.  Each builder writes the outgoing packet
    from what it is given — a received {!Ipv4.Packet.View}, a record
    being sent, or the fields of a packet the agent originates — into
    one exact-size buffer: new IP envelope and MHRP header, the
    transport payload copied once (or left for the sender to write),
    checksums computed in place.  No intermediate record is built.
    The output is byte-identical to {!Ipv4.Packet.encode} of the record
    function's result (QCheck-verified), and the record functions above
    remain the reference.  The single-blit layout has a 20-byte envelope, so a
    view carrying IP options (which the record functions keep in the
    envelope) is decoded and served by the record function instead.
    The returned buffer belongs to the caller, who hands it to a frame
    (DESIGN.md Section 11). *)

val header_at : Ipv4.Packet.View.t -> Mhrp_header.t option
(** The MHRP header of a received packet, decoded in place
    ({!Mhrp_header.decode_at}): {!header_of} without decoding the
    packet.  [None] if it is not MHRP or its header is truncated or
    corrupt. *)

val tunnel_by_sender_into :
  foreign_agent:Ipv4.Addr.t -> Ipv4.Packet.t -> bytes
(** [Packet.encode (tunnel_by_sender ~foreign_agent pkt)], written in
    one pass: [pkt] encoded with the MHRP header's 8 bytes left between
    its header and its payload ({!Ipv4.Packet.encode_with_gap}), then
    its protocol and destination moved into that header.  The range
    checks are that encoding's: [Invalid_argument] where it would raise,
    which includes an original protocol outside 8 bits (the record
    function would cut it to its low byte). *)

val sender_tunnel_header :
  id:int -> proto:Ipv4.Proto.t -> src:Ipv4.Addr.t -> dst:Ipv4.Addr.t ->
  foreign_agent:Ipv4.Addr.t -> gap:int -> bytes
(** The buffer of a sender-built tunnel of a packet this node
    originates, written from its fields with no record built
    ({!Ipv4.Packet.encode_header}): [tunnel_by_sender_into
    ~foreign_agent (Packet.make ~id ~proto ~src ~dst payload)] for a
    [gap]-byte [payload], left zero in the buffer's last [gap] bytes
    for the caller to write (no checksum covers them).  The same range
    checks. *)

val tunnel_by_agent_into :
  agent:Ipv4.Addr.t -> foreign_agent:Ipv4.Addr.t -> Ipv4.Packet.View.t ->
  bytes
(** Wire bytes of [tunnel_by_agent ~agent ~foreign_agent (View.decode v)]. *)

val detunnel_into : Ipv4.Packet.View.t -> Mhrp_header.t -> bytes
(** Wire bytes of the original inside the MHRP packet [v] whose header
    {!header_at} decoded as [header]: [detunnel (View.decode v)]'s
    packet, encoded. *)

val retunnel_into :
  max_prev_sources:int -> me:Ipv4.Addr.t -> new_dst:Ipv4.Addr.t ->
  Ipv4.Packet.View.t -> Mhrp_header.t -> bytes retunnel_result
(** {!retunnel} of the MHRP packet [v] whose header {!header_at} decoded
    as [header], with the same verdict and each packet as wire bytes:
    the incoming header's list and mobile are copied from [v] and the
    tunnel head appended, so no address list is rebuilt. *)
