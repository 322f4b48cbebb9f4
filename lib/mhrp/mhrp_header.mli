(** The MHRP encapsulation header (Figure 3).

    Inserted between the IP header and the transport header when a packet
    is tunneled (Figure 2).  Wire layout (8 + 4·count bytes):

    {v
    0        1        2                 3
    +--------+--------+--------+--------+
    | count  | oproto |  header checksum|
    +--------+--------+--------+--------+
    |      IP address of mobile host    |
    +-----------------------------------+
    |  previous IP source address 1     |
    |  ...                              |
    +-----------------------------------+
    v}

    The paper's Figure 3 fixes the field set (count, checksum, original
    protocol, mobile host address, previous-source list) and the sizes
    (8 octets empty, 12 with one entry, +4 per entry); the exact byte order
    within the fixed part is our choice.

    [prev_sources] is ordered oldest first: entry 0 is the original sender
    when the header was built by an agent rather than the sender
    (Section 4.1); each later entry is the head of a previous tunnel
    (Section 4.4). *)

type t = {
  orig_proto : Ipv4.Proto.t;
  mobile : Ipv4.Addr.t;
  prev_sources : Ipv4.Addr.t list;
}

val fixed_length : int
(** 8. *)

val length : t -> int
(** 8 + 4·|prev_sources|. *)

val make :
  ?prev_sources:Ipv4.Addr.t list -> orig_proto:Ipv4.Proto.t ->
  mobile:Ipv4.Addr.t -> unit -> t

val append_source_max : max:int -> t -> Ipv4.Addr.t -> [ `Ok of t | `Full ]
(** Add a tunnel head to the list, refusing beyond [max] entries — the
    caller then performs the truncation fan-out of Section 4.4
    ({!truncate}). *)

val truncate : t -> Ipv4.Addr.t -> t
(** Section 4.4 overflow step: reset the list to exactly the new single
    entry. *)

val mem_source : t -> Ipv4.Addr.t -> bool
(** Loop detection test (Section 5.3). *)

val tunnel_heads : t -> incoming:Ipv4.Addr.t -> Ipv4.Addr.t list
(** Every tunnel head a packet with this header has passed: the list,
    then [incoming] — the source of the tunnel it arrived in — unless
    already listed.  The agents owe each a location update (Sections
    5.1, 5.3, 6.3). *)

val original_sender : t -> Ipv4.Addr.t option
(** First list entry, when the header was built by an agent. *)

val drop_last_source : t -> (t * Ipv4.Addr.t) option
(** Remove the newest list entry — the reversal step of the ICMP
    error-handling procedure (Section 4.5). *)

val encode : t -> bytes -> bytes
(** [encode t transport] is the tunneled packet payload: MHRP header
    followed by the original transport bytes. *)

val decode : bytes -> t * bytes
(** Inverse of [encode].  Raises [Invalid_argument] on truncation or
    checksum mismatch. *)

val decode_at : bytes -> off:int -> len:int -> t option
(** The header at the start of the [len] bytes at [off] — a tunneled
    packet's payload, read where it was received; its length is
    {!length}.  [None] if the range does not fit the buffer, or the
    header is truncated or fails its checksum.  Total: never raises. *)

val decode_prefix : bytes -> (t * int) option
(** Parse just the header from a (possibly truncated) payload, returning
    it with its length — used on the quoted packet inside ICMP errors,
    which may carry only part of the original (Section 4.5).  [None] if
    even the header is incomplete or corrupt. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
