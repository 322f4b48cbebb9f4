(** IPv4 packets with byte-exact wire encoding.

    The payload is opaque [bytes]; transport and encapsulation layers
    ({!Udp}, {!Tcp_lite}, {!Icmp}, MHRP) provide their own codecs over it.
    This mirrors a real stack's layering and makes every overhead figure in
    the benchmarks a measurement of real serialized bytes. *)

type t = {
  tos : int;
  id : int;  (** IP identification. *)
  dont_fragment : bool;
  more_fragments : bool;
  frag_offset : int;  (** Bytes; always a multiple of 8. *)
  ttl : int;
  proto : Proto.t;
  src : Addr.t;
  dst : Addr.t;
  options : Ip_option.t list;
  payload : bytes;
}

val make :
  ?tos:int -> ?id:int -> ?dont_fragment:bool -> ?more_fragments:bool ->
  ?frag_offset:int -> ?ttl:int -> ?options:Ip_option.t list ->
  proto:Proto.t -> src:Addr.t -> dst:Addr.t -> bytes -> t
(** Default [ttl] is 64, [tos] 0, [id] 0, no options, no fragmentation
    fields set. *)

val is_fragment : t -> bool
(** More-fragments set or a non-zero offset. *)

val fragment : t -> mtu:int -> t list
(** Split into fragments whose wire size fits [mtu] (payload cut on 8-byte
    boundaries; options travel only in the first fragment, RFC 791's
    non-copied treatment).  Returns [\[t\]] unchanged if it already fits.
    Raises [Invalid_argument] if the packet has [dont_fragment] set and
    does not fit, or if [mtu] cannot hold the header plus 8 payload
    bytes. *)

(** Reassembly of fragmented packets at the destination. *)
module Reassembly : sig
  type packet = t
  type t

  val create : unit -> t

  val add : t -> now:int -> packet -> packet option
  (** Feed a fragment ([now] in µs for aging); returns the whole packet
      once every byte has arrived.  Non-fragments are returned
      immediately. *)

  val expire : t -> now:int -> older_than_us:int -> int
  (** Drop incomplete buffers older than the given age; returns how many
      were discarded. *)

  val pending : t -> int
end

val default_ttl : int

val header_length : t -> int
(** 20 plus encoded options, always a multiple of 4. *)

val total_length : t -> int
(** [header_length + payload length]: the wire size of the packet. *)

val has_options : t -> bool

val encode : t -> bytes
(** Serialize with correct length fields and header checksum.
    Raises [Invalid_argument] if the packet exceeds 65535 bytes or any
    field is out of range. *)

val encode_with_gap : t -> gap:int -> bytes
(** {!encode} with [gap >= 0] zero bytes between the header and the
    payload, counted in the total length and checked against the same
    limits: the caller writes an encapsulation header there (it lies
    outside the IP header checksum), so the payload is copied once. *)

val encode_header :
  id:int -> proto:Proto.t -> src:Addr.t -> dst:Addr.t -> gap:int -> bytes
(** The buffer of a packet a node originates, written from its fields:
    [encode_with_gap (make ~id ~proto ~src ~dst Bytes.empty) ~gap],
    with no record built.  Its last [gap] bytes are the payload, left
    zero for the caller to write (they lie outside the header
    checksum); once written, the buffer is [encode] of the packet
    carrying them.  The same writer and range checks as {!encode}:
    [Invalid_argument] where that would raise. *)

val decode : bytes -> t
(** Raises [Invalid_argument] on malformed input or bad checksum. *)

val decode_prefix : bytes -> (t * int) option
(** Parse a possibly-truncated packet — the leading bytes of an offending
    packet quoted inside an ICMP error.  The header must be complete and
    checksum-valid; the returned payload holds only the bytes present, and
    the [int] is how many payload bytes the full packet had. *)

val decr_ttl : t -> t option
(** [None] when the TTL hits zero — caller should emit ICMP time
    exceeded. *)

(** Zero-copy views of encoded packets.

    A view is a buffer holding one wire packet: the type is abstract,
    but its representation is the buffer itself, so {!make} and
    {!to_wire} are the identity and a view costs nothing to build.  The
    forwarding fast path validates, reads fields and rewrites TTL
    (patching the header checksum incrementally) straight through a
    view, never materialising a {!t}; decoding happens only at protocol
    endpoints.  A view aliases its buffer — mutation is visible to every
    other holder.  DESIGN.md Section 11 spells out the ownership rules
    (who may mutate a buffer, and when) that keep this sound. *)
module View : sig
  type packet := t
  type t

  val make : bytes -> t
  (** The view of the whole buffer.  The *contents* are not inspected —
      call {!valid} for that. *)

  val buffer : t -> bytes
  (** The viewed buffer: offsets such as {!payload_offset} index it. *)

  val valid : t -> bool
  (** Structural acceptance, mirroring {!decode}: complete IPv4 header,
      valid header checksum, total length within the buffer.  Total —
      never raises, whatever the bytes.  Does not parse option contents
      (the fast path handles only option-free headers). *)

  (** Field accessors.  Unchecked: call only after {!valid}. *)

  val total_length : t -> int
  val id : t -> int
  val ttl : t -> int
  val proto : t -> Proto.t
  val src : t -> Addr.t
  val dst : t -> Addr.t
  val has_options : t -> bool

  val payload_offset : t -> int
  (** Where the payload starts in {!buffer}: the header's length. *)

  val payload_length : t -> int
  (** {!total_length} less the header's length. *)

  val is_fragment : t -> bool

  val set_ttl : t -> int -> unit
  (** Rewrite the TTL byte in place and incrementally patch the header
      checksum ({!Checksum.update}) — byte-for-byte what
      decode → set → {!encode} would produce.  Raises [Invalid_argument]
      outside [0, 255]. *)

  val decr_ttl : t -> unit
  (** [set_ttl (ttl - 1)].  Raises [Invalid_argument] at zero — the fast
      path checks TTL before committing to forward. *)

  val to_wire : t -> bytes
  (** The viewed buffer itself, no copy: the fast path hands a received
      buffer straight back to the wire. *)

  val decode : t -> packet
  (** Full decode of the buffer, for endpoints and slow-path
      fallbacks. *)

  val decode_prefix : t -> (packet * int) option
end

val pp : Format.formatter -> t -> unit
(** One-line summary: [src -> dst proto len=N ttl=N]. *)
