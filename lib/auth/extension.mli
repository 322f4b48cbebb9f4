(** RFC 2002-style authentication extension.

    A fixed-size TLV appended to the bytes of a control message or
    location update:

    {v
      +------+--------+---------+-------------+-----------+----------+
      | type | length |   SPI   |  timestamp  |   nonce   |   MAC    |
      |  1B  |   1B   |   4B    |     8B      |    8B     |    8B    |
      +------+--------+---------+-------------+-----------+----------+
    v}

    30 bytes on the wire (type 32, length 28).  The MAC is SipHash-2-4
    over the protected payload followed by the extension itself with the
    MAC field zeroed, so the tag binds the SPI, timestamp and nonce as
    well as the message.  All fields are big-endian. *)

type t = {
  spi : int;  (** Security parameter index naming the association. *)
  timestamp : Netsim.Time.t;  (** Sender's clock when signing. *)
  nonce : int64;  (** Unique per signed message; replay detector key. *)
  mac : int64;  (** SipHash-2-4 tag. *)
}

val length : int
(** Encoded size in bytes (30). *)

val encode : t -> bytes

val decode : bytes -> t option
(** Exactly [length] bytes holding a well-formed extension; [None]
    otherwise (wrong type, wrong length byte, timestamp out of range). *)

val decode_at : bytes -> int -> t option
(** Decode an extension starting at the given offset. *)

val split : bytes -> (bytes * t) option
(** [split buf] takes a trailing extension off a message: the payload
    bytes and the decoded extension, or [None] if the buffer is too
    short or does not end in a well-formed extension. *)

val sign :
  key:Siphash.key ->
  spi:int ->
  timestamp:Netsim.Time.t ->
  nonce:int64 ->
  bytes ->
  t
(** Build an extension whose MAC authenticates the given payload. *)

val verify : key:Siphash.key -> bytes -> t -> bool
(** Recompute the MAC over [payload ++ ext{mac=0}] and compare. *)
