(** UDP (RFC 768) payload codec: the 8-byte header plus data. *)

type t = {
  src_port : int;
  dst_port : int;
  data : bytes;
}

val header_length : int
(** 8. *)

val make : src_port:int -> dst_port:int -> bytes -> t

val write :
  bytes -> off:int -> src_port:int -> dst_port:int -> len:int -> unit
(** Complete the [len]-byte datagram at [off] whose data the caller has
    already written at [off + 8]: ports, length, and the checksum over
    header and data (pseudo-header omitted: the simulator never
    corrupts packets in ways a pseudo-header would catch).  A sender
    writes its datagram straight into its packet buffer this way.
    Raises [Invalid_argument] for a port outside 16 bits or [len] over
    65,535. *)

val encode : t -> bytes
(** {!write} into a fresh buffer holding the data. *)

val length_at : bytes -> off:int -> len:int -> int
(** Check the datagram in the [len] bytes at [off] without decoding it:
    its length (header included) if the header is complete, its length
    field fits [len] and its checksum verifies; otherwise [-1]
    (truncated, or a range outside the buffer), [-2] (bad length) or
    [-3] (bad checksum).  Total: never raises, whatever the bytes. *)

val src_port_at : bytes -> off:int -> int
val dst_port_at : bytes -> off:int -> int
(** The source and destination ports of the datagram at [off], after
    {!length_at} accepted it. *)

val decode : bytes -> t
(** {!length_at} over the whole buffer, then the fields.  Raises
    [Invalid_argument] on truncation, a bad length or a checksum
    mismatch. *)
