(** A minimal TCP segment codec (RFC 793 header, no options).

    The connection state machine lives above, in [Transport.Socket]; this
    module is the wire format it rides on.  Workloads send realistic
    20-byte-header segments so that packet sizes and the MHRP rule of
    "insert between IP header and transport header" (Figure 2) are exercised
    against real transport bytes.

    Two faces of one format.  The record codec ({!t}, {!encode},
    {!decode}) is the reference: tests, the golden wire corpus and the
    codec benchmarks use it.  The transport runs on the wire bytes
    themselves: {!valid_at} and the [_at] readers read a received
    segment in place, and {!write} writes a segment's header straight
    into the outgoing packet around data the sender has already copied
    there.  Both faces accept and produce the same bytes
    (QCheck-verified). *)

type flag = Fin | Syn | Rst | Psh | Ack | Urg

type t = {
  src_port : int;
  dst_port : int;
  seq : int;  (** 32-bit. *)
  ack : int;  (** 32-bit. *)
  flags : flag list;
  window : int;
  data : bytes;
}

val header_length : int
(** 20. *)

val make :
  ?seq:int -> ?ack:int -> ?flags:flag list -> ?window:int ->
  src_port:int -> dst_port:int -> bytes -> t

val encode : t -> bytes
(** Raises [Invalid_argument "Tcp_lite.encode: <field> out of range"]
    when a port, [window] (16 bits), [seq] or [ack] (32 bits) does not
    fit its field. *)

val decode : bytes -> t option
(** Total over hostile bytes: [None] on truncation, a data offset pointing
    outside the buffer, or a checksum mismatch — never an exception.  The
    data starts at the data offset, so header options (which {!encode}
    never writes) are skipped, and flag bits above {!Urg} are ignored. *)

val decode_exn : bytes -> t
(** [decode], raising [Invalid_argument] on malformed input — for tests
    and corpus generators where malformed means a bug. *)

val has_flag : t -> flag -> bool
val pp : Format.formatter -> t -> unit

(** {1 Segments on wire bytes} *)

val flag_bit : flag -> int
(** The flag's bit in the wire's flag byte: [Fin] 0x01, [Syn] 0x02,
    [Rst] 0x04, [Psh] 0x08, [Ack] 0x10, [Urg] 0x20. *)

val write :
  bytes -> off:int -> src_port:int -> dst_port:int -> seq:int -> ack:int ->
  flags:int -> window:int -> len:int -> unit
(** [write buf ~off ... ~len] completes the [len]-byte segment at [off]
    whose data the caller has already written at
    [off + header_length]: the header, [flags] as the flag byte, then
    the checksum over all [len] bytes.  The segment's bytes are
    {!encode}'s for the same fields and data.  Raises {!encode}'s
    [Invalid_argument] for an out-of-range field (and for [flags]
    outside [0, 0x3F]), and [Invalid_argument] when the segment does
    not fit [buf]; either is raised before a byte is written. *)

val valid_at : bytes -> off:int -> len:int -> bool
(** Whether {!decode} accepts the [len] bytes at [off], decided in
    place: the header is complete, the data offset lies within
    [\[header_length, len\]] and the checksum verifies.  Total: [false]
    for a range outside the buffer, never an exception. *)

(** Field readers of the segment at [off].  Unchecked: call only after
    {!valid_at} accepted it. *)

val src_port_at : bytes -> off:int -> int
val dst_port_at : bytes -> off:int -> int
val seq_at : bytes -> off:int -> int
val ack_at : bytes -> off:int -> int

val data_offset_at : bytes -> off:int -> int
(** The header length in bytes, options included: the data starts at
    [off + data_offset_at buf ~off]. *)

val flags_at : bytes -> off:int -> int
(** The flag byte as received, unused bits 0x40 and 0x80 included; test
    a flag with [flags land flag_bit f <> 0]. *)

val window_at : bytes -> off:int -> int
