(** ICMP (RFC 792) messages, extended with MHRP's "location update".

    Section 4.3 of the paper defines the location update as a new ICMP
    message type — chosen for its similarity to ICMP redirect and because
    hosts silently discard unknown ICMP types (RFC 1122), giving backward
    compatibility.  The paper does not fix a type number; we use 41
    (unassigned at the time). *)

type t =
  | Echo_request of { ident : int; seq : int; data : bytes }
  | Echo_reply of { ident : int; seq : int; data : bytes }
  | Dest_unreachable of { code : int; original : bytes }
      (** [original] is the leading bytes of the offending IP packet:
          RFC 792 mandates IP header + 8 bytes, RFC 1122 allows more —
          Section 4.5 of the paper depends on this distinction. *)
  | Time_exceeded of { code : int; original : bytes }
  | Redirect of { gateway : Addr.t; original : bytes }
  | Location_update of { mobile : Addr.t; foreign_agent : Addr.t }
      (** MHRP: [mobile] is currently served by [foreign_agent].
          A zero [foreign_agent] means "the host is at home: delete any
          cache entry" (Sections 3 and 6.3). *)
  | Agent_advertisement of { agent : Addr.t; home : bool; foreign : bool }
      (** Periodic multicast by home/foreign agents (Section 3), modeled on
          ICMP router discovery (RFC 1256, type 9). *)
  | Agent_solicitation
      (** A mobile host probing for agents (type 10). *)

val type_code : t -> int * int
(** The on-wire (type, code) pair. *)

val location_update_type : int
(** 41. *)

val agent_advertisement_type : int
(** 9, the type byte a receiver may peek at to skip an advertisement it
    would ignore without decoding it. *)

val host_unreachable : original:bytes -> t
(** [Dest_unreachable] with code 1. *)

val length : t -> int
(** The message's length on the wire, without an extension. *)

val write : t -> bytes -> off:int -> len:int -> unit
(** Write the message's {!length} bytes at [off] and its checksum over
    the [len] bytes at [off]: the message alone, or the message and an
    extension the caller has already written after it.  A sender writes
    its message straight into its packet buffer this way.  Raises
    [Invalid_argument] if [len] is shorter than the message or the
    range lies outside the buffer. *)

val encode : ?ext:bytes -> t -> bytes
(** {!write} into a fresh buffer.  [ext] is appended after the message
    body and covered by the ICMP checksum — the carriage slot for the
    MHRP authentication extension on location updates.  Decoding
    ignores trailing bytes, so receivers without the extension still
    parse the message (the same backward-compatibility argument as the
    type number). *)

val decode : bytes -> t
(** Raises [Invalid_argument] on malformed input, bad checksum, or an ICMP
    type this simulator does not model (matching RFC 1122 hosts, callers
    should treat that as "silently discard"). *)

val decode_at : bytes -> off:int -> len:int -> t option
(** Decode the message in the [len] bytes at [off], checksum included:
    [None] for unknown types, truncations, checksum mismatches and
    ranges outside the buffer alike — the "silently discard" path.
    Total: never raises, whatever the bytes.  Only the types that carry
    a body (echoes, errors, redirects) copy it. *)

val decode_opt : bytes -> t option
(** [decode_at] over the whole buffer. *)

val pp : Format.formatter -> t -> unit
