(** IP header options (RFC 791), in particular Loose Source Route and
    Record (LSRR), which the IBM mobile-IP proposals build on (Section 7).

    Any packet carrying options is processed on the router "slow path";
    {!Net} charges extra per-hop latency for it, which experiment E10
    measures. *)

type t =
  | End_of_options  (** type 0 *)
  | Nop  (** type 1 *)
  | Lsrr of { pointer : int; route : Addr.t array }
      (** type 131.  [pointer] is the RFC 791 octet offset (>= 4) of the
          next route entry to process. *)
  | Record_route of { pointer : int; route : Addr.t array }  (** type 7 *)

val lsrr : Addr.t list -> t
(** Fresh LSRR with pointer at the first entry. *)

val lsrr_next : t -> (Addr.t * t) option
(** [lsrr_next o] is the next hop of an LSRR/RR option and the option with
    its pointer advanced; [None] if exhausted or not a source route. *)

val lsrr_exhausted : t -> bool

val encode_all : t list -> bytes
(** Encode a list of options, padded with zeros to a 4-byte multiple.
    Result length <= 40 (raises [Invalid_argument] beyond). *)

val decode_all : bytes -> t list
(** Inverse of [encode_all]; trailing padding is dropped.
    Raises [Invalid_argument] on malformed input. *)
