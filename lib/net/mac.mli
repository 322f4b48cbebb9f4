(** Link-level (48-bit, Ethernet-style) addresses. *)

type t = private int

val broadcast : t
val of_int : int -> t
(** Raises [Invalid_argument] if out of 48-bit range or equal to the
    broadcast address. *)

val to_int : t -> int
val is_broadcast : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string

module Alloc : sig
  type mac = t
  type t

  val create : unit -> t
  val fresh : t -> mac
  (** Sequential unique addresses starting at 02:00:00:00:00:01 (the
      locally-administered bit set). *)
end
