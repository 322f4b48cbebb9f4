(** IPv4 addresses and network prefixes.

    Addresses are stored as non-negative [int]s in host order (fits easily
    in OCaml's 63-bit ints).  The simulator allocates addresses as
    [10.net_hi.net_lo.host], one /24 per simulated network, mirroring the
    paper's "network number + host number" structure (Section 1). *)

type t = private int
(** An IPv4 address, [0 <= t <= 0xFFFF_FFFF]. *)

val of_int : int -> t
(** Raises [Invalid_argument] if out of range. *)

val to_int : t -> int

val to_key : t -> int
(** [to_key a] packs [a] into a tagged immediate int key for the compact
    {!Int_table} maps: the 32 address bits live in the low bits of an
    unboxed OCaml int, so a key is never allocated and never negative.
    [of_key (to_key a) = a] for every address. *)

val of_key : int -> t
(** Inverse of {!to_key}.  Raises [Invalid_argument] if the key is not a
    packed address (outside [\[0, 0xFFFF_FFFF\]]). *)

val of_octets : int -> int -> int -> int -> t
(** [of_octets a b c d] is [a.b.c.d].  Raises [Invalid_argument] if any
    octet is out of [\[0, 255\]]. *)

val get : bytes -> int -> t
(** [get buf i] reads the address stored in network byte order at
    [buf.[i..i+3]].  Raises [Invalid_argument] if that range is not
    inside [buf]. *)

val set : bytes -> int -> t -> unit
(** [set buf i a] writes [a] in network byte order at [buf.[i..i+3]].
    Raises [Invalid_argument] if that range is not inside [buf]. *)

val of_string : string -> t
(** Parses dotted-quad.  Raises [Invalid_argument] on malformed input. *)

val of_string_opt : string -> t option
val to_string : t -> string
val pp : Format.formatter -> t -> unit

val zero : t
(** [0.0.0.0] — used by MHRP as the "at home" foreign-agent registration
    address (Section 3). *)

val broadcast : t
(** [255.255.255.255]. *)

val is_zero : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int

(** Network prefixes. *)
module Prefix : sig
  type addr = t

  type t = private { base : addr; len : int }
  (** Invariant: the host bits of [base] are zero. *)

  val make : addr -> int -> t
  (** [make a len] masks [a] to [len] bits.  Raises [Invalid_argument] if
      [len] is outside [\[0, 32\]]. *)

  val mask : int -> int
  (** [mask len] is the network mask of a [len]-bit prefix as an int
      ([0xFFFFFF00] for /24) — for masking packed {!Addr.to_key} keys
      without allocating. *)

  val of_string : string -> t
  (** Parses ["a.b.c.d/len"]. *)

  val mem : addr -> t -> bool
  val network_of : addr -> int -> t
  (** Prefix of the given length containing the address. *)

  val host : t -> int -> addr
  (** [host p n] is the [n]th host address within [p].
      Raises [Invalid_argument] if [n] does not fit in the host bits. *)

  val equal : t -> t -> bool
  val compare : t -> t -> int
  val to_string : t -> string
  val pp : Format.formatter -> t -> unit
end

(** Simulator address plan: network [i] is the /24 [10.(i lsr 8).(i land
    255).0/24]; host [h] of network [i] is its [h]th address. *)
val net : int -> Prefix.t

val net_len : int -> int -> Prefix.t
(** [net_len i len] — network [i]'s base address with an explicit prefix
    length, for segments that must address more than 254 stations (the
    wide backbones of the large-scale experiments).  The caller picks a
    base aligned to [len] that stays clear of the /24 plan ([net i]
    for small [i]); [net_len i 24 = net i]. *)

val host : int -> int -> t
(** [host net_id host_id]. *)

val net_of : t -> int option
(** Network id of an address allocated by [net]/[host]; [None] if the
    address is outside [10.0.0.0/8]. *)
