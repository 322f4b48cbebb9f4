(** Simulated time.

    All simulation timestamps are integer microseconds from the start of the
    simulation.  Integer time keeps the event queue total-ordered and the
    whole simulation bit-for-bit deterministic across runs and platforms. *)

type t = int
(** Microseconds since simulation start.  Always non-negative. *)

val zero : t

val of_us : int -> t
(** [of_us n] is [n] microseconds.  Raises [Invalid_argument] if negative. *)

val of_ms : int -> t
val of_sec : float -> t

val to_us : t -> int
val to_sec : t -> float

val add : t -> t -> t
val diff : t -> t -> t
(** [diff later earlier] is [later - earlier].  Raises [Invalid_argument]
    if the result would be negative. *)

val compare : t -> t -> int
val ( < ) : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( > ) : t -> t -> bool
val ( >= ) : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** Prints as seconds with microsecond precision, e.g. ["1.250000s"]. *)

val to_string : t -> string
