(** Deterministic pseudo-random number generation.

    A self-contained splitmix64 generator so that simulations are
    reproducible independent of the OCaml stdlib [Random] implementation.
    Each simulation component can [split] its own stream so that adding a
    consumer does not perturb the draws seen by others. *)

type t

val of_int : int -> t
(** [of_int seed] is a fresh generator. *)

val split : t -> t
(** [split t] derives an independent generator; [t] advances. *)

val copy : t -> t

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  Raises [Invalid_argument]
    if [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val exponential : t -> float -> float
(** [exponential t mean] draws from Exp(1/mean); used for inter-arrival
    times of traffic and movement. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
