(** One measured value, tagged with the tolerance the baseline checker
    applies to it.

    The tolerance travels with the metric into the JSON file, so the
    committed [bench/baselines.json] is self-describing: the checker reads
    each metric's policy from the baseline side and never needs an
    out-of-band tolerance table. *)

type tol =
  | Exact  (** Protocol invariants: byte overheads, hop counts, message
               counts.  Any difference is a drift. *)
  | Pct of float  (** Timing-derived values: allowed to move by the given
                      percentage of the baseline magnitude. *)
  | Info  (** Recorded and archived but never gated — wall-clock numbers
              (sweep and phase times, packets per second, speed-up
              ratios) that vary across machines. *)

type value =
  | Counter of int  (** Monotone integer measurement. *)
  | Gauge of float  (** Scalar sample. *)
  | Hist of { count : int; p50 : float; p95 : float; max : float }
      (** Summarised sample distribution.  [count] compares exactly; the
          percentiles follow the metric's tolerance. *)

type t = { value : value; tol : tol }

val equal : t -> t -> bool

val hist_of_samples : float list -> value
(** Nearest-rank p50/p95 and max over the samples; the all-zero [Hist]
    when the list is empty. *)

val to_json : t -> Json.t
val of_json : Json.t -> (t, string) result

val drift : tol:tol -> baseline:value -> current:value -> string option
(** [None] when [current] is within [tol] of [baseline]; otherwise a
    human-readable reason naming both values.  Kind mismatches always
    drift. *)

val pp : Format.formatter -> t -> unit
