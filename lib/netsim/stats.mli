(** Streaming statistics and histograms for experiment metrics. *)

type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
}

(** Online mean/variance accumulator (Welford). *)
module Acc : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  (** 0.0 when empty. *)

  val stddev : t -> float
  (** Sample standard deviation; 0.0 with fewer than two samples. *)

  val min : t -> float
  val max : t -> float
  (** Raise [Invalid_argument] when empty. *)

  val summary : t -> summary
  val pp : Format.formatter -> t -> unit

  val to_json : t -> Obs.Json.t
  (** Structured form of [summary t], for the benchmark JSON (Obs). *)
end

(** Reservoir of all samples, for exact percentiles. *)
module Samples : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val percentile : t -> float -> float
  (** [percentile t p] for [p] in [\[0, 100\]], nearest-rank.
      Raises [Invalid_argument] when empty or [p] out of range. *)

  val mean : t -> float
  val to_list : t -> float list

  val to_metric : ?tol:Obs.Metric.tol -> t -> Obs.Metric.t
  (** p50/p95/max histogram metric over the samples, ready for
      {!Obs.Registry.set}.  Default tolerance [Exact]. *)
end

(** Integer-bucketed histogram. *)
module Hist : sig
  type t

  val create : unit -> t
  val add : t -> int -> unit
  val count : t -> int
  val get : t -> int -> int
  (** Occurrences of a bucket value. *)

  val buckets : t -> (int * int) list
  (** (value, occurrences), ascending by value. *)

  val mode : t -> int
  (** Most frequent value.  Raises [Invalid_argument] when empty. *)

  val pp : Format.formatter -> t -> unit

  val to_json : t -> Obs.Json.t
  (** Buckets as an object keyed by the bucket value, ascending. *)
end
