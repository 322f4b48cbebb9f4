(** Streaming statistics and histograms for experiment metrics. *)

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

  val buckets : t -> (int * int) list
  (** (value, occurrences), ascending by value. *)

  val mode : t -> int
  (** Most frequent value.  Raises [Invalid_argument] when empty. *)
end
