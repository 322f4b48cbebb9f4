(** The metric registry: every experiment records each number it reports
    here, keyed by experiment id and metric name, with optional labels
    (protocol name, parameter sweep values).

    The registry is what [bench/main.exe --json] serializes and what the
    baseline checker compares.  A process-wide {!default} registry serves
    the experiment harness so the [Exp_*] modules need no plumbing; tests
    and parallel sweep trials create their own instances with {!create}
    and fold them back with {!merge_into}.

    Domain-safety: one registry instance must only be mutated from one
    domain at a time.  The parallel sweep runner respects this by giving
    every trial a private registry and merging into the shared one from
    the coordinating domain only, after the worker domains have been
    joined. *)

type t

val create : unit -> t
val default : t

val key : string -> (string * string) list -> string
(** [key name labels] renders ["name{k=v,k2=v2}"] (just [name] when
    [labels] is empty) — the flat metric key used in the JSON. *)

val counter :
  t -> exp:string -> ?labels:(string * string) list -> ?tol:Metric.tol ->
  string -> int -> unit
(** Record an integer measurement.  Default tolerance {!Metric.Exact}. *)

val gauge :
  t -> exp:string -> ?labels:(string * string) list -> ?tol:Metric.tol ->
  string -> float -> unit
(** Record a scalar sample.  Default tolerance {!Metric.Exact} — the
    simulator is deterministic, so even float-valued results reproduce
    bit-for-bit; pass [~tol:(Pct 20.0)] for timing-derived values. *)

val hist : t -> exp:string -> string -> float list -> unit
(** Summarize samples into a p50/p95/max histogram metric, tolerance
    {!Metric.Exact}. *)

val set :
  t -> exp:string -> ?labels:(string * string) list -> string -> Metric.t ->
  unit
(** Record a pre-built metric (the hook used by [Netsim.Stats] and
    [Workload.Metrics] conversions). *)

exception Duplicate_metric of string
(** Carries ["exp/key"] of the offending metric. *)

val merge_into : into:t -> t -> unit
(** [merge_into ~into src] copies every metric of [src] into [into].
    Raises {!Duplicate_metric} if [into] already holds a metric under the
    same experiment id and key — two sweep trials recording the same
    metric is a bug (a missing sweep-point label), not a
    last-writer-wins situation.  Merging the per-trial registries of a
    sweep in grid order therefore yields exactly the registry a serial
    run would have produced. *)

val experiments : t -> string list
(** Sorted experiment ids currently holding at least one metric. *)

val metrics : t -> exp:string -> (string * Metric.t) list
(** Metrics of one experiment, sorted by key; [] for unknown ids. *)

val to_json : ?include_info:bool -> t -> commit:string -> Json.t
(** [{schema_version; commit; experiments: {id: {key: metric}}}] with
    experiment ids and metric keys sorted, so output is canonical.
    [include_info] (default [true]): when [false], metrics with
    {!Metric.Info} tolerance — wall-clock timings and other run-specific
    readings — are omitted (experiments left with no metrics disappear
    entirely), which makes dumps from runs that differ only in machine
    speed or [--jobs] byte-comparable. *)

val of_json : Json.t -> (t, string) result
(** Rebuild a registry from {!to_json} output (the [commit] field is
    ignored; a [schema_version] mismatch is an error). *)
