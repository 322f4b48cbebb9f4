(** Structured simulation trace.

    A trace is an append-only log of tagged events with timestamps.  Tests
    assert on event sequences; examples pretty-print them; the bench harness
    counts categories.  Payloads are pre-rendered strings so that the trace
    layer has no dependency on protocol types. *)

type event = {
  at : Time.t;
  node : string;  (** Name of the node where the event occurred. *)
  kind : string;  (** Category tag, e.g. ["tunnel"], ["loc-update"]. *)
  detail : string;
}

type t

val create : ?capacity:int -> unit -> t
(** A disabled trace: it records nothing until {!set_enabled} turns it
    on.  [capacity] bounds memory (default 65536 events); older events
    are dropped once full, keeping the most recent. *)

val set_enabled : t -> bool -> unit

val active : t option -> bool
(** [active tr] — a trace is present and enabled.  Per-packet emitters
    guard on this before decoding a packet or rendering a detail
    string; it never changes the route a packet takes. *)

val emit : t -> at:Time.t -> node:string -> kind:string -> string -> unit
val events : t -> event list
(** Oldest first. *)

val count : t -> kind:string -> int
val find : t -> kind:string -> event list
val dump : Format.formatter -> t -> unit
