(** Acknowledged control exchanges ([Config.reliable_control]).

    MHRP's acknowledged messages — home and regional registrations, the
    foreign-agent connect notification, and the replica syncs
    ([Ha_sync], [Region_sync]) — all follow one rule, the
    request/reply-with-retransmission rule Mobile IP applies to every
    registration: send, and resend after [Config.control_rto], doubling
    the delay each time, until acknowledged; after
    [Config.control_retries] resends, give up.

    An exchange counts generations: each {!start} sends a new one, each
    {!ack} confirms every generation sent so far.  Timers are fire and
    check: a chain whose exchange was acknowledged (or superseded) meanwhile
    does nothing when its next timer fires, so nothing is ever
    cancelled.  A chain is one record holding its next delay and the
    retries left, and each timer is the call of a top-level function on
    it ({!Netsim.Engine.call_after}): arming and firing one allocate
    nothing beyond what [resend] and [give_up] do. *)

type t

val create : unit -> t

val find : ('k, t) Hashtbl.t -> 'k -> t
(** The exchange under a key, created on first use — for exchanges kept
    per peer or per mobile host. *)

val start :
  ?supersede:bool -> t -> Net.Node.t -> Config.t -> Counters.t ->
  resend:(unit -> unit) -> give_up:(unit -> unit) -> unit
(** A new generation, whose first transmission the caller has just made.
    Under [Config.reliable_control], [resend] runs at each timeout and
    [give_up] once the retries are spent (counted in
    [Counters.retransmit_gave_up]); the chain ends early once the
    generation is acknowledged, or when the node is down at a firing.
    With [supersede] (the default) a newer {!start} also ends it; without,
    only an {!ack} does, so a stream of new generations cannot keep
    postponing the give-up that reveals a dead peer.  Without
    [Config.reliable_control] nothing is scheduled, but {!pending} still
    tracks the generations. *)

val ack : t -> unit
(** Every generation sent so far is confirmed (or abandoned): their chains
    stop at their next firing. *)

val pending : t -> bool
(** The newest generation is not yet acknowledged. *)
