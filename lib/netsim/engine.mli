(** The discrete-event simulation engine.

    An engine owns the clock and an event queue.  An event is a function
    and two arguments, stored in the queue's slot table as they are
    ({!Event_queue}).  Components schedule calls ({!call_after}) at
    relative times, and thunks ({!schedule}, the call of a thunk runner on
    the thunk and [()]) at absolute or relative times; [run] drains the
    queue in timestamp order, advancing the clock to each event as it
    fires.

    {1 Allocation}

    [call_after] of a top-level function allocates nothing, so a
    per-packet event should be one.  [schedule] allocates nothing
    either, but its thunk is usually a closure, built by the caller for
    each event.  Firing an event allocates nothing, and the queue keeps
    no cancelled event's function or arguments reachable, nor a fired
    one's once it has run.

    {1 Domain safety}

    [create] is safe to call from any domain, so parallel sweeps
    ({!Parallel.Sweep}) give every trial its own engine.  A given [t] is
    single-domain-only: nothing here is synchronised, so all calls on one
    engine — scheduling, [run], accessors — must come from the domain that
    created it.  Engines share no mutable state with each other. *)

type t

val create : ?seed:int -> unit -> t
(** Fresh engine with clock at {!Time.zero}.  [seed] (default 42) seeds the
    root random stream from which components [split]. *)

val now : t -> Time.t

val rng : t -> Rng.t
(** The engine's root random stream.  Components needing isolation should
    [Rng.split] it once at setup. *)

val call_after :
  t -> delay:Time.t -> ('a -> 'b -> unit) -> 'a -> 'b -> Event_queue.handle
(** [call_after t ~delay f a b] runs [f a b] [delay] after {!now}. *)

val schedule : t -> at:Time.t -> (unit -> unit) -> Event_queue.handle
(** Schedule a thunk at an absolute time, which must be [>= now]. *)

val schedule_after : t -> delay:Time.t -> (unit -> unit) -> Event_queue.handle
val cancel : t -> Event_queue.handle -> bool

val every : t -> interval:Time.t -> ?until:Time.t -> (unit -> unit) -> unit
(** [every t ~interval f] runs [f] at [now + interval, now + 2*interval, ...],
    stopping after [until] when given.  Used for periodic agent
    advertisements. *)

val run : ?until:Time.t -> t -> unit
(** Drain the event queue.  With [until], stops (leaving later events
    queued) once the next event would fire after [until], and sets the
    clock to [until]. *)

val pending : t -> int
(** Events currently queued. *)

val events_processed : t -> int
(** Total events fired since creation. *)
