(** Priority queue of timed events.

    {1 Order}

    Events leave in (time, sequence number) order: the sequence number
    counts pushes over the queue's lifetime, so events scheduled for the
    same instant fire in the order they were scheduled.  This keeps
    simulations deterministic.

    {1 Layout}

    A 4-ary min-heap in three parallel int arrays (time, sequence number,
    handle), so sifting moves plain words and runs no write barrier.  The
    events sit in a slot table beside it, three entries a slot: a
    function and its two arguments.  A {!push}ed payload is the second
    entry, beside a function that ignores it.  A handle is an immediate
    int: a slot number packed with that slot's generation.

    {1 Cancellation}

    [cancel] is O(1).  It frees the slot, clears all three of its
    entries and bumps the generation; the heap entry stays behind, dead,
    and is dropped when it reaches the top.  A handle refers to one event
    only: once that event fires or is cancelled, the handle never matches
    again, even after its slot is reused.  The queue keeps no cancelled
    event's function, arguments or payload reachable, nor a fired one's
    once it has run.

    {1 Allocation}

    Once the arrays have grown to the queue's peak depth, [push],
    [push_call], [cancel], [min_time], [take] and [fire] allocate
    nothing.  [pop] and [peek_time] allocate their results; they exist
    for callers that want options. *)

type 'a t
(** A queue of events carrying payloads of type ['a]. *)

type calls
(** The payload type of a queue of calls ({!push_call}, {!fire}).  It is
    abstract: the queue stores each call's function and arguments
    untyped, and no other value can pass for one. *)

type handle
(** Identifies a scheduled event so it can be cancelled. *)

val no_handle : handle
(** A handle of no event, for a field that holds one only at times:
    {!cancel} of it returns [false].  Handles are immediates, so [==]
    tells it apart without a call. *)

val create : unit -> 'a t

val is_empty : 'a t -> bool
val length : 'a t -> int
(** Number of live (non-cancelled) events. *)

val push : 'a t -> Time.t -> 'a -> handle
(** [push q at x] schedules [x] at time [at]. *)

val cancel : 'a t -> handle -> bool
(** [cancel q h] removes the event; returns [false] if it already fired or
    was already cancelled. *)

val min_time : 'a t -> Time.t
(** Time of the earliest live event, or [max_int] when [q] is empty. *)

val take : 'a t -> 'a
(** Removes the earliest live event and returns its payload; its time is
    what {!min_time} returned just before.  Raises [Invalid_argument] when
    [q] is empty. *)

val pop : 'a t -> (Time.t * 'a) option
(** Earliest live event, removing it. *)

val peek_time : 'a t -> Time.t option
(** Time of the earliest live event. *)

val push_call : calls t -> Time.t -> ('a -> 'b -> unit) -> 'a -> 'b -> handle
(** [push_call q at f a b] schedules the call [f a b] at time [at].  It
    stores [f], [a] and [b] in the event's slot: nothing is allocated,
    and [f] should be a top-level function so that the caller allocates
    no closure either. *)

val fire : calls t -> unit
(** Removes the earliest live event and runs it: the call [f a b], or
    nothing for a {!push}ed payload.  Its time is what {!min_time}
    returned just before.  The slot is free during the call, so an event
    the call schedules may take it; once the call returns or raises, the
    slot no longer holds [f], [a] or [b].  Raises [Invalid_argument]
    when [q] is empty. *)
