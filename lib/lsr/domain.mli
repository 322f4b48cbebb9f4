(** A routing domain: one {!Router} per router node of a topology.

    [Domain] is the experiment-facing entry point.  It instantiates the
    protocol on every router of a built {!Net.Topology.t}, staggers their
    tick phases deterministically, and provides the two domain-wide
    predicates experiments gate on:

    - {!synchronized} — cheap convergence detection: every up router is
      {!Router.settled} and all databases carry identical
      (origin, sequence) sets.  E18 polls this to timestamp
      reconvergence.
    - {!check_equivalence} — the strong property: walking the installed
      tables hop by hop delivers to every up network without loops, in
      exactly as many LAN hops as the omniscient {!Net.Routing} oracle
      would take.  Next hops need not be identical — LSR breaks equal-cost
      ties by router id where the oracle uses node names — but path
      {e lengths} must agree, which rules out both loops and detours.

    The oracle reads live topology and ignores crashed nodes, so
    equivalence is only meaningful in a quiescent state: after start-up,
    or after faults have healed and {!synchronized} holds again. *)

type t

val create : ?config:Config.t -> Net.Topology.t -> t
(** One router per node of the topology with {!Net.Node.is_router} set,
    each with a distinct deterministic tick stagger within one hello
    interval.  Each router's table starts empty, so convergence is
    measured from nothing rather than from a previously-installed oracle
    state; host tables are never touched — hosts keep their static
    (oracle-installed) routes, as real hosts keep their configured
    gateways.  Timers do not run until {!start}. *)

val start : t -> unit

val routers : t -> Router.t list
val router : t -> string -> Router.t
(** By node name.  Raises [Not_found]. *)

val totals : t -> Counters.t
(** Sum of all routers' counters, freshly computed. *)

val control_bytes : t -> int
(** Total control bytes transmitted (IP wire bytes of hellos, LSAs and
    database synchronisation) — the figure E18 weighs against MHRP's
    control traffic. *)

val synchronized : t -> bool
(** Every up router is {!Router.settled} and all up routers' databases
    hold identical (origin, sequence) sets.  Crashed routers are ignored;
    [false] while any protocol work is still queued. *)

val check_equivalence : t -> (unit, string) result
(** Walk every (router, up-LAN) pair's installed route hop by hop and
    compare the delivery hop count against {!Net.Routing.path_length_graph}
    on a freshly built oracle graph.  [Error] carries the first mismatch:
    a loop, a black hole, a detour, or a route the oracle says cannot
    exist.  O(routers × LANs) oracle BFS runs. *)

val equivalent : t -> bool
(** [check_equivalence] as a predicate. *)
