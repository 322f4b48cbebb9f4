(** Computation of the "standard internetwork routing" substrate.

    The paper assumes ordinary IP routing delivers packets to a host's
    network; MHRP rides on top.  We provide that substrate with a global
    shortest-path computation (one BFS per node over the node-LAN
    incidence graph, every LAN one hop, transit through routers only),
    filling every node's routing table with one entry per reachable
    network prefix.

    Host-specific (/32) routes installed later by protocol code survive
    only until the next [compute]; recompute before protocol setup.

    This computation is an {b oracle}: it reads the whole topology in one
    pass and installs every table instantaneously at the current simulated
    time, with no packets exchanged, no convergence delay and no
    control-byte cost.  It is the right substrate for experiments that
    assume routing "just works" underneath the mobility protocols — but it
    cannot exhibit reconvergence behaviour.  The {!Lsr} library provides
    the contrasting in-simulation distributed protocol; {!recompute_count}
    exists so experiments can report the oracle's work honestly alongside
    LSR's per-router SPF counts. *)

type graph
(** A snapshot of which nodes are attached to which up LANs, the order
    every table lists its prefixes in, and the BFS scratch state.
    Building it is O(N·I + L log L); a search from one node is
    O(N·I + ΣM), each LAN expanded once ([ΣM] the LAN memberships).
    Reuse one graph across queries instead of rebuilding per call.  A
    graph goes stale when topology changes (attach/detach, LANs going
    up or down) — rebuild it then. *)

val build : nodes:Node.t list -> lans:Lan.t list -> graph
(** Snapshot the adjacency of [nodes] across the (up) [lans].  The LAN
    list may contain repeats; they are deduplicated by identity. *)

val compute : nodes:Node.t list -> lans:Lan.t list -> unit
(** Replace every node's routing table.  Nodes attached to a LAN get a
    [Direct] entry; others get [Via] the first-hop router toward the
    nearest router attached to that LAN.  Unreachable prefixes get no
    entry.  Deterministic: ties break on node name.  Equivalent to
    [compute_graph (build ~nodes ~lans)]. *)

val compute_graph : graph -> unit
(** [compute] on an already-built graph. *)

val path_length : nodes:Node.t list -> src:Node.t -> dst_lan:Lan.t -> int option
(** Number of LAN hops from [src] to the nearest router attached to
    [dst_lan] (plus one for final LAN delivery when [src] is not attached),
    computed on the same graph as [compute] — used by experiments to
    report ideal path lengths.  Builds a throwaway graph per call; batch
    queries should go through {!graph_of_nodes} and {!path_length_graph}. *)

val graph_of_nodes : Node.t list -> graph
(** The graph over every LAN any of [nodes] is attached to — the graph
    {!path_length} builds internally, exposed so repeated path queries can
    share one build. *)

val path_length_graph : graph -> src:Node.t -> dst_lan:Lan.t -> int option
(** {!path_length} against a prebuilt graph. *)

val recompute_count : unit -> int
(** Number of global full-table computations ({!compute} /
    {!compute_graph}) performed so far, process-wide and monotone.  Each
    one is a complete omniscient rebuild of every node's table — the
    oracle's unit of SPF work, comparable against [Lsr]'s per-router
    [spf_runs] counter.  Thread-safe; under a parallel sweep, read it
    before and after the whole sweep (the delta is deterministic), not
    from inside concurrent trials. *)
