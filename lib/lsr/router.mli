(** The per-router protocol instance: hello beacons, LSA flooding, SPF.

    One [Router.t] rides on one {!Net.Node.t}, hooking protocol
    {!Ipv4.Proto.lsrp} and a periodic tick.  Everything it learns arrives
    as real broadcast packets over the simulated LANs, so link flaps,
    crashes and partitions delay or destroy its control traffic exactly
    as they would any other protocol's.

    {b Tick discipline.}  All periodic work — hello beacons, dead-neighbor
    scans, triggered and refresh re-origination, database synchronisation
    toward newly-heard neighbors — happens on one per-router tick of
    period {!Config.t.hello_interval}, offset by a per-router stagger so a
    domain's routers do not beacon in lockstep.  Re-origination is thereby
    coalesced: however many neighbors appear or die within one interval,
    the router floods at most one new LSA version per tick (plus refresh),
    which bounds flooding to O(routers / interval) even during the startup
    burst of a 256-campus domain.  Database synchronisation is further
    {e designated}: per newly-heard neighbor, only the lowest-id other
    participant on that LAN broadcasts its database, so a shared backbone
    sees O(1) full-database broadcasts per membership change rather than
    one per resident router.  Ticks fire only while the node
    {!Net.Node.is_up}; a crashed router goes silent until reboot.

    {b State across reboot.}  The LSDB and neighbor table are volatile and
    cleared by reboot; the own-LSA sequence number persists (routers keep
    it in NVRAM precisely so a rebooted router does not come back smaller
    than its own stale LSAs).  {!Counters} persist too — they are the
    experimenter's tally, not protocol state. *)

type t

val create : ?config:Config.t -> ?stagger:Netsim.Time.t -> Net.Node.t -> t
(** Hook the protocol onto the node.  The node must already have its
    interfaces attached and a primary address — the router id.  [stagger]
    (default zero) offsets the first tick; {!Domain.create} assigns each
    router a distinct offset.  Does not start timers; call {!start}. *)

val start : t -> unit
(** Begin ticking.  The first tick fires at [stagger], then every
    [hello_interval]. *)

val node : t -> Net.Node.t
val router_id : t -> Ipv4.Addr.t
val counters : t -> Counters.t

val neighbor_count : t -> int
(** Live (interface, neighbor-router) pairs. *)

val lsdb_size : t -> int
(** Distinct origins in the link-state database. *)

val lsdb_seq : t -> Ipv4.Addr.t -> int option
(** Sequence number stored for the given origin, if any. *)

val lsdb_fold : t -> (Ipv4.Addr.t -> int -> 'a -> 'a) -> 'a -> 'a
(** Fold over (origin, sequence-number) pairs in unspecified order. *)

val settled : t -> bool
(** No deferred protocol work: the last-originated LSA still matches the
    live interfaces and neighbor sets, and no SPF run, forced
    re-origination or database synchronisation is queued.  A domain whose
    routers are all settled with identical databases has converged
    ({!Domain.synchronized}). *)
