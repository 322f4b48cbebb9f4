(** Regional-agent binding table ([Config.hierarchy]).

    Under hierarchical registration — regional foreign-agent aggregation
    in the spirit of the ROADMAP's H-MLBN item — the home agent records a
    mobile host as visiting its {e regional} agent, and this table holds
    the second hop: which foreign agent inside the region currently
    serves the host.  Intra-region handoffs rewrite only this binding;
    the home agent and every external location cache keep pointing at
    the regional agent, so a region's mobile population costs the rest
    of the internetwork one entry and zero control messages per local
    handoff.

    Bindings are soft state: a registration may carry an absolute expiry
    ([Config.regional_lifetime]), after which {!expire} evicts it unless
    the mobile refreshed — lost withdrawals and dead foreign agents
    self-heal.  Inter-region handoffs can leave a short-lived forwarding
    pointer ({!set_forward}) so in-flight packets chase the mobile to its
    new regional agent.  Pure state; {!Agent} drives it and owns the
    timers. *)

type t

val create : unit -> t

val register :
  t ->
  ?expires_at:Netsim.Time.t ->
  mobile:Ipv4.Addr.t ->
  foreign_agent:Ipv4.Addr.t ->
  unit ->
  [ `Fresh | `Refresh ]
(** Bind the mobile host to a foreign agent inside the region.  [`Fresh]
    when the binding is new or moved (counted in {!registrations});
    [`Refresh] when it is unchanged (counted in {!refreshes} — a pure
    keep-alive must not inflate the handoff counters E19 gates).  Either
    way [expires_at] (re)arms the binding's expiry; omitting it makes the
    binding hard state.  Raises [Invalid_argument] on a zero foreign
    agent — that means {!withdraw}. *)

val withdraw : t -> Ipv4.Addr.t -> unit
(** Drop the binding (host left the region or returned home). *)

val invalidate : t -> mobile:Ipv4.Addr.t -> foreign_agent:Ipv4.Addr.t -> bool
(** Drop the binding {e only if} it currently points at [foreign_agent] —
    the visitor-list-miss bounce: that agent reported it no longer serves
    the host, but a racing re-registration to a different agent must
    win.  Returns whether a binding was dropped. *)

val find : t -> Ipv4.Addr.t -> Ipv4.Addr.t option

val expire : t -> now:Netsim.Time.t -> (Ipv4.Addr.t * Ipv4.Addr.t) list
(** Evict every binding whose lifetime has passed; returns the evicted
    (mobile, foreign agent) pairs sorted by mobile address.  O(lifetimed
    bindings) — intended for a periodic sweep, not the data path. *)

val set_forward :
  t ->
  mobile:Ipv4.Addr.t ->
  new_regional:Ipv4.Addr.t ->
  expires_at:Netsim.Time.t ->
  unit
(** Install a grace-period forwarding pointer: packets tunneled here for
    [mobile] should be re-tunneled to [new_regional] until
    [expires_at]. *)

val forward : t -> now:Netsim.Time.t -> Ipv4.Addr.t -> Ipv4.Addr.t option
(** The live forwarding pointer for a departed mobile, if any.  An
    expired pointer is removed on lookup and reported as [None]. *)

val forwards_size : t -> int
(** Live + not-yet-swept forwarding pointers. *)

val size : t -> int

val clear : t -> unit
(** Drop every binding, lifetime and forwarding pointer (reboot: the
    table is soft state, rebuilt by re-registrations), keeping the
    counters. *)

val registrations : t -> int
(** Bindings written fresh or moved (intra-region registrations absorbed
    here instead of reaching the home agent — E19's aggregation metric).
    Pure refreshes are counted separately in {!refreshes}. *)

val refreshes : t -> int
(** Keep-alive re-registrations that left the binding unchanged. *)

val withdrawals : t -> int

val expirations : t -> int
(** Bindings evicted by {!expire} (lifetime ran out unrefreshed). *)

val invalidations : t -> int
(** Bindings dropped by {!invalidate} (visitor-list-miss bounces). *)

val footprint_bytes : t -> int
(** Actual heap bytes pinned by the backing {!Ipv4.Int_table}s.  The
    lifetime and forwarding tables are allocated on first use, so a
    region that never uses failover pins the pre-failover byte count
    exactly. *)
