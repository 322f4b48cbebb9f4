(** Protocol parameters.

    Defaults follow the paper where it is specific and reasonable early-90s
    engineering practice where it is not; every knob exists because some
    experiment or ablation varies it. *)

type on_loop =
  | Discard_packet
      (** After dissolving the loop, drop the packet (Section 5.3). *)
  | Tunnel_home
      (** After dissolving, re-tunnel toward the home agent
          (Section 5.3's alternative). *)

type t = {
  max_prev_sources : int;
  (** Maximum length of the MHRP header's previous-source list before
      truncation triggers the update fan-out of Section 4.4.  Ablated in
      experiment E5. *)
  cache_capacity : int;
  (** Cache-agent entries (LRU beyond this, Section 2: "finite cache
      space ... any local cache replacement policy"). *)
  update_min_interval : Netsim.Time.t;
  (** Per-destination floor between location update transmissions
      (Section 4.3's flooding-avoidance requirement). *)
  advert_interval : Netsim.Time.t;
  (** Period of agent advertisements (Section 3). *)
  advert_lifetime : Netsim.Time.t;
  (** How long a mobile host trusts its current agent without hearing an
      advertisement.  Expiry means the host "notices its own movement"
      (Section 3, implicit disconnection): it returns to searching and
      solicits.  Conventionally ~3 advertisement periods (RFC 1256).
      When MHRP runs over the distributed routing plane rather than the
      oracle (E18), this lifetime also bounds how long a mobile host
      keeps trusting an agent that a routing outage has made
      unreachable: it should comfortably exceed the routing
      reconvergence time ([Lsr.Config] dead detection + SPF, about
      [dead_count * hello_interval]), or cells detach on every routing
      blip. *)
  forwarding_pointers : bool;
  (** Old foreign agents keep a cache entry pointing at the new foreign
      agent (Section 2). *)
  on_loop : on_loop;
  verify_recovered_visitors : bool;
  (** A rebooted foreign agent told by a location update that a mobile host
      is "its" verifies presence with a local query before re-adding it
      (Section 5.2). *)
  ha_persistent : bool;
  (** The home agent's location database survives reboots (Section 2:
      "should also be recorded on disk"). *)
  authenticate : bool;
  (** Require a valid authentication extension (keyed MAC + anti-replay,
      RFC 2002 style) on registrations, control messages and location
      updates before mutating any routing state — the countermeasure to
      the hijacking adversary of experiment E15.  Messages about mobile
      hosts with no installed security association are rejected. *)
  reliable_control : bool;
  (** Acknowledge and retransmit unicast control messages (registration
      requests, foreign-agent connects, replica syncs; {!Exchange}).
      Without this, a single lost registration strands the mobile host
      until the next advertisement cycle — or forever, if the loss
      repeats. *)
  control_rto : Netsim.Time.t;
  (** Initial control retransmission timeout; doubles per retry
      (exponential backoff). *)
  control_retries : int;
  (** Retransmissions before giving up on a control exchange. *)
  hierarchy : bool;
  (** Hierarchical registration (regional foreign-agent aggregation, the
      ROADMAP's H-MLBN-style extension).  Foreign agents provisioned with
      a regional parent ({!Agent.set_regional_parent}) hand it to mobile
      hosts at connect time; the home agent then records the {e regional}
      agent as the host's location, and intra-region handoffs update only
      the regional agent's binding table — the home agent is never
      contacted, cutting long-haul control traffic per handoff (E19).
      Off by default: flat mode is byte-identical to the pre-hierarchy
      protocol. *)
  regional_lifetime : Netsim.Time.t;
  (** Soft-state lifetime of a regional binding, at most 65,535 s
      ({!make} raises [Invalid_argument] beyond): [Reg_region] carries it
      as u16 seconds.  The regional agent evicts bindings not refreshed
      within it, so lost withdrawals and crashed foreign agents self-heal
      instead of blackholing.  [Netsim.Time.zero] disables expiry (hard
      state, the pre-failover behaviour).  Default 300 s — far beyond
      experiment horizons, so enabling it perturbs no gated counter. *)
  regional_refresh : Netsim.Time.t;
  (** How often a registered mobile re-sends [Reg_region] to keep its
      binding alive.  [Netsim.Time.zero] (the default) derives a third of
      [regional_lifetime], mirroring the 3-adverts-per-lifetime
      convention.  The refresh doubles as a liveness probe: a refresh that
      exhausts its retransmissions triggers regional-agent failover.  An
      explicit interval also selects the failure-recovery profile: foreign
      agents then report their regional parent (not themselves) in
      delivery location updates, pinning correspondent caches to the
      region's stable entry point so failover, mirror-peer takeover and
      grace-pointer chasing stay invisible to senders (E20). *)
  regional_grace : Netsim.Time.t;
  (** Lifetime of the forwarding pointer an old regional agent keeps after
      an inter-region handoff ([Region_forward]): tunneled packets that
      race the home agent's update are re-tunneled to the new regional
      agent instead of dropped.  [Netsim.Time.zero] disables pointers —
      the mobile withdraws its old binding outright. *)
}

val default : t
(** max list 8, cache 64 entries, 1 s update interval, 10 s
    advertisements with a 30 s lifetime, forwarding pointers on, discard
    on loop, no visitor verification, persistent home agent;
    authentication off; unreliable control plane (300 ms initial RTO and
    5 retries when [reliable_control] is enabled). *)

val make :
  ?max_prev_sources:int ->
  ?cache_capacity:int ->
  ?update_min_interval:Netsim.Time.t ->
  ?advert_interval:Netsim.Time.t ->
  ?advert_lifetime:Netsim.Time.t ->
  ?forwarding_pointers:bool ->
  ?on_loop:on_loop ->
  ?verify_recovered_visitors:bool ->
  ?ha_persistent:bool ->
  ?authenticate:bool ->
  ?reliable_control:bool ->
  ?control_rto:Netsim.Time.t ->
  ?control_retries:int ->
  ?hierarchy:bool ->
  ?regional_lifetime:Netsim.Time.t ->
  ?regional_refresh:Netsim.Time.t ->
  ?regional_grace:Netsim.Time.t ->
  unit ->
  t
(** [make ()] is [default]; each label overrides one field.  Prefer this
    over [{ default with ... }] record syntax: new fields added to [t]
    keep call sites compiling without edits.  The bare record type stays
    public for exhaustive construction and pattern matching. *)
