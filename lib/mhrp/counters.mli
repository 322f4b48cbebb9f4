(** Per-agent protocol event counters, read by tests and experiments. *)

type t = {
  mutable tunnels_built : int;
      (** Initial encapsulations (home agent or cache agent). *)
  mutable retunnels : int;  (** Section 4.4 re-tunnel operations. *)
  mutable detunnels : int;  (** Packets stripped and delivered locally. *)
  mutable updates_sent : int;
  mutable updates_received : int;
  mutable loops_detected : int;
  mutable loops_dissolved : int;
  mutable list_truncations : int;
  mutable registrations : int;  (** Home-agent database writes. *)
  mutable fa_connects : int;
  mutable fa_disconnects : int;
  mutable intercepts : int;  (** Packets captured for away mobile hosts. *)
  mutable icmp_errors_reversed : int;  (** Section 4.5 reversal steps. *)
  mutable recoveries : int;  (** Section 5.2 visitor re-adds. *)
  mutable control_messages : int;
      (** All control traffic originated (registrations, notifications,
          updates, advertisements): the scalability experiment's
          per-protocol cost metric. *)
  mutable auth_ok : int;
      (** Messages whose authentication extension verified. *)
  mutable auth_fail : int;
      (** Messages rejected for a missing extension, unknown association,
          SPI mismatch or bad MAC. *)
  mutable replay_drop : int;
      (** Correctly MACed messages rejected as stale or replayed. *)
  mutable reg_retransmissions : int;
      (** Registration requests re-sent after an unacknowledged RTO
          ([Config.reliable_control]). *)
  mutable connect_retransmissions : int;
      (** Foreign-agent connect notifications re-sent. *)
  mutable sync_retransmissions : int;
      (** Home-agent replica syncs re-sent. *)
  mutable retransmit_gave_up : int;
      (** Control exchanges abandoned after [Config.control_retries]. *)
  mutable regional_registrations : int;
      (** Regional-agent binding writes ([Config.hierarchy]) — intra-region
          registrations absorbed without contacting the home agent. *)
  mutable regional_retunnels : int;
      (** Tunneled packets a regional agent re-tunneled to the serving
          foreign agent through its binding table. *)
  mutable region_retransmissions : int;
      (** Regional registrations re-sent under [Config.reliable_control]. *)
  mutable regional_forwards : int;
      (** Tunneled packets a regional agent re-tunneled along an
          inter-region forwarding pointer during the handoff grace
          period. *)
  mutable regional_invalidations : int;
      (** Regional bindings dropped on a foreign agent's visitor-list-miss
          bounce (the hierarchical counterpart of the flat path's ICMP
          invalidation). *)
  mutable regional_expirations : int;
      (** Regional bindings evicted because their soft-state lifetime ran
          out unrefreshed ([Config.regional_lifetime]). *)
  mutable region_failovers : int;
      (** Times a mobile host abandoned an unresponsive regional agent —
          switching to the advertised backup, or falling back to direct
          home-agent registration when the region has none. *)
  mutable region_sync_retransmissions : int;
      (** Primary-to-backup binding mirrors re-sent under
          [Config.reliable_control]. *)
  mutable region_takeovers : int;
      (** Times this regional agent captured its unresponsive mirror
          peer's address (gratuitous ARP + proxy) so traffic tunneled at
          the dead peer reaches the mirrored binding table. *)
}

val create : unit -> t

val pp : Format.formatter -> t -> unit
