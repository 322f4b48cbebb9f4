(** Link-state protocol timers.

    Defaults are scaled to the simulator's LAN latencies (hundreds of
    microseconds): sub-second hellos converge a campus internetwork in a
    few hundred milliseconds, which keeps convergence experiments short
    while still letting fault windows comfortably outlast detection.

    Fixed policy: a neighbor silent for 3 hello periods is declared dead
    and the router re-originates its LSA without it; a database change
    triggers SPF after a 10 ms hold-down, so changes arriving inside the
    window coalesce into one recompute; and installing SPF results keeps
    the /32 entries already in the node's table — LSR itself only ever
    installs network prefixes, so this is what lets MHRP's optional
    host-specific routes (Section 3 of the paper) coexist with a live
    routing protocol. *)

type t = {
  hello_interval : Netsim.Time.t;
  (** Period of hello beacons on every up interface; also the period of
      the dead-neighbor scan and the carrier-sense check. *)
  refresh_interval : Netsim.Time.t;
  (** Floor between periodic re-originations of the router's own LSA.
      Refresh repopulates peers that lost their database (reboot) even
      when no triggered origination happens. *)
}

val default : t
(** 500 ms hellos and 10 s refresh. *)

val make :
  ?hello_interval:Netsim.Time.t -> ?refresh_interval:Netsim.Time.t -> unit ->
  t
(** [make ()] is [default]; each label overrides one field. *)
