(** Compiles a {!Schedule.t} onto a topology's event queue.

    Each schedule item becomes engine timers: link flaps and partitions
    toggle {!Net.Lan.set_up}, crashes run {!Net.Node.crash_for} (volatile
    state dropped on reboot, routing table retained), and control-loss
    windows install a {!Net.Node.set_fault_filter} on every node — present
    and future — that drops MHRP control transmissions with the given
    probability, drawn from the injector's own seeded stream.

    Everything the injector actually does is written to a ledger, one
    entry per state transition at the simulated time it happened, so a
    campaign's fault history can be recorded alongside its metrics and
    two runs with the same seed can be diffed event-for-event. *)

type t

val create : ?seed:int -> Net.Topology.t -> t
(** [seed] (default [0xFA17]) feeds the loss stream only; it is
    independent of the topology's own RNG so adding faults does not
    perturb workload arrival times. *)

val inject : t -> Schedule.t -> unit
(** Compile the schedule onto the engine.  Call before [Topology.run];
    items whose times have already passed will never fire.  Raises
    [Invalid_argument] on an unknown LAN or node name, or a control-loss
    rate outside [0, 1].  May be called more than once; later calls add
    to the same ledger and loss-span set. *)

(** {1 Ledger and accounting} *)

val ledger : t -> (Netsim.Time.t * string) list
(** Every injected transition, oldest first: ["lan-down net-b"],
    ["crash r4"], ["reboot r4"], ["partition [...]"], ["heal [...]"],
    ["control-loss 0.30 on"/"off"]. *)

val events : t -> int

val windows : t -> (Netsim.Time.t * Netsim.Time.t) list
(** The disruptive spans [(start, end)] of every item, sorted by start —
    the periods during which delivery guarantees are suspended. *)

val lan_flaps : t -> int
val crashes : t -> int
val partitions : t -> int
val loss_windows : t -> int

val control_losses : t -> int
(** Control transmissions actually dropped by the loss filter. *)

val is_control : Ipv4.Packet.t -> bool
(** The loss filter's own classifier, exported for byte accounting:
    [true] for MHRP control traffic in any of its encodings (port-434
    UDP, the MHRP ICMP messages, either inside an MHRP tunnel).
    Link-state routing traffic ({!Ipv4.Proto.lsrp}) is {e not} control
    in this sense — faults reach it through link flaps, crashes and
    partitions rather than the MHRP control-loss dice. *)
