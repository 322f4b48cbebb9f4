(** Declarative failure schedules for fault-injection campaigns.

    A schedule is pure data: the set of faults a campaign injects, each
    pinned to simulated time.  {!Injector.inject} compiles it onto the
    engine's timer queue, so two runs of the same schedule over the same
    topology and seed replay identically. *)

type item =
  | Lan_down of {
      lan : string;  (** LAN name, as registered with the topology. *)
      at : Netsim.Time.t;
      duration : Netsim.Time.t;
    }  (** Link flap: the LAN carries no frames during the span. *)
  | Crash of {
      node : string;  (** Node name. *)
      at : Netsim.Time.t;
      duration : Netsim.Time.t;
    }
      (** Router/host crash and reboot: down for the span, then
          {!Net.Node.reboot} drops volatile state (ARP caches, visitor
          lists) while the routing table survives. *)
  | Partition of {
      lans : string list;
      at : Netsim.Time.t;
      duration : Netsim.Time.t;
    }  (** Several LANs fail together, splitting the internetwork. *)
  | Control_loss of {
      rate : float;  (** Per-message loss probability in [0, 1]. *)
      from_ : Netsim.Time.t;
      until : Netsim.Time.t;
    }
      (** Every MHRP control message (port-434 datagrams — also inside
          MHRP tunnels — location updates, agent advertisements and
          solicitations) is lost with this probability, drawn from the
          injector's own seeded stream.  The roll happens once per
          message, at its originating node, not per hop.  Data packets
          pass. *)

type t = item list
