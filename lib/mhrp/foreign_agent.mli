(** Foreign-agent state: the list of locally visiting mobile hosts
    (Section 2).

    Each entry maps a visiting host's home address to what the agent needs
    for last-hop delivery: the interface it is reachable on and, when known
    from the connection notification, its link address.  A visitor re-added
    by the Section 5.2 recovery procedure has no recorded link address and
    is delivered to via ARP instead.  Volatile: a reboot clears it. *)

type visitor = {
  mobile : Ipv4.Addr.t;
  mac : Net.Mac.t option;
  iface : int;
}

type t

val create : unit -> t
val add : t -> visitor -> unit
val remove : t -> Ipv4.Addr.t -> unit
val find : t -> Ipv4.Addr.t -> visitor option
val mem : t -> Ipv4.Addr.t -> bool
val clear : t -> unit
val count : t -> int
val state_bytes : t -> int
