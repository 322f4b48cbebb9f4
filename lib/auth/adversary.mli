(** An in-simulator attacker targeting one mobile host.

    The adversary is an ordinary {!Net.Node.t} the experiment attaches
    somewhere on the internetwork.  It does not run the MHRP stack; it
    emits hand-crafted wire bytes — exactly the capability a hostile
    host on a transit network has:

    - {b forgery}: fabricate a registration or ICMP location update
      claiming the victim moved to a foreign agent of the attacker's
      choosing (typically itself), redirecting the victim's traffic;
    - {b capture & replay}: promiscuously record the victim's genuine
      (possibly authenticated) registrations off a LAN and re-send them
      later, re-installing a stale binding.

    Success is measured by the hijack counter: MHRP-encapsulated packets
    that arrive at the attacker carrying the victim's address. *)

type t

val create : victim:Ipv4.Addr.t -> Net.Node.t -> t
(** Arm a node: installs an MHRP protocol handler that counts tunneled
    packets stolen from [victim].  Events go to the node's trace under
    kinds ["forged-update"], ["capture"], ["replay"] and ["hijack"]. *)

val node : t -> Net.Node.t

(** {1 Attacks} *)

val forge_registration :
  t -> home_agent:Ipv4.Addr.t -> foreign_agent:Ipv4.Addr.t -> unit
(** Send the home agent a fabricated registration (IP source spoofed as
    the victim) placing the victim at [foreign_agent]. *)

val forge_location_update :
  t -> src:Ipv4.Addr.t -> dst:Ipv4.Addr.t -> foreign_agent:Ipv4.Addr.t -> unit
(** Send [dst] a fabricated ICMP location update, its IP source spoofed
    as [src] (normally the victim's home agent, whom caches trust). *)

val tap : t -> Net.Lan.t -> unit
(** Start promiscuously capturing the victim's registrations crossing
    the given LAN (frames the attacker itself sent are ignored). *)

val replay_captured : t -> unit
(** Re-send every captured registration, byte-identical payload in a
    fresh IP envelope. *)

val assume_address : t -> Ipv4.Addr.t -> unit
(** Claim an address (e.g. the foreign agent named in a captured
    registration) and announce it with gratuitous ARP on every attached
    LAN, so hijacked tunnels terminate at the attacker. *)

(** {1 Counters} *)

val forged : t -> int
val replayed : t -> int
val captured : t -> int

val hijacked : t -> int
(** Tunneled packets for the victim that reached the attacker. *)
