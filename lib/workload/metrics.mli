(** Per-packet measurement: hops, latency, wire overhead, delivery.

    Tracked packets are keyed by (source address, IP id); the workload
    allocates unique ids per flow.  The IP id survives MHRP tunneling
    (only protocol/addresses are rewritten), so a packet is followed
    end-to-end across any number of tunnels. *)

type key = Ipv4.Addr.t * int

type record = {
  key : key;
  sent_at : Netsim.Time.t;
  sent_bytes : int;  (** Wire size before any tunneling. *)
  mutable hops : int;  (** LAN traversals observed (unicast transmissions). *)
  mutable max_bytes : int;  (** Largest wire size seen en route. *)
  mutable delivered_at : Netsim.Time.t option;
  mutable dropped : string option;
}

type t

val create : Net.Topology.t -> t
(** Installs forward/drop taps on every node currently in the topology. *)

val note_sent : t -> src:Ipv4.Addr.t -> id:int -> bytes:int -> unit
(** Track a packet about to be sent, from its fields: its source, IP id
    and total length before any tunneling — for a sender that writes
    the packet straight onto the wire ({!Mhrp.Agent.send_udp}) and
    builds no record. *)

val note_send : t -> Ipv4.Packet.t -> unit
(** {!note_sent} of the application-level packet just before handing it
    to {!Mhrp.Agent.send} (or {!Net.Node.send}). *)

val note_delivery : t -> Ipv4.Packet.t -> unit
(** Call from the destination's app-receive tap. *)

val watch_receiver : t -> Mhrp.Agent.t -> unit
(** Register [note_delivery] as the agent's app tap. *)

val records : t -> record list
(** In send order. *)

val delivered : t -> record list
val dropped : t -> record list

val delivery_ratio : t -> float
val mean_hops : t -> float
(** Over delivered packets. *)

val mean_latency_us : t -> float
val mean_overhead_bytes : t -> float
(** Mean of [max_bytes - sent_bytes] over delivered packets. *)

val record_obs :
  t -> Obs.Registry.t -> exp:string -> ?labels:(string * string) list ->
  unit -> unit
(** Flow-level aggregates (packet/delivery counts, mean hops, latency and
    wire overhead, plus a latency p50/p95/max histogram) recorded into the
    registry under the given experiment id.  Counts, hops and overhead are
    gated exactly; latencies at ±20%. *)

val pp_summary : Format.formatter -> t -> unit
