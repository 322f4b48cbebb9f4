(** Datagram traffic generation, wired into {!Metrics}.

    Each datagram is written once into its packet by
    {!Mhrp.Agent.send_udp} and noted from its fields
    ({!Metrics.note_sent}); connected request/response traffic is
    {!Apps.Rpc}'s.  Payloads are zero bytes, so a run's packets are the
    same on every execution.

    Each datagram gets its own IP id (16-bit, from [first_id],
    wrapping past 0xFFFF to 1, never 0), so each is individually
    trackable. *)

type t

val create : ?first_id:int -> Metrics.t -> Netsim.Engine.t -> t

val send_udp : t -> src:Mhrp.Agent.t -> dst:Ipv4.Addr.t -> ?size:int ->
  unit -> unit
(** Send one UDP datagram now ([size] zero bytes of payload, default
    64) from port 4000 to port 4000, recording it in the metrics. *)

val at : t -> Netsim.Time.t -> (unit -> unit) -> unit
(** Schedule an action at an absolute time. *)

val cbr :
  t -> src:Mhrp.Agent.t -> dst:Ipv4.Addr.t -> start:Netsim.Time.t ->
  interval:Netsim.Time.t -> count:int -> unit -> unit
(** Constant-bit-rate flow: [count] datagrams of {!send_udp}'s default
    size, one per [interval]. *)
