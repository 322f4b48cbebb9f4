(** Application workloads over {!Transport.Socket}.

    Three app shapes for exercising connections across hand-offs, built
    purely on the socket API (no raw segments anywhere):

    - {!Rpc}: request/response with per-request completion latency;
    - {!Chat}: a fan-out room where every message is timestamped, giving
      client-to-client latencies through a relay;
    - {!Bulk}: a long single transfer tracking goodput and the longest
      mid-stream stall (the hand-off metric).

    All latency accounting starts at intended send time, so time spent
    blocked by a hand-off or failure counts against the SLO. *)

module Rpc : sig
  type client

  val serve :
    Transport.Stack.t -> port:int -> req_bytes:int -> resp_bytes:int -> unit
  (** Answer every complete [req_bytes]-byte request on [port] with a
      [resp_bytes]-byte response, on every accepted connection. *)

  val start :
    client:Transport.Stack.t -> server:Ipv4.Addr.t -> ?port:int ->
    ?req_bytes:int -> ?resp_bytes:int -> start:Netsim.Time.t ->
    interval:Netsim.Time.t -> count:int -> unit -> client
  (** One connection, [count] requests, one per [interval]. *)

  val responses : client -> int

  val latencies_us : client -> float list
  (** Request-to-response latencies in completion order. *)
end

module Chat : sig
  type room

  val room : Transport.Stack.t -> port:int -> msg_bytes:int -> room
  (** Host a room: each complete [msg_bytes]-byte message from any
      member is relayed to every other member. *)

  val relayed : room -> int
  val members : room -> int

  type member

  val join :
    Transport.Stack.t -> server:Ipv4.Addr.t -> port:int -> msg_bytes:int ->
    at:Netsim.Time.t -> unit -> member

  val say : member -> at:Netsim.Time.t -> unit
  (** Send one message at time [at] (dropped if the member is not yet
      connected).  Messages embed their send time in the first 8 bytes;
      [msg_bytes] must be at least 8. *)

  val sent : member -> int
  val received : member -> int

  val latencies_us : member -> float list
  (** Sender-to-this-member latencies through the relay, in arrival
      order. *)
end

module Bulk : sig
  val serve : Transport.Stack.t -> port:int -> bytes:int -> unit
  (** Push [bytes] of a checkable pattern to each accepted connection,
      then close. *)

  type fetch

  val fetch :
    Transport.Stack.t -> server:Ipv4.Addr.t -> ?port:int -> bytes:int ->
    at:Netsim.Time.t -> unit -> fetch

  val complete : fetch -> bool
  val intact : fetch -> bool
  (** Every byte arrived, in order, matching the pattern. *)

  val completion_us : fetch -> int option
  (** Connect-to-last-byte time. *)

  val max_stall_us : fetch -> int
  (** Longest gap between consecutive deliveries — the transfer's worst
      hand-off-induced stall. *)

  val received : fetch -> int
  val goodput_kbps : fetch -> float option
end
