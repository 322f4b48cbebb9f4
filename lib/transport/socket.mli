(** Connection-oriented transport over MHRP: the socket API.

    This is the single application-facing interface of the transport
    layer.  Applications [listen], [connect], [send] byte streams and
    receive them through [recv_cb]; underneath, each socket runs a
    three-way handshake, sliding-window transfer with cumulative acks,
    go-back-N retransmission on an exponentially-backed-off RTO timer,
    and an orderly FIN teardown — all over {!Ipv4.Tcp_lite} segments
    carried by the MHRP agent's mobility-aware send
    ({!Mhrp.Agent.originate}), so connections survive hand-offs
    transparently.

    Segments live on wire bytes.  The send stream is the application's
    own chunks, held by reference ({!Send_queue}) and each released once
    the peer has acknowledged its last byte, so a connection holds the
    chunks that still contain an unacknowledged byte, each of them
    whole.  A segment's data is copied once,
    from those chunks straight into the outgoing packet, with its
    header written around it; a received segment is read in place, and
    its in-order data handed to [recv_cb] in place — never copied.  Only
    an out-of-order segment is copied, because the socket must keep it
    until the gap fills, and only one that starts inside the window the
    socket advertises.  Counting and demultiplexing allocate nothing,
    and the RTO timer is the call of a top-level function on the socket
    ({!Netsim.Engine.call_after}), so arming it allocates nothing
    either: a segment costs its packet and the frames that carry it.

    No application-level code should construct raw TCP segments;
    {!Stack}'s low-level hooks exist only for this module.

    Everything is driven by the node's {!Netsim.Engine}, with no global
    state: simulations built on sockets are bit-identical under
    [--jobs N]. *)

type t

(** {1 Opening connections} *)

type listener

val listen :
  Stack.t -> port:int -> ?mss:int -> ?window:int -> ?max_retries:int ->
  (t -> unit) -> listener
(** [listen stack ~port accept] accepts connections on [port].  [accept]
    runs when the SYN arrives — before the SYN|ACK is sent and before
    any data can exist — so callbacks installed there never miss bytes.
    Raises [Invalid_argument] if the port already has a listener. *)

val close_listener : listener -> unit
(** Stop accepting; established connections are unaffected. *)

val connect :
  Stack.t -> ?src_port:int -> ?mss:int -> ?window:int -> ?max_retries:int ->
  dst:Ipv4.Addr.t -> dst_port:int -> unit -> t
(** Active open: sends the SYN immediately and returns the socket in the
    syn-sent state.  [send] may be called right away — bytes queue and
    flush once established.  Defaults: an ephemeral [src_port] (the
    stack's next one not in use to [dst]:[dst_port], see
    {!Stack.fresh_ephemeral_port}, which raises [Failure] when all are),
    [mss] 512 bytes, [window] 4096 bytes in flight, and giving up
    after [max_retries] 12 consecutive unacknowledged timeouts.  The
    retransmission timeout starts at 300 ms and doubles up to 5 s. *)

(** {1 The stream} *)

val send : t -> bytes -> unit
(** Append [data] to the send stream, by reference: the socket keeps
    [data] itself, not a copy, until every byte of it is acknowledged
    (or the connection closes), and reads it for each transmission and
    retransmission.  So the caller must not write to [data] afterwards;
    sending one unchanging buffer many times is fine.  Never pass
    [recv_cb]'s [buf], which is valid only for the call: copy the chunk
    out first ([Bytes.sub buf off len]).  Transmits up to the window
    immediately when established, queues otherwise.  Raises
    [Invalid_argument] after [close]. *)

val recv_cb : t -> (bytes -> int -> int -> unit) -> unit
(** [recv_cb t f] calls [f buf off len] with each in-order chunk of the
    peer's stream — the [len] bytes at [off] of [buf] — exactly once per
    byte, in order; out-of-order segments are buffered and delivered when
    the gap fills.  The chunk is handed over in place: [buf] is the
    received packet's (or the out-of-order buffer's), valid only for the
    call, like a protocol handler's view.  [f] must not write to it, and
    copies out what it keeps ([Buffer.add_subbytes], [Bytes.sub]). *)

val close : t -> unit
(** Orderly shutdown: a FIN is sent once all queued data has been
    transmitted; the connection finishes tearing down as acks and the
    peer's FIN arrive.  Idempotent. *)

val abort : t -> unit
(** Send a RST and drop the connection immediately. *)

(** {1 Events} *)

val on_established : t -> (unit -> unit) -> unit
val on_drained : t -> (unit -> unit) -> unit
(** Every byte queued so far has been acknowledged. *)

val on_peer_close : t -> (unit -> unit) -> unit
(** The peer's FIN arrived: no more data will be delivered. *)

val on_error : t -> (string -> unit) -> unit
(** Reset by peer, or retransmission limit reached; the socket is closed
    when this fires. *)

val on_closed : t -> (unit -> unit) -> unit

(** {1 Introspection} *)

val counters : t -> Counters.t
(** This connection's counters; the stack aggregates them too. *)

val is_established : t -> bool
val is_closed : t -> bool
val local_port : t -> int

val bytes_queued : t -> int
(** Stream bytes not yet acknowledged (queued or in flight). *)

(** {1 Datagrams}

    The unreliable little sibling, for one-shot packets (probes). *)

module Dgram : sig
  type t

  val create : Stack.t -> port:int -> t
  (** A datagram endpoint bound to [port] for sending.  Creating one
      claims nothing — a send-only endpoint leaves the agent's receive
      tap alone. *)

  val sendto : t -> dst:Ipv4.Addr.t -> dst_port:int -> bytes -> unit
  (** One UDP datagram, written once into its packet
      ({!Mhrp.Agent.send_udp}) under the stack's next IP identification
      ({!Stack.fresh_ip_id}). *)

  val on_recv :
    t -> (src:Ipv4.Addr.t -> src_port:int -> bytes -> int -> int -> unit) ->
    unit
  (** Bind the port for receiving (this installs the stack's receive
      tap): [f ~src ~src_port buf off len] gets each datagram's data, the
      [len] bytes at [off] of [buf], in place and valid only for the
      call, as {!recv_cb} gets a stream's.  Raises [Invalid_argument] if
      the port is already bound. *)
end
