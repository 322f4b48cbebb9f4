(** Transport counters, kept per connection and aggregated per stack.

    All counts are deterministic functions of the simulation, so
    experiments gate them exactly. *)

type t = {
  mutable segs_sent : int;  (** Every segment transmitted. *)
  mutable segs_received : int;  (** Every well-formed segment demuxed. *)
  mutable data_segs_sent : int;
  (** Segments carrying payload, retransmissions included. *)
  mutable data_bytes_sent : int;
  mutable data_bytes_received : int;
  (** Payload bytes delivered to the application, in order, once. *)
  mutable retransmissions : int;  (** Segments re-sent by the RTO timer. *)
  mutable acks_received : int;
  mutable out_of_order : int;  (** Data segments buffered above a gap. *)
  mutable duplicates : int;  (** Data segments wholly below [rcv_nxt]. *)
  mutable resets_sent : int;
  mutable resets_received : int;
  mutable conns_opened : int;  (** Active opens ([connect]). *)
  mutable conns_accepted : int;  (** Passive opens (listener SYNs). *)
  mutable conns_established : int;
  mutable conns_closed : int;  (** Orderly FIN teardowns completed. *)
  mutable conns_failed : int;  (** Handshakes or transfers given up. *)
}

val create : unit -> t
val add : into:t -> t -> unit
