(** A reliable byte-stream transfer over {!Transport.Socket}.

    The paper's user-visible claim is transparency: "no changes are
    required in mobile hosts above the IP level" and connections survive
    movement because a mobile host "always uses only its home address".
    This module is the demonstration workload: one connected socket
    carrying a sized transfer, whose delivery completes across any
    number of hand-offs — segments lost in a hand-off window are simply
    retransmitted to the same (home) address by the socket's RTO timer.

    One transfer per (sender, receiver) pair at a time: it owns both
    agents' transport stacks (and therefore their app taps) while
    running. *)

type t

type stats = {
  chunks : int;  (** Data segments a loss-free transfer needs. *)
  sent : int;  (** Data segments actually transmitted. *)
  retransmissions : int;
  acks : int;  (** Pure acknowledgment segments the sender received. *)
  completed_at : Netsim.Time.t option;
}

val start :
  ?chunk:int -> ?window:int -> sender:Mhrp.Agent.t ->
  receiver:Mhrp.Agent.t -> bytes:int -> at:Netsim.Time.t -> unit -> t
(** Begin transferring [bytes] of data at time [at]: the sender connects
    to the receiver's port 5002, writes the whole payload, and the
    socket's sliding window does the rest.  [chunk] becomes the
    connection's MSS and [window] its in-flight cap (in segments).
    Defaults: 512-byte chunks, window of 8 segments, 300 ms initial
    retransmission timeout. *)

val stats : t -> stats
val complete : t -> bool

val received_ok : t -> bool
(** All bytes arrived intact and in order at the receiver. *)
