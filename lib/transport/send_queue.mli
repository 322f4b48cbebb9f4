(** A connection's unacknowledged send stream: the application's own
    chunks, held by reference, in order.

    Chunks are addressed by sequence number: the queue knows the
    sequence number of its first chunk's first byte, so a byte's chunk
    and offset follow from the lengths of the chunks before it.  A chunk
    is released, whole, once the peer has acknowledged its last byte,
    so the queue holds at most the chunks that overlap the unacknowledged
    stream.  Queueing a chunk copies nothing and, once the ring has
    grown to the connection's largest backlog, allocates nothing. *)

type t

val create : seq:int -> t
(** An empty queue whose first byte will have sequence number [seq]. *)

val push : t -> bytes -> unit
(** Append a chunk, by reference: the queue reads it until it is
    released, so its owner must not write to it before then.  An empty
    chunk is not kept. *)

val end_seq : t -> int
(** The sequence number just past the last byte ever pushed ([seq] of
    {!create} for an empty stream).  {!release} and {!clear} leave it
    unchanged. *)

val release : t -> upto:int -> unit
(** Drop every chunk whose last byte comes before sequence number
    [upto]: the peer has acknowledged it. *)

val clear : t -> unit
(** Drop every chunk: the connection has closed. *)

val blit : t -> seq:int -> bytes -> off:int -> len:int -> unit
(** [blit q ~seq dst ~off ~len] copies the [len] stream bytes from
    sequence number [seq] on to [dst] at [off], across chunk
    boundaries.  Raises [Invalid_argument] unless those bytes are all
    still held. *)
