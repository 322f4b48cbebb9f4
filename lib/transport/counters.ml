type t = {
  mutable segs_sent : int;
  mutable segs_received : int;
  mutable data_segs_sent : int;
  mutable data_bytes_sent : int;
  mutable data_bytes_received : int;
  mutable retransmissions : int;
  mutable acks_received : int;
  mutable out_of_order : int;
  mutable duplicates : int;
  mutable resets_sent : int;
  mutable resets_received : int;
  mutable conns_opened : int;
  mutable conns_accepted : int;
  mutable conns_established : int;
  mutable conns_closed : int;
  mutable conns_failed : int;
}

let create () =
  { segs_sent = 0; segs_received = 0; data_segs_sent = 0;
    data_bytes_sent = 0; data_bytes_received = 0; retransmissions = 0;
    acks_received = 0; out_of_order = 0; duplicates = 0; resets_sent = 0;
    resets_received = 0; conns_opened = 0; conns_accepted = 0;
    conns_established = 0; conns_closed = 0; conns_failed = 0 }

let add ~into c =
  into.segs_sent <- into.segs_sent + c.segs_sent;
  into.segs_received <- into.segs_received + c.segs_received;
  into.data_segs_sent <- into.data_segs_sent + c.data_segs_sent;
  into.data_bytes_sent <- into.data_bytes_sent + c.data_bytes_sent;
  into.data_bytes_received <- into.data_bytes_received + c.data_bytes_received;
  into.retransmissions <- into.retransmissions + c.retransmissions;
  into.acks_received <- into.acks_received + c.acks_received;
  into.out_of_order <- into.out_of_order + c.out_of_order;
  into.duplicates <- into.duplicates + c.duplicates;
  into.resets_sent <- into.resets_sent + c.resets_sent;
  into.resets_received <- into.resets_received + c.resets_received;
  into.conns_opened <- into.conns_opened + c.conns_opened;
  into.conns_accepted <- into.conns_accepted + c.conns_accepted;
  into.conns_established <- into.conns_established + c.conns_established;
  into.conns_closed <- into.conns_closed + c.conns_closed;
  into.conns_failed <- into.conns_failed + c.conns_failed
