module Time = Netsim.Time
module Engine = Netsim.Engine
module Socket = Transport.Socket
module Stack = Transport.Stack

type stats = {
  chunks : int;
  sent : int;
  retransmissions : int;
  acks : int;
  completed_at : Time.t option;
}

type t = {
  total_chunks : int;
  bytes : int;
  data : bytes;
  recvbuf : Buffer.t;
  mutable sock : Socket.t option;
  mutable completed_at : Time.t option;
}

(* The transfer must ride out arbitrarily long hand-off and failure
   blackouts, like the raw go-back-N loop it replaces: in practice the
   backoff cap bounds the retry interval, so a huge retry budget means
   "never give up within a simulation". *)
let retry_budget = 1_000

let start ?(chunk = 512) ?(window = 8) ~sender ~receiver ~bytes ~at () =
  if chunk <= 0 || window <= 0 || bytes <= 0 then invalid_arg "Reliable.start";
  let engine = Net.Node.engine (Mhrp.Agent.node sender) in
  let data = Bytes.init bytes (fun i -> Char.chr (i land 0xFF)) in
  let t =
    { total_chunks = (bytes + chunk - 1) / chunk;
      bytes;
      data;
      recvbuf = Buffer.create bytes;
      sock = None;
      completed_at = None }
  in
  let receiver_stack = Stack.create receiver in
  ignore
    (Socket.listen receiver_stack ~port:5002 ~mss:chunk
       ~window:(window * chunk) ~max_retries:retry_budget (fun sock ->
         Socket.recv_cb sock (Buffer.add_subbytes t.recvbuf)));
  let sender_stack = Stack.create sender in
  ignore
    (Engine.schedule engine ~at (fun () ->
         let sock =
           Socket.connect sender_stack ~src_port:5001 ~mss:chunk
             ~window:(window * chunk) ~max_retries:retry_budget
             ~dst:(Mhrp.Agent.address receiver) ~dst_port:5002 ()
         in
         t.sock <- Some sock;
         Socket.on_drained sock (fun () ->
             t.completed_at <- Some (Engine.now engine));
         Socket.send sock data));
  t

let stats t =
  match t.sock with
  | None ->
    { chunks = t.total_chunks; sent = 0; retransmissions = 0; acks = 0;
      completed_at = None }
  | Some sock ->
    let c = Socket.counters sock in
    { chunks = t.total_chunks;
      sent = c.Transport.Counters.data_segs_sent;
      retransmissions = c.Transport.Counters.retransmissions;
      acks = c.Transport.Counters.acks_received;
      completed_at = t.completed_at }

let complete t = t.completed_at <> None

let received_ok t =
  Buffer.length t.recvbuf = t.bytes
  && Bytes.equal (Buffer.to_bytes t.recvbuf) t.data
