module Tcp = Ipv4.Tcp_lite
module Time = Netsim.Time
module Engine = Netsim.Engine

let adv_window = 0xFFFF
let default_mss = 512
let default_window = 4096
let rto_init = Time.of_ms 300
let rto_max = Time.of_sec 5.0
let default_max_retries = 12

(* The flags, as bits of the wire's flag byte. *)
let fin = Tcp.flag_bit Tcp.Fin
let syn = Tcp.flag_bit Tcp.Syn
let rst = Tcp.flag_bit Tcp.Rst
let ack = Tcp.flag_bit Tcp.Ack
let psh_ack = Tcp.flag_bit Tcp.Psh lor ack

(* How long a fully-torn-down endpoint lingers to re-ack a lost final
   segment before its demux entry is released. *)
let time_wait_delay = Time.of_ms 1000

type state =
  | Syn_sent
  | Syn_received
  | Established
  | Fin_wait_1
  | Fin_wait_2
  | Close_wait
  | Closing
  | Last_ack
  | Time_wait
  | Closed

type t = {
  stack : Stack.t;
  engine : Engine.t;
  local_port : int;
  remote : Ipv4.Addr.t;
  remote_port : int;
  mss : int;
  swnd : int;  (* our in-flight cap, bytes *)
  max_retries : int;
  counters : Counters.t;
  mutable state : state;
  (* Send side.  The stream is the application's chunks that still hold
     a byte from [snd_una] on, kept by reference and addressed by
     sequence number: a chunk is released once all of it is
     acknowledged, a retransmission reads from [snd_una], and each
     segment's data is copied straight from the chunks into the
     outgoing packet. *)
  iss : int;
  sendq : Send_queue.t;
  mutable snd_una : int;
  mutable snd_nxt : int;
  mutable peer_wnd : int;
  mutable fin_queued : bool;
  mutable fin_sent : bool;
  mutable drain_mark : int;
  (* Receive side: a cumulative-ack cursor plus a seq-sorted
     out-of-order list drained when the gap fills. *)
  mutable rcv_nxt : int;
  mutable ooo : (int * bytes) list;
  mutable peer_fin_seq : int option;
  mutable peer_fin_done : bool;
  (* One retransmission timer per connection, exponential backoff:
     [Netsim.Event_queue.no_handle] while none is armed. *)
  mutable timer : Netsim.Event_queue.handle;
  mutable rto_cur : Time.t;
  mutable retries : int;
  mutable established_cb : (unit -> unit) option;
  mutable recv : (bytes -> int -> int -> unit) option;
  mutable drained_cb : (unit -> unit) option;
  mutable peer_close_cb : (unit -> unit) option;
  mutable error_cb : (string -> unit) option;
  mutable closed_cb : (unit -> unit) option;
}

let make_sock stack ~local_port ~remote ~remote_port ~iss ~mss ~window
    ~max_retries ~state =
  { stack;
    engine = Stack.engine stack;
    local_port;
    remote;
    remote_port;
    mss;
    swnd = window;
    max_retries;
    counters = Counters.create ();
    state;
    iss;
    sendq = Send_queue.create ~seq:(iss + 1);
    snd_una = iss;
    snd_nxt = iss;
    peer_wnd = adv_window;
    fin_queued = false;
    fin_sent = false;
    drain_mark = iss + 1;
    rcv_nxt = 0;
    ooo = [];
    peer_fin_seq = None;
    peer_fin_done = false;
    timer = Netsim.Event_queue.no_handle;
    rto_cur = rto_init;
    retries = 0;
    established_cb = None;
    recv = None;
    drained_cb = None;
    peer_close_cb = None;
    error_cb = None;
    closed_cb = None }

(* Every count lands both on the connection and on its stack's
   aggregate.  [f] is a function literal that captures nothing, so a
   bump allocates nothing; [bump_by] passes it the amount to add. *)
let bump t f =
  f t.counters;
  f (Stack.counters t.stack)

let bump_by t f n =
  f t.counters n;
  f (Stack.counters t.stack) n

let data_end t = Send_queue.end_seq t.sendq

(* One segment of [len] stream bytes starting at [seq] (none for a
   control segment). *)
let emit t ~retransmit ~flags ~seq ~len =
  let ack_no = if flags land ack <> 0 then t.rcv_nxt else 0 in
  bump t (fun c -> c.Counters.segs_sent <- c.Counters.segs_sent + 1);
  if len > 0 then begin
    bump t (fun c ->
        c.Counters.data_segs_sent <- c.Counters.data_segs_sent + 1);
    bump_by t
      (fun c n -> c.Counters.data_bytes_sent <- c.Counters.data_bytes_sent + n)
      len
  end;
  if retransmit then
    bump t (fun c ->
        c.Counters.retransmissions <- c.Counters.retransmissions + 1);
  Stack.send_segment t.stack ~dst:t.remote ~src_port:t.local_port
    ~dst_port:t.remote_port ~seq ~ack:ack_no ~flags ~window:adv_window
    t.sendq ~len

let control t ?(retransmit = false) ~flags ~seq () =
  emit t ~retransmit ~flags ~seq ~len:0

let send_ack t = control t ~flags:ack ~seq:t.snd_nxt ()

let cancel_timer t =
  ignore (Engine.cancel t.engine t.timer);
  t.timer <- Netsim.Event_queue.no_handle

let unregister t =
  Stack.unregister_conn t.stack ~local_port:t.local_port ~remote:t.remote
    ~remote_port:t.remote_port

(* Every way into [Closed]: no timer, no demultiplexing entry, and no
   stream kept for a retransmission that will never come. *)
let shut t =
  t.state <- Closed;
  cancel_timer t;
  unregister t;
  Send_queue.clear t.sendq

let become_closed t =
  if t.state <> Closed then begin
    shut t;
    match t.closed_cb with Some f -> f () | None -> ()
  end

let fail t reason =
  if t.state <> Closed then begin
    bump t (fun c -> c.Counters.conns_failed <- c.Counters.conns_failed + 1);
    shut t;
    (match t.error_cb with Some f -> f reason | None -> ());
    match t.closed_cb with Some f -> f () | None -> ()
  end

let enter_time_wait t =
  if t.state <> Time_wait && t.state <> Closed then begin
    bump t (fun c -> c.Counters.conns_closed <- c.Counters.conns_closed + 1);
    t.state <- Time_wait;
    cancel_timer t;
    ignore
      (Engine.schedule_after t.engine ~delay:time_wait_delay (fun () ->
           become_closed t))
  end

let timer_allowed t =
  match t.state with Closed | Time_wait -> false | _ -> true

let rec try_send t =
  (match t.state with
  | Established | Close_wait ->
    let wnd = min t.swnd (max t.peer_wnd t.mss) in
    let limit = t.snd_una + wnd in
    let de = data_end t in
    while t.snd_nxt < de && t.snd_nxt < limit do
      let len = min t.mss (min (de - t.snd_nxt) (limit - t.snd_nxt)) in
      emit t ~retransmit:false ~flags:psh_ack ~seq:t.snd_nxt ~len;
      t.snd_nxt <- t.snd_nxt + len
    done;
    if t.fin_queued && (not t.fin_sent) && t.snd_nxt = de then begin
      control t ~flags:(fin lor ack) ~seq:t.snd_nxt ();
      t.fin_sent <- true;
      t.snd_nxt <- t.snd_nxt + 1;
      t.state <- (match t.state with Close_wait -> Last_ack | _ -> Fin_wait_1)
    end
  | _ -> ());
  arm_timer t

(* The timer is the call [rto_expired t ()], so arming it allocates
   nothing. *)
and arm_timer t =
  if t.timer == Netsim.Event_queue.no_handle && t.snd_una < t.snd_nxt
     && timer_allowed t
  then
    t.timer <- Engine.call_after t.engine ~delay:t.rto_cur rto_expired t ()

and rto_expired t () =
  t.timer <- Netsim.Event_queue.no_handle;
  on_timer t

and on_timer t =
  if t.snd_una < t.snd_nxt && timer_allowed t then
    if t.retries >= t.max_retries then fail t "retransmission limit reached"
    else begin
      t.retries <- t.retries + 1;
      t.rto_cur <- min (t.rto_cur * 2) rto_max;
      resend t;
      arm_timer t
    end

and resend t =
  match t.state with
  | Syn_sent -> control t ~retransmit:true ~flags:syn ~seq:t.iss ()
  | Syn_received ->
    control t ~retransmit:true ~flags:(syn lor ack) ~seq:t.iss ()
  | _ ->
    (* Go-back-N: replay the whole outstanding window from [snd_una].
       After a hand-off blackout this refills the pipe in one RTO
       instead of trickling one segment per timeout. *)
    let wnd = min t.swnd (max t.peer_wnd t.mss) in
    let stop = min t.snd_nxt (t.snd_una + wnd) in
    let de = data_end t in
    let seq = ref t.snd_una in
    while !seq < stop do
      if !seq < de then begin
        let len = min t.mss (min (de - !seq) (stop - !seq)) in
        emit t ~retransmit:true ~flags:psh_ack ~seq:!seq ~len;
        seq := !seq + len
      end
      else begin
        control t ~retransmit:true ~flags:(fin lor ack) ~seq:!seq ();
        seq := !seq + 1
      end
    done

let establish t =
  t.state <- Established;
  bump t (fun c ->
      c.Counters.conns_established <- c.Counters.conns_established + 1);
  (match t.established_cb with Some f -> f () | None -> ());
  try_send t

(* The received segment is the [len] bytes at [off] of [buf], valid
   only for the call: its fields are read in place, in-order data is
   handed to [recv_cb] in place, and only an out-of-order segment is
   copied, to be kept. *)
let handle_ack t buf ~off ~len ~flags =
  if flags land ack <> 0 then begin
    t.peer_wnd <- Tcp.window_at buf ~off;
    if len = Tcp.data_offset_at buf ~off && flags land syn = 0 then
      bump t (fun c ->
          c.Counters.acks_received <- c.Counters.acks_received + 1);
    let ack_no = Tcp.ack_at buf ~off in
    if ack_no > t.snd_una && ack_no <= t.snd_nxt then begin
      t.snd_una <- ack_no;
      Send_queue.release t.sendq ~upto:ack_no;
      t.retries <- 0;
      t.rto_cur <- rto_init;
      cancel_timer t;
      if t.state = Syn_received && t.snd_una > t.iss then establish t;
      let de = data_end t in
      if t.fin_sent && t.snd_una = de + 1 then
        (match t.state with
        | Fin_wait_1 -> t.state <- Fin_wait_2
        | Closing -> enter_time_wait t
        | Last_ack ->
          bump t (fun c ->
              c.Counters.conns_closed <- c.Counters.conns_closed + 1);
          become_closed t
        | _ -> ());
      if t.snd_una = de && t.drain_mark < de then begin
        t.drain_mark <- de;
        match t.drained_cb with Some f -> f () | None -> ()
      end;
      try_send t
    end
  end

let deliver t buf off len =
  bump_by t
    (fun c n ->
       c.Counters.data_bytes_received <- c.Counters.data_bytes_received + n)
    len;
  match t.recv with Some f -> f buf off len | None -> ()

(* [ooo] with a copy of the segment at its place in seq order, in one
   pass; [Exit] if a segment with its [seq] is already held. *)
let rec ooo_insert seq buf off len = function
  | ((s, _) as held) :: rest when s < seq ->
    held :: ooo_insert seq buf off len rest
  | (s, _) :: _ when s = seq -> raise_notrace Exit
  | later -> (seq, Bytes.sub buf off len) :: later

let insert_ooo t seq buf ~off ~len =
  match ooo_insert seq buf off len t.ooo with
  | ooo ->
    bump t (fun c -> c.Counters.out_of_order <- c.Counters.out_of_order + 1);
    t.ooo <- ooo
  | exception Exit ->
    bump t (fun c -> c.Counters.duplicates <- c.Counters.duplicates + 1)

(* Buffered segments are the connection's own copies, delivered from
   the cursor on. *)
let rec drain_ooo t =
  match t.ooo with
  | (s, d) :: rest when s <= t.rcv_nxt ->
    let len = Bytes.length d in
    if s + len > t.rcv_nxt then begin
      let skip = t.rcv_nxt - s in
      deliver t d skip (len - skip);
      t.rcv_nxt <- s + len
    end;
    t.ooo <- rest;
    drain_ooo t
  | _ -> ()

let consume_fin t =
  t.rcv_nxt <- t.rcv_nxt + 1;
  t.peer_fin_done <- true;
  (match t.peer_close_cb with Some f -> f () | None -> ());
  match t.state with
  | Established -> t.state <- Close_wait
  | Fin_wait_1 -> t.state <- Closing
  | Fin_wait_2 -> enter_time_wait t
  | _ -> ()

let handle_data t buf ~off ~len ~flags =
  let data_off = off + Tcp.data_offset_at buf ~off in
  let dlen = off + len - data_off in
  let seq = Tcp.seq_at buf ~off in
  let has_fin = flags land fin <> 0 in
  (* A pure ack needs no reply (acking acks never converges); anything
     occupying sequence space — data, FIN, a replayed SYN — gets the
     cumulative ack back, duplicates included. *)
  if dlen > 0 || has_fin || flags land syn <> 0 then begin
    if has_fin && not t.peer_fin_done then
      t.peer_fin_seq <- Some (seq + dlen);
    (if dlen > 0 then
       let seg_end = seq + dlen in
       if seg_end <= t.rcv_nxt then
         bump t (fun c -> c.Counters.duplicates <- c.Counters.duplicates + 1)
       else if seq >= t.rcv_nxt + adv_window then
         (* beyond the window we advertise, where no sender's segment
            starts: acked, but not kept *)
         ()
       else if seq > t.rcv_nxt then insert_ooo t seq buf ~off:data_off ~len:dlen
       else begin
         let skip = t.rcv_nxt - seq in
         deliver t buf (data_off + skip) (dlen - skip);
         t.rcv_nxt <- seg_end;
         drain_ooo t
       end);
    (match t.peer_fin_seq with
    | Some s when s = t.rcv_nxt && not t.peer_fin_done -> consume_fin t
    | _ -> ());
    if t.state <> Closed then send_ack t
  end

let rx t ~src:_ buf ~off ~len =
  if t.state <> Closed then begin
    bump t (fun c ->
        c.Counters.segs_received <- c.Counters.segs_received + 1);
    let flags = Tcp.flags_at buf ~off in
    if flags land rst <> 0 then begin
      bump t (fun c ->
          c.Counters.resets_received <- c.Counters.resets_received + 1);
      fail t "connection reset by peer"
    end
    else
      match t.state with
      | Syn_sent ->
        if
          flags land syn <> 0 && flags land ack <> 0
          && Tcp.ack_at buf ~off = t.iss + 1
        then begin
          let seq = Tcp.seq_at buf ~off in
          t.rcv_nxt <- seq + 1;
          t.peer_wnd <- Tcp.window_at buf ~off;
          t.snd_una <- Tcp.ack_at buf ~off;
          t.retries <- 0;
          t.rto_cur <- rto_init;
          cancel_timer t;
          send_ack t;
          establish t
        end
      | Syn_received when flags land syn <> 0 ->
        (* our SYN|ACK was lost; the peer replayed its SYN *)
        bump t (fun c ->
            c.Counters.duplicates <- c.Counters.duplicates + 1);
        control t ~retransmit:true ~flags:(syn lor ack) ~seq:t.iss ();
        arm_timer t
      | _ ->
        handle_ack t buf ~off ~len ~flags;
        if t.state <> Closed then handle_data t buf ~off ~len ~flags
  end

let connect stack ?src_port ?(mss = default_mss) ?(window = default_window)
    ?(max_retries = default_max_retries) ~dst ~dst_port () =
  let local_port =
    match src_port with
    | Some p -> p
    | None ->
      Stack.fresh_ephemeral_port stack ~remote:dst ~remote_port:dst_port
  in
  let t =
    make_sock stack ~local_port ~remote:dst ~remote_port:dst_port
      ~iss:(Stack.fresh_iss stack) ~mss ~window ~max_retries ~state:Syn_sent
  in
  Stack.register_conn stack ~local_port ~remote:dst ~remote_port:dst_port
    (rx t);
  bump t (fun c -> c.Counters.conns_opened <- c.Counters.conns_opened + 1);
  control t ~flags:syn ~seq:t.iss ();
  t.snd_nxt <- t.iss + 1;
  arm_timer t;
  t

type listener = {
  l_stack : Stack.t;
  l_port : int;
  mutable l_open : bool;
}

let listen stack ~port ?(mss = default_mss) ?(window = default_window)
    ?(max_retries = default_max_retries) accept_cb =
  let l = { l_stack = stack; l_port = port; l_open = true } in
  Stack.register_listener stack ~port (fun ~src buf ~off ~len ->
      let flags = Tcp.flags_at buf ~off in
      if flags land rst <> 0 then ()
      else if flags land syn <> 0 && flags land ack = 0 then begin
        let remote_port = Tcp.src_port_at buf ~off in
        let t =
          make_sock stack ~local_port:port ~remote:src ~remote_port
            ~iss:(Stack.fresh_iss stack) ~mss ~window ~max_retries
            ~state:Syn_received
        in
        let seq = Tcp.seq_at buf ~off in
        t.rcv_nxt <- seq + 1;
        t.peer_wnd <- Tcp.window_at buf ~off;
        Stack.register_conn stack ~local_port:port ~remote:src ~remote_port
          (rx t);
        bump t (fun c ->
            c.Counters.conns_accepted <- c.Counters.conns_accepted + 1);
        bump t (fun c ->
            c.Counters.segs_received <- c.Counters.segs_received + 1);
        (* the application installs its callbacks now, before any data *)
        accept_cb t;
        control t ~flags:(syn lor ack) ~seq:t.iss ();
        t.snd_nxt <- t.iss + 1;
        arm_timer t
      end
      else Stack.send_rst_for stack ~src buf ~off ~len);
  l

let close_listener l =
  if l.l_open then begin
    l.l_open <- false;
    Stack.unregister_listener l.l_stack ~port:l.l_port
  end

let send t data =
  (match t.state with
  | Closed -> invalid_arg "Transport.Socket.send: connection is closed"
  | _ when t.fin_queued ->
    invalid_arg "Transport.Socket.send: close already requested"
  | _ -> ());
  Send_queue.push t.sendq data;
  match t.state with Established | Close_wait -> try_send t | _ -> ()

let close t =
  match t.state with
  | Closed | Time_wait -> ()
  | _ when t.fin_queued -> ()
  | Syn_sent ->
    (* nothing the peer has acted on yet: quietly drop *)
    shut t
  | _ ->
    t.fin_queued <- true;
    try_send t

let abort t =
  match t.state with
  | Closed -> ()
  | _ ->
    bump t (fun c -> c.Counters.resets_sent <- c.Counters.resets_sent + 1);
    control t ~flags:rst ~seq:t.snd_nxt ();
    shut t;
    (match t.closed_cb with Some f -> f () | None -> ())

let recv_cb t f = t.recv <- Some f
let on_established t f = t.established_cb <- Some f
let on_drained t f = t.drained_cb <- Some f
let on_peer_close t f = t.peer_close_cb <- Some f
let on_error t f = t.error_cb <- Some f
let on_closed t f = t.closed_cb <- Some f
let counters t = t.counters
let is_established t = t.state = Established
let is_closed t = t.state = Closed
let local_port t = t.local_port
(* unacknowledged stream bytes: neither the SYN nor the FIN counts *)
let bytes_queued t =
  data_end t - max (t.iss + 1) (min t.snd_una (data_end t))

module Dgram = struct
  type nonrec t = { d_stack : Stack.t; d_port : int }

  let create stack ~port = { d_stack = stack; d_port = port }

  let sendto t ~dst ~dst_port data =
    Mhrp.Agent.send_udp (Stack.agent t.d_stack) ~src_port:t.d_port ~dst_port
      ~id:(Stack.fresh_ip_id t.d_stack) ~dst data

  let on_recv t f =
    Stack.register_udp t.d_stack ~port:t.d_port (fun ~src buf ~off ~len ->
        f ~src ~src_port:(Ipv4.Udp.src_port_at buf ~off) buf
          (off + Ipv4.Udp.header_length) (len - Ipv4.Udp.header_length))
end
