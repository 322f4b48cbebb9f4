module Time = Netsim.Time
module Engine = Netsim.Engine
module Socket = Transport.Socket
module Stack = Transport.Stack

let at engine time f = ignore (Engine.schedule engine ~at:time f)
let now_us engine = Time.to_us (Engine.now engine)

(* Cut a byte stream into fixed-size messages: [f buf off] gets each
   complete [size]-byte message as the stream accumulates, the [size]
   bytes at [off] of [buf], valid only for the call ({!Socket.recv_cb}'s
   contract).  A message inside one chunk is handed over in place; only
   one split across chunks is copied, into the framer's own buffer. *)
let framer size f =
  let partial = Bytes.create size in
  let have = ref 0 in
  fun buf off len ->
    let off = ref off and len = ref len in
    if !have > 0 then begin
      let n = min !len (size - !have) in
      Bytes.blit buf !off partial !have n;
      have := !have + n;
      off := !off + n;
      len := !len - n;
      if !have = size then begin
        have := 0;
        f partial 0
      end
    end;
    while !len >= size do
      f buf !off;
      off := !off + size;
      len := !len - size
    done;
    if !len > 0 then begin
      Bytes.blit buf !off partial 0 !len;
      have := !len
    end

module Rpc = struct
  type client = {
    sent_at : Time.t Queue.t;
    mutable responses : int;
    mutable lat_us : float list;  (* reverse completion order *)
  }

  (* Nothing reads a request's or a response's contents, so each
     connection sends one buffer over and over: the socket only reads
     what it is handed ({!Socket.send}). *)
  let serve stack ~port ~req_bytes ~resp_bytes =
    ignore
      (Socket.listen stack ~port (fun sock ->
           let resp = Bytes.make resp_bytes '\000' in
           Socket.recv_cb sock
             (framer req_bytes (fun _ _ -> Socket.send sock resp))))

  let start ~client ~server ?(port = 80) ?(req_bytes = 64)
      ?(resp_bytes = 256) ~start ~interval ~count () =
    let engine = Stack.engine client in
    let t =
      { sent_at = Queue.create ();
        responses = 0;
        lat_us = [] }
    in
    at engine start (fun () ->
        let sock = Socket.connect client ~dst:server ~dst_port:port () in
        let req = Bytes.make req_bytes '\000' in
        Socket.recv_cb sock
          (framer resp_bytes (fun _ _ ->
               t.responses <- t.responses + 1;
               match Queue.take_opt t.sent_at with
               | Some sent ->
                 t.lat_us <-
                   float_of_int (now_us engine - Time.to_us sent)
                   :: t.lat_us
               | None -> ()));
        for k = 0 to count - 1 do
          let time =
            Time.add start (Time.of_us (k * Time.to_us interval))
          in
          at engine time (fun () ->
              if not (Socket.is_closed sock) then begin
                (* latency clock starts at the intended send time, so
                   hand-off stalls in the send path count too *)
                Queue.add (Engine.now engine) t.sent_at;
                Socket.send sock req
              end)
        done);
    t

  let responses t = t.responses
  let latencies_us t = List.rev t.lat_us
end

module Chat = struct
  type room = {
    mutable members : Socket.t list;  (* reverse join order *)
    mutable relayed : int;
  }

  let room stack ~port ~msg_bytes =
    let r = { members = []; relayed = 0 } in
    ignore
      (Socket.listen stack ~port (fun sock ->
           r.members <- sock :: r.members;
           Socket.recv_cb sock
             (framer msg_bytes (fun buf off ->
                  let msg = Bytes.sub buf off msg_bytes in
                  List.iter
                    (fun peer ->
                      if peer != sock && not (Socket.is_closed peer) then begin
                        r.relayed <- r.relayed + 1;
                        Socket.send peer msg
                      end)
                    r.members))));
    r

  let relayed r = r.relayed
  let members r = List.length r.members

  type member = {
    engine : Engine.t;
    msg_bytes : int;
    mutable sock : Socket.t option;
    mutable sent : int;
    mutable received : int;
    mutable lat_us : float list;
  }

  let join stack ~server ~port ~msg_bytes ~at:t0 () =
    let engine = Stack.engine stack in
    let m =
      { engine; msg_bytes; sock = None; sent = 0; received = 0; lat_us = [] }
    in
    at engine t0 (fun () ->
        let sock = Socket.connect stack ~dst:server ~dst_port:port () in
        m.sock <- Some sock;
        Socket.recv_cb sock
          (framer msg_bytes (fun buf off ->
               m.received <- m.received + 1;
               let sent_us = Int64.to_int (Bytes.get_int64_be buf off) in
               m.lat_us <-
                 float_of_int (now_us engine - sent_us) :: m.lat_us)));
    m

  (* Messages carry their send time in the first 8 bytes, so every
     receiving member can compute a full client-to-client latency. *)
  let say m ~at:t0 =
    if m.msg_bytes < 8 then invalid_arg "Chat.say: msg_bytes < 8";
    at m.engine t0 (fun () ->
        match m.sock with
        | Some sock when not (Socket.is_closed sock) ->
          let msg = Bytes.make m.msg_bytes '\000' in
          Bytes.set_int64_be msg 0 (Int64.of_int (now_us m.engine));
          m.sent <- m.sent + 1;
          Socket.send sock msg
        | _ -> ())

  let sent m = m.sent
  let received m = m.received
  let latencies_us m = List.rev m.lat_us
end

module Bulk = struct
  (* Byte [i] of every transfer is [i land 0xFF]: a 64 KiB page, a
     whole number of that 256-byte period, repeats it exactly. *)
  let page_bytes = 65536

  (* Each connection builds one page and sends it by reference as often
     as its transfer needs; the page goes once its last chunk is
     acknowledged. *)
  let serve stack ~port ~bytes =
    ignore
      (Socket.listen stack ~port (fun sock ->
           let page =
             Bytes.init (min bytes page_bytes) (fun i -> Char.chr (i land 0xFF))
           in
           let left = ref bytes in
           while !left > 0 do
             let n = min !left (Bytes.length page) in
             Socket.send sock
               (if n = Bytes.length page then page else Bytes.sub page 0 n);
             left := !left - n
           done;
           Socket.close sock))

  type fetch = {
    total : int;
    started_at : Time.t;
    mutable last_byte_at : Time.t;
    mutable max_gap_us : int;
    mutable received : int;
    mutable intact : bool;
    mutable completed_at : Time.t option;
  }

  let fetch stack ~server ?(port = 8080) ~bytes ~at:t0 () =
    let engine = Stack.engine stack in
    let t =
      { total = bytes;
        started_at = t0;
        last_byte_at = t0;
        max_gap_us = 0;
        received = 0;
        intact = true;
        completed_at = None }
    in
    at engine t0 (fun () ->
        let sock = Socket.connect stack ~dst:server ~dst_port:port () in
        Socket.on_peer_close sock (fun () -> Socket.close sock);
        Socket.recv_cb sock (fun buf off len ->
            let now = Engine.now engine in
            (* a transfer's longest silence = its hand-off stall *)
            let gap = Time.to_us now - Time.to_us t.last_byte_at in
            if gap > t.max_gap_us then t.max_gap_us <- gap;
            t.last_byte_at <- now;
            for i = 0 to len - 1 do
              if
                Bytes.get buf (off + i)
                <> Char.chr ((t.received + i) land 0xFF)
              then t.intact <- false
            done;
            t.received <- t.received + len;
            if t.received = t.total && t.completed_at = None then
              t.completed_at <- Some now));
    t

  let complete t = t.completed_at <> None
  let intact t = t.intact && t.received = t.total

  let completion_us t =
    match t.completed_at with
    | Some c -> Some (Time.to_us c - Time.to_us t.started_at)
    | None -> None

  let max_stall_us t = t.max_gap_us
  let received t = t.received

  let goodput_kbps t =
    match completion_us t with
    | Some us when us > 0 ->
      Some (float_of_int (8 * t.total) /. (float_of_int us /. 1000.))
    | _ -> None
end
