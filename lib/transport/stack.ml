module Tcp = Ipv4.Tcp_lite
module Packet = Ipv4.Packet
module View = Ipv4.Packet.View
module Addr = Ipv4.Addr

type tcp_rx = src:Addr.t -> bytes -> off:int -> len:int -> unit
type udp_rx = src:Addr.t -> Ipv4.Udp.t -> unit

type t = {
  agent : Mhrp.Agent.t;
  engine : Netsim.Engine.t;
  conns : (int * int * int, tcp_rx) Hashtbl.t;
  (* (local port, packed remote addr, remote port) -> connection *)
  listeners : (int, tcp_rx) Hashtbl.t;
  udp_ports : (int, udp_rx) Hashtbl.t;
  counters : Counters.t;
  mutable ip_id : int;
  mutable iss : int;
  mutable ephemeral : int;
  mutable tap_installed : bool;
}

let first_iss = 1000
let iss_stride = 1_000_000

let create agent =
  { agent;
    engine = Net.Node.engine (Mhrp.Agent.node agent);
    conns = Hashtbl.create 16;
    listeners = Hashtbl.create 4;
    udp_ports = Hashtbl.create 4;
    counters = Counters.create ();
    ip_id = 0;
    iss = first_iss;
    ephemeral = 49152;
    tap_installed = false }

let agent t = t.agent
let engine t = t.engine
let address t = Mhrp.Agent.address t.agent
let counters t = t.counters

(* 16-bit IP identification, wrapping but skipping 0 (the "no
   fragmentation context" value).  One counter per stack: every
   transmission — retransmissions included — gets a fresh ID, because
   reassembly keys fragments by (src, id, proto) and two in-flight
   transmissions sharing an ID could mis-reassemble. *)
let fresh_ip_id t =
  t.ip_id <- (if t.ip_id >= 0xFFFF then 1 else t.ip_id + 1);
  t.ip_id

(* Initial send sequence numbers: one stride apart, and below 2^31,
   wrapping to the first value, so every stream has 2 GiB of the 32-bit
   sequence space and sequence numbers compare as plain integers.  The
   spaces of a stack's connections overlap once a transfer outgrows the
   stride or the counter wraps; that is harmless, because segments are
   demultiplexed by 4-tuple, never by sequence number. *)
let fresh_iss t =
  let v = t.iss in
  let next = v + iss_stride in
  t.iss <- (if next >= 1 lsl 31 then first_iss else next);
  v

let fresh_ephemeral_port t =
  let p = t.ephemeral in
  t.ephemeral <- (if p >= 0xFFFF then 49152 else p + 1);
  p

(* A segment written straight into the outgoing packet: [len] data
   bytes from [stream] at [pos], then the header around them.  An
   out-of-range field raises from [Tcp.write], before the agent counts
   or sends anything. *)
let send_segment t ~dst ~src_port ~dst_port ~seq ~ack ~flags ~window stream
    ~pos ~len =
  let seg_len = Tcp.header_length + len in
  Mhrp.Agent.send_written t.agent ~id:(fresh_ip_id t) ~proto:Ipv4.Proto.tcp
    ~dst ~len:seg_len (fun wire off ->
        if len > 0 then
          Buffer.blit stream pos wire (off + Tcp.header_length) len;
        Tcp.write wire ~off ~src_port ~dst_port ~seq ~ack ~flags ~window
          ~len:seg_len)

let transmit_udp t ?id ?tap ~dst udp =
  let id = match id with Some id -> id | None -> fresh_ip_id t in
  let pkt =
    Packet.make ~id ~proto:Ipv4.Proto.udp ~src:(address t) ~dst
      (Ipv4.Udp.encode udp)
  in
  (match tap with Some f -> f pkt | None -> ());
  Mhrp.Agent.send t.agent pkt

let no_data = Buffer.create 0
let fin = Tcp.flag_bit Tcp.Fin
let syn = Tcp.flag_bit Tcp.Syn
let rst = Tcp.flag_bit Tcp.Rst
let ack = Tcp.flag_bit Tcp.Ack

(* A deliberately RFC-shaped reset for a segment that reached no
   connection and no listener: acknowledge exactly what arrived so the
   peer can match it, and never reset a reset.  Its window means
   nothing to the peer. *)
let send_rst_for t ~src buf ~off ~len =
  let flags = Tcp.flags_at buf ~off in
  if flags land rst = 0 then begin
    let seq, ack_no, reply_flags =
      if flags land ack <> 0 then (Tcp.ack_at buf ~off, 0, rst)
      else
        let advance =
          len - Tcp.data_offset_at buf ~off
          + (if flags land syn <> 0 then 1 else 0)
          + if flags land fin <> 0 then 1 else 0
        in
        (0, Tcp.seq_at buf ~off + advance, rst lor ack)
    in
    t.counters.Counters.resets_sent <-
      t.counters.Counters.resets_sent + 1;
    t.counters.Counters.segs_sent <- t.counters.Counters.segs_sent + 1;
    send_segment t ~dst:src ~src_port:(Tcp.dst_port_at buf ~off)
      ~dst_port:(Tcp.src_port_at buf ~off) ~seq ~ack:ack_no
      ~flags:reply_flags ~window:8192 no_data ~pos:0 ~len:0
  end

let dispatch_tcp t ~src buf ~off ~len =
  let dst_port = Tcp.dst_port_at buf ~off in
  let key = (dst_port, Addr.to_key src, Tcp.src_port_at buf ~off) in
  match Hashtbl.find_opt t.conns key with
  | Some rx -> rx ~src buf ~off ~len
  | None ->
    (match Hashtbl.find_opt t.listeners dst_port with
     | Some rx -> rx ~src buf ~off ~len
     | None -> send_rst_for t ~src buf ~off ~len)

let dispatch_udp t ~src (udp : Ipv4.Udp.t) =
  match Hashtbl.find_opt t.udp_ports udp.Ipv4.Udp.dst_port with
  | Some rx -> rx ~src udp
  | None -> ()

(* A segment is checked and demultiplexed in place; a datagram is
   decoded. *)
let handle_view t v =
  let proto = View.proto v in
  if proto = Ipv4.Proto.tcp then begin
    let buf = View.buffer v in
    let off = View.payload_offset v and len = View.payload_length v in
    if Tcp.valid_at buf ~off ~len then
      dispatch_tcp t ~src:(View.src v) buf ~off ~len
  end
  else if proto = Ipv4.Proto.udp then
    let pkt = View.decode v in
    match Ipv4.Udp.decode pkt.Packet.payload with
    | udp -> dispatch_udp t ~src:pkt.Packet.src udp
    | exception Invalid_argument _ -> ()

(* The app tap is claimed lazily, on the first registration that needs
   to receive: a send-only stack (datagram generators) leaves the
   agent's tap — often Workload.Metrics' delivery watcher — exactly as
   it found it. *)
let ensure_tap t =
  if not t.tap_installed then begin
    t.tap_installed <- true;
    Mhrp.Agent.on_app_receive_view t.agent (handle_view t)
  end

let register_conn t ~local_port ~remote ~remote_port rx =
  let key = (local_port, Addr.to_key remote, remote_port) in
  if Hashtbl.mem t.conns key then
    invalid_arg "Transport.Stack: connection already registered";
  ensure_tap t;
  Hashtbl.replace t.conns key rx

let unregister_conn t ~local_port ~remote ~remote_port =
  Hashtbl.remove t.conns (local_port, Addr.to_key remote, remote_port)

let register_listener t ~port rx =
  if Hashtbl.mem t.listeners port then
    invalid_arg "Transport.Stack: port already has a listener";
  ensure_tap t;
  Hashtbl.replace t.listeners port rx

let unregister_listener t ~port = Hashtbl.remove t.listeners port

let register_udp t ~port rx =
  if Hashtbl.mem t.udp_ports port then
    invalid_arg "Transport.Stack: UDP port already bound";
  ensure_tap t;
  Hashtbl.replace t.udp_ports port rx

let connections t = Hashtbl.length t.conns
