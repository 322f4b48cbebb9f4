module Tcp = Ipv4.Tcp_lite
module Udp = Ipv4.Udp
module View = Ipv4.Packet.View
module Addr = Ipv4.Addr

type tcp_rx = src:Addr.t -> bytes -> off:int -> len:int -> unit
type udp_rx = src:Addr.t -> bytes -> off:int -> len:int -> unit

(* A connection's key: the three fields of its 4-tuple that vary (the
   local address is the stack's), hashed and compared as ints.  A
   lookup fills the stack's one probe key instead of building a tuple,
   and [find] raises rather than return an option, so demultiplexing a
   segment allocates nothing.  Only the probe is ever mutated: a key in
   the table is built when its connection registers and never changes
   (so the probe is never what [add] stores). *)
module Tuple = struct
  type t = {
    mutable local_port : int;
    mutable remote : int;  (* [Addr.to_key] *)
    mutable remote_port : int;
  }

  let equal a b =
    a.local_port = b.local_port && a.remote = b.remote
    && a.remote_port = b.remote_port

  (* Int_table's multiplicative hash, over the remote endpoint (48
     bits) and then the local port. *)
  let hash k =
    let h = (k.remote lor (k.remote_port lsl 32)) * 0x9E3779B97F4A7C1 in
    let h = (h + k.local_port) * 0x9E3779B97F4A7C1 in
    (h lxor (h lsr 29)) land max_int
end

module Conns = Hashtbl.Make (Tuple)

type t = {
  agent : Mhrp.Agent.t;
  engine : Netsim.Engine.t;
  conns : tcp_rx Conns.t;
  probe : Tuple.t;
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
let first_ephemeral = 49152
let ephemeral_ports = 0x10000 - first_ephemeral

let create agent =
  { agent;
    engine = Net.Node.engine (Mhrp.Agent.node agent);
    conns = Conns.create 16;
    probe = { Tuple.local_port = 0; remote = 0; remote_port = 0 };
    listeners = Hashtbl.create 4;
    udp_ports = Hashtbl.create 4;
    counters = Counters.create ();
    ip_id = 0;
    iss = first_iss;
    ephemeral = first_ephemeral;
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

(* The probe key, filled for one lookup ([remote] packed). *)
let probe t ~local_port ~remote ~remote_port =
  let k = t.probe in
  k.Tuple.local_port <- local_port;
  k.Tuple.remote <- remote;
  k.Tuple.remote_port <- remote_port;
  k

(* Ephemeral ports are handed out in turn, 49152-65535 and around again,
   skipping any that already holds a connection to the same remote
   endpoint. *)
let rec take_ephemeral t ~remote ~remote_port tried =
  if tried = ephemeral_ports then
    failwith "Transport.Stack: every ephemeral port is in use"
  else begin
    let p = t.ephemeral in
    t.ephemeral <- (if p >= 0xFFFF then first_ephemeral else p + 1);
    if Conns.mem t.conns (probe t ~local_port:p ~remote ~remote_port) then
      take_ephemeral t ~remote ~remote_port (tried + 1)
    else p
  end

let fresh_ephemeral_port t ~remote ~remote_port =
  take_ephemeral t ~remote:(Addr.to_key remote) ~remote_port 0

(* A segment written straight into the outgoing packet: the [len]
   stream bytes from [seq] on, gathered from the send queue's chunks,
   then the header around them.  An out-of-range field raises from
   [Tcp.write], before the agent counts or sends anything. *)
let send_segment t ~dst ~src_port ~dst_port ~seq ~ack ~flags ~window queue
    ~len =
  let seg_len = Tcp.header_length + len in
  let fa = Mhrp.Agent.sender_tunnel t.agent dst in
  let wire =
    Mhrp.Agent.originate t.agent ~id:(fresh_ip_id t) ~proto:Ipv4.Proto.tcp
      ~dst ~len:seg_len fa
  in
  let off = Bytes.length wire - seg_len in
  if len > 0 then
    Send_queue.blit queue ~seq wire ~off:(off + Tcp.header_length) ~len;
  Tcp.write wire ~off ~src_port ~dst_port ~seq ~ack ~flags ~window
    ~len:seg_len;
  Mhrp.Agent.send_originated t.agent fa wire

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
      ~flags:reply_flags ~window:8192 (Send_queue.create ~seq) ~len:0
  end

let dispatch_tcp t ~src buf ~off ~len =
  let dst_port = Tcp.dst_port_at buf ~off in
  let key =
    probe t ~local_port:dst_port ~remote:(Addr.to_key src)
      ~remote_port:(Tcp.src_port_at buf ~off)
  in
  match Conns.find t.conns key with
  | rx -> rx ~src buf ~off ~len
  | exception Not_found ->
    (match Hashtbl.find_opt t.listeners dst_port with
     | Some rx -> rx ~src buf ~off ~len
     | None -> send_rst_for t ~src buf ~off ~len)

(* A segment or a datagram is checked and demultiplexed in place. *)
let handle_view t v =
  let proto = View.proto v in
  let buf = View.buffer v in
  let off = View.payload_offset v and len = View.payload_length v in
  if proto = Ipv4.Proto.tcp then begin
    if Tcp.valid_at buf ~off ~len then
      dispatch_tcp t ~src:(View.src v) buf ~off ~len
  end
  else if proto = Ipv4.Proto.udp then begin
    let n = Udp.length_at buf ~off ~len in
    if n >= 0 then
      match Hashtbl.find_opt t.udp_ports (Udp.dst_port_at buf ~off) with
      | Some rx -> rx ~src:(View.src v) buf ~off ~len:n
      | None -> ()
  end

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
  let remote = Addr.to_key remote in
  if Conns.mem t.conns (probe t ~local_port ~remote ~remote_port) then
    invalid_arg "Transport.Stack: connection already registered";
  ensure_tap t;
  Conns.add t.conns { Tuple.local_port; remote; remote_port } rx

let unregister_conn t ~local_port ~remote ~remote_port =
  Conns.remove t.conns
    (probe t ~local_port ~remote:(Addr.to_key remote) ~remote_port)

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

let connections t = Conns.length t.conns
