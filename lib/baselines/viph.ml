let overhead = 28

type t = {
  vip_src : Ipv4.Addr.t;
  vip_dst : Ipv4.Addr.t;
  hop_count : int;
  timestamp : int;
}

(* Layout (28 bytes): orig_proto(1) pad(3) vip_src(4) vip_dst(4)
   hop_count(4) timestamp(4) reserved(8). *)
let add t (pkt : Ipv4.Packet.t) =
  let buf = Bytes.make (overhead + Bytes.length pkt.Ipv4.Packet.payload) '\000' in
  Bytes.set buf 0 (Char.chr pkt.Ipv4.Packet.proto);
  Ipv4.Addr.set buf 4 t.vip_src;
  Ipv4.Addr.set buf 8 t.vip_dst;
  Bytes.set_int32_be buf 12 (Int32.of_int t.hop_count);
  Bytes.set_int32_be buf 16 (Int32.of_int t.timestamp);
  Bytes.blit pkt.Ipv4.Packet.payload 0 buf overhead
    (Bytes.length pkt.Ipv4.Packet.payload);
  { pkt with Ipv4.Packet.proto = Ipv4.Proto.vip; payload = buf }

let peek (pkt : Ipv4.Packet.t) =
  if pkt.Ipv4.Packet.proto <> Ipv4.Proto.vip
     || Bytes.length pkt.Ipv4.Packet.payload < overhead
  then None
  else begin
    let buf = pkt.Ipv4.Packet.payload in
    Some
      { vip_src = Ipv4.Addr.get buf 4;
        vip_dst = Ipv4.Addr.get buf 8;
        hop_count = Int32.to_int (Bytes.get_int32_be buf 12) land 0xFFFF_FFFF;
        timestamp = Int32.to_int (Bytes.get_int32_be buf 16) land 0xFFFF_FFFF }
  end

let strip (pkt : Ipv4.Packet.t) =
  match peek pkt with
  | None -> None
  | Some t ->
    let buf = pkt.Ipv4.Packet.payload in
    let proto = Bytes.get_uint8 buf 0 in
    let transport =
      Bytes.sub buf overhead (Bytes.length buf - overhead)
    in
    Some (t, { pkt with Ipv4.Packet.proto = proto; payload = transport })
