let tunnel_by_sender ~foreign_agent (pkt : Ipv4.Packet.t) =
  let header =
    Mhrp_header.make ~orig_proto:pkt.Ipv4.Packet.proto
      ~mobile:pkt.Ipv4.Packet.dst ()
  in
  { pkt with
    Ipv4.Packet.proto = Ipv4.Proto.mhrp;
    dst = foreign_agent;
    payload = Mhrp_header.encode header pkt.Ipv4.Packet.payload }

let tunnel_by_agent ~agent ~foreign_agent (pkt : Ipv4.Packet.t) =
  let header =
    Mhrp_header.make ~prev_sources:[pkt.Ipv4.Packet.src]
      ~orig_proto:pkt.Ipv4.Packet.proto ~mobile:pkt.Ipv4.Packet.dst ()
  in
  { pkt with
    Ipv4.Packet.proto = Ipv4.Proto.mhrp;
    src = agent;
    dst = foreign_agent;
    payload = Mhrp_header.encode header pkt.Ipv4.Packet.payload }

let is_tunneled (pkt : Ipv4.Packet.t) =
  pkt.Ipv4.Packet.proto = Ipv4.Proto.mhrp

let header_of pkt =
  if not (is_tunneled pkt) then None
  else
    match Mhrp_header.decode pkt.Ipv4.Packet.payload with
    | header, _ -> Some header
    | exception Invalid_argument _ -> None

let detunnel (pkt : Ipv4.Packet.t) =
  if not (is_tunneled pkt) then None
  else
    match Mhrp_header.decode pkt.Ipv4.Packet.payload with
    | exception Invalid_argument _ -> None
    | header, transport ->
      let src =
        match Mhrp_header.original_sender header with
        | Some s -> s
        | None -> pkt.Ipv4.Packet.src (* sender-built header *)
      in
      let original =
        { pkt with
          Ipv4.Packet.proto = header.Mhrp_header.orig_proto;
          src;
          dst = header.Mhrp_header.mobile;
          payload = transport }
      in
      Some (original, header)

type 'a retunnel_result =
  | Retunneled of 'a
  | Retunneled_overflow of {
      packet : 'a;
      notify : Ipv4.Addr.t list;
    }
  | Loop_detected of { members : Ipv4.Addr.t list }

(* Section 5.3: if our own address already appears among the tunnel
   heads (or we are about to record ourselves twice), one pass around a
   cache-agent loop has completed: the loop's members, each owed a
   cache-delete update. *)
let loop_members ~me ~incoming (header : Mhrp_header.t) =
  if Mhrp_header.mem_source header me || Ipv4.Addr.equal incoming me then
    Some (Mhrp_header.tunnel_heads header ~incoming)
  else None

let retunnel ~max_prev_sources ~me ~new_dst (pkt : Ipv4.Packet.t) =
  if not (is_tunneled pkt) then None
  else
    match Mhrp_header.decode pkt.Ipv4.Packet.payload with
    | exception Invalid_argument _ -> None
    | header, transport ->
      let incoming = pkt.Ipv4.Packet.src in
      let rebuild header' =
        { pkt with
          Ipv4.Packet.src = me;
          dst = new_dst;
          payload = Mhrp_header.encode header' transport }
      in
      Some
        (match loop_members ~me ~incoming header with
         | Some members -> Loop_detected { members }
         | None ->
           match
             Mhrp_header.append_source_max ~max:max_prev_sources header
               incoming
           with
           | `Ok header' -> Retunneled (rebuild header')
           | `Full ->
             Retunneled_overflow
               { packet = rebuild (Mhrp_header.truncate header incoming);
                 notify = header.Mhrp_header.prev_sources })

let added_bytes ~original ~tunneled =
  Ipv4.Packet.total_length tunneled - Ipv4.Packet.total_length original

(* --- tunnels built on wire bytes ---

   The record functions above decode, rebuild and re-encode a whole
   packet per tunnel operation, copying the transport bytes three or
   four times.  These write the outgoing packet straight from the bytes
   in hand: the IP envelope and MHRP header into one exact-size buffer,
   the transport payload blitted once.  Their output is byte-identical
   to encoding the record function's result (QCheck-verified).  A
   fixed 20-byte envelope cannot carry IP options, which the record
   functions keep, so an original with options takes the record
   function internally. *)

module View = Ipv4.Packet.View

(* A fresh buffer holding a 20-byte IP header — [v]'s TOS,
   identification, fragment field and TTL under a new protocol, source
   and destination — for [payload_length] more bytes, which the caller
   writes before [seal]ing it.  The reserved flag bit is cleared, as a
   decode and re-encode would. *)
let envelope v ~proto ~src ~dst ~payload_length =
  let tlen = 20 + payload_length in
  if tlen > 0xFFFF then invalid_arg "Encap: packet too long";
  let vbuf = View.buffer v in
  let buf = Bytes.create tlen in
  Bytes.set buf 0 '\x45';
  Bytes.set buf 1 (Bytes.get vbuf 1);
  Bytes.set_uint16_be buf 2 tlen;
  Bytes.blit vbuf 4 buf 4 2;
  Bytes.set_uint16_be buf 6 (Bytes.get_uint16_be vbuf 6 land 0x7FFF);
  Bytes.set buf 8 (Bytes.get vbuf 8);
  Bytes.set_uint8 buf 9 proto;
  Ipv4.Addr.set buf 12 src;
  Ipv4.Addr.set buf 16 dst;
  buf

(* The checksums: the MHRP header's ([mh_len] bytes at offset 20, none
   for a detunneled original), then the IP header's. *)
let seal buf ~mh_len =
  if mh_len > 0 then Ipv4.Checksum.set buf ~at:22 ~off:20 ~len:mh_len;
  Ipv4.Checksum.set buf ~at:10 ~off:0 ~len:20;
  buf

let header_at v =
  if View.proto v <> Ipv4.Proto.mhrp then None
  else
    Mhrp_header.decode_at (View.buffer v) ~off:(View.payload_offset v)
      ~len:(View.payload_length v)

(* Section 4.1's edit, made on the wire: [buf] holds a packet encoded
   with an MHRP header's worth of zero bytes after its IP header.  Move
   the protocol and destination into a sender-built header there (its
   count, 0, is already zero) and address the packet to
   [foreign_agent]. *)
let to_sender_tunnel buf ~foreign_agent =
  let h = (Bytes.get_uint8 buf 0 land 0xF) * 4 in
  Bytes.set_uint8 buf (h + 1) (Bytes.get_uint8 buf 9);
  Bytes.blit buf 16 buf (h + 4) 4;
  Ipv4.Checksum.set buf ~at:(h + 2) ~off:h ~len:Mhrp_header.fixed_length;
  Bytes.set_uint8 buf 9 Ipv4.Proto.mhrp;
  Ipv4.Addr.set buf 16 foreign_agent;
  Ipv4.Checksum.set buf ~at:10 ~off:0 ~len:h;
  buf

let tunnel_by_sender_into ~foreign_agent pkt =
  to_sender_tunnel ~foreign_agent
    (Ipv4.Packet.encode_with_gap pkt ~gap:Mhrp_header.fixed_length)

let sender_tunnel_header ~id ~proto ~src ~dst ~foreign_agent ~gap =
  to_sender_tunnel ~foreign_agent
    (Ipv4.Packet.encode_header ~id ~proto ~src ~dst
       ~gap:(Mhrp_header.fixed_length + gap))

let tunnel_by_agent_into ~agent ~foreign_agent v =
  if View.has_options v then
    Ipv4.Packet.encode (tunnel_by_agent ~agent ~foreign_agent (View.decode v))
  else begin
    let mh_len = Mhrp_header.fixed_length + 4 in
    let transport_len = View.payload_length v in
    let buf =
      envelope v ~proto:Ipv4.Proto.mhrp ~src:agent ~dst:foreign_agent
        ~payload_length:(mh_len + transport_len)
    in
    Bytes.set_uint8 buf 20 1;
    Bytes.set_uint8 buf 21 (View.proto v);
    Ipv4.Addr.set buf 24 (View.dst v);
    Ipv4.Addr.set buf 28 (View.src v);
    Bytes.blit (View.buffer v) (View.payload_offset v) buf (20 + mh_len)
      transport_len;
    seal buf ~mh_len
  end

let detunnel_into v (header : Mhrp_header.t) =
  if View.has_options v then
    match detunnel (View.decode v) with
    | Some (original, _) -> Ipv4.Packet.encode original
    | None -> invalid_arg "Encap.detunnel_into: not an MHRP packet"
  else begin
    let mh_len = Mhrp_header.length header in
    let transport_len = View.payload_length v - mh_len in
    let src =
      match header.Mhrp_header.prev_sources with
      | sender :: _ -> sender
      | [] -> View.src v (* sender-built header *)
    in
    let buf =
      envelope v ~proto:header.Mhrp_header.orig_proto ~src
        ~dst:header.Mhrp_header.mobile ~payload_length:transport_len
    in
    Bytes.blit (View.buffer v) (View.payload_offset v + mh_len) buf 20
      transport_len;
    seal buf ~mh_len:0
  end

(* The incoming MHRP packet [v] re-tunneled from [me] to [new_dst]: the
   first [keep] list entries of its header, then its tunnel head. *)
let relay v ~me ~new_dst ~keep =
  if keep >= 255 then invalid_arg "Encap.retunnel_into: list too long";
  let vbuf = View.buffer v and mh_off = View.payload_offset v in
  let old_len = Mhrp_header.fixed_length + (4 * Bytes.get_uint8 vbuf mh_off) in
  let mh_len = Mhrp_header.fixed_length + (4 * (keep + 1)) in
  let transport_len = View.payload_length v - old_len in
  let buf =
    envelope v ~proto:Ipv4.Proto.mhrp ~src:me ~dst:new_dst
      ~payload_length:(mh_len + transport_len)
  in
  Bytes.set_uint8 buf 20 (keep + 1);
  Bytes.blit vbuf (mh_off + 1) buf 21 1;  (* the original protocol *)
  Bytes.blit vbuf (mh_off + 4) buf 24 (4 + (4 * keep));  (* mobile, list *)
  Ipv4.Addr.set buf (28 + (4 * keep)) (View.src v);
  Bytes.blit vbuf (mh_off + old_len) buf (20 + mh_len) transport_len;
  seal buf ~mh_len

let map_packet f = function
  | Retunneled p -> Retunneled (f p)
  | Retunneled_overflow { packet; notify } ->
    Retunneled_overflow { packet = f packet; notify }
  | Loop_detected { members } -> Loop_detected { members }

let retunnel_into ~max_prev_sources ~me ~new_dst v (header : Mhrp_header.t)
  =
  if View.has_options v then
    match retunnel ~max_prev_sources ~me ~new_dst (View.decode v) with
    | Some r -> map_packet Ipv4.Packet.encode r
    | None -> invalid_arg "Encap.retunnel_into: not an MHRP packet"
  else
    match loop_members ~me ~incoming:(View.src v) header with
    | Some members -> Loop_detected { members }
    | None ->
      let n = List.length header.Mhrp_header.prev_sources in
      if n < max_prev_sources then Retunneled (relay v ~me ~new_dst ~keep:n)
      else
        Retunneled_overflow
          { packet = relay v ~me ~new_dst ~keep:0;
            notify = header.Mhrp_header.prev_sources }
