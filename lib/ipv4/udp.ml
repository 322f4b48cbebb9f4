type t = {
  src_port : int;
  dst_port : int;
  data : bytes;
}

let header_length = 8

let make ~src_port ~dst_port data = { src_port; dst_port; data }

let write buf ~off ~src_port ~dst_port ~len =
  if src_port < 0 || src_port > 0xFFFF || dst_port < 0 || dst_port > 0xFFFF
  then invalid_arg "Udp.encode: port out of range";
  if len > 0xFFFF then invalid_arg "Udp.encode: datagram too long";
  Bytes.set_uint16_be buf off src_port;
  Bytes.set_uint16_be buf (off + 2) dst_port;
  Bytes.set_uint16_be buf (off + 4) len;
  Checksum.set buf ~at:(off + 6) ~off ~len

let encode t =
  let n = Bytes.length t.data in
  let buf = Bytes.create (header_length + n) in
  Bytes.blit t.data 0 buf header_length n;
  write buf ~off:0 ~src_port:t.src_port ~dst_port:t.dst_port
    ~len:(header_length + n);
  buf

let length_at buf ~off ~len =
  if off < 0 || len < header_length || off > Bytes.length buf - len then -1
  else
    let n = Bytes.get_uint16_be buf (off + 4) in
    if n < header_length || n > len then -2
    else if not (Checksum.valid_range buf ~off ~len:n) then -3
    else n

let src_port_at buf ~off = Bytes.get_uint16_be buf off
let dst_port_at buf ~off = Bytes.get_uint16_be buf (off + 2)

let decode buf =
  match length_at buf ~off:0 ~len:(Bytes.length buf) with
  | -1 -> invalid_arg "Udp.decode: too short"
  | -2 -> invalid_arg "Udp.decode: bad length"
  | -3 -> invalid_arg "Udp.decode: bad checksum"
  | len ->
    { src_port = Bytes.get_uint16_be buf 0;
      dst_port = Bytes.get_uint16_be buf 2;
      data = Bytes.sub buf 8 (len - 8) }
