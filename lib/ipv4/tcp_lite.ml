type flag = Fin | Syn | Rst | Psh | Ack | Urg

type t = {
  src_port : int;
  dst_port : int;
  seq : int;
  ack : int;
  flags : flag list;
  window : int;
  data : bytes;
}

let header_length = 20

let make ?(seq = 0) ?(ack = 0) ?(flags = []) ?(window = 8192) ~src_port
    ~dst_port data =
  { src_port; dst_port; seq; ack; flags; window; data }

let flag_bit = function
  | Fin -> 0x01
  | Syn -> 0x02
  | Rst -> 0x04
  | Psh -> 0x08
  | Ack -> 0x10
  | Urg -> 0x20

let flags_to_int flags =
  List.fold_left (fun acc f -> acc lor flag_bit f) 0 flags

let flags_of_int v =
  List.filter
    (fun f -> v land flag_bit f <> 0)
    [Fin; Syn; Rst; Psh; Ack; Urg]

let check name v max =
  if v < 0 || v > max then
    invalid_arg (Printf.sprintf "Tcp_lite.encode: %s out of range" name)

let encode t =
  check "src_port" t.src_port 0xFFFF;
  check "dst_port" t.dst_port 0xFFFF;
  check "seq" t.seq 0xFFFF_FFFF;
  check "ack" t.ack 0xFFFF_FFFF;
  check "window" t.window 0xFFFF;
  let len = header_length + Bytes.length t.data in
  let buf = Bytes.make len '\000' in
  Bytes.set_uint16_be buf 0 t.src_port;
  Bytes.set_uint16_be buf 2 t.dst_port;
  Bytes.set_int32_be buf 4 (Int32.of_int t.seq);
  Bytes.set_int32_be buf 8 (Int32.of_int t.ack);
  Bytes.set_uint8 buf 12 ((header_length / 4) lsl 4);
  Bytes.set_uint8 buf 13 (flags_to_int t.flags);
  Bytes.set_uint16_be buf 14 t.window;
  (* checksum at 16..17; urgent pointer zero *)
  Bytes.blit t.data 0 buf header_length (Bytes.length t.data);
  Checksum.set buf ~at:16 ~off:0 ~len;
  buf

let decode buf =
  if Bytes.length buf < header_length then None
  else
    let data_off = (Bytes.get_uint8 buf 12 lsr 4) * 4 in
    if data_off < header_length || data_off > Bytes.length buf then None
    else if not (Checksum.valid ~off:0 ~len:(Bytes.length buf) buf) then
      None
    else
      Some
        { src_port = Bytes.get_uint16_be buf 0;
          dst_port = Bytes.get_uint16_be buf 2;
          seq = Int32.to_int (Bytes.get_int32_be buf 4) land 0xFFFF_FFFF;
          ack = Int32.to_int (Bytes.get_int32_be buf 8) land 0xFFFF_FFFF;
          flags = flags_of_int (Bytes.get_uint8 buf 13);
          window = Bytes.get_uint16_be buf 14;
          data = Bytes.sub buf data_off (Bytes.length buf - data_off) }

let decode_exn buf =
  match decode buf with
  | Some t -> t
  | None -> invalid_arg "Tcp_lite.decode_exn: malformed segment"

let has_flag t f = List.mem f t.flags

let pp ppf t =
  let flag_name = function
    | Fin -> "F" | Syn -> "S" | Rst -> "R"
    | Psh -> "P" | Ack -> "A" | Urg -> "U"
  in
  Format.fprintf ppf "tcp %d->%d seq=%d ack=%d [%s] (%d bytes)" t.src_port
    t.dst_port t.seq t.ack
    (String.concat "" (List.map flag_name t.flags))
    (Bytes.length t.data)

(* --- the same format, in place ---

   The transport reads and writes segments inside packet buffers with
   the functions below; [encode] and [decode] above are the reference
   they are tested against, so the two stay separate code. *)

(* The header of the [len]-byte segment at [off], checksum last: every
   field is range-checked before the first byte is written. *)
let write buf ~off ~src_port ~dst_port ~seq ~ack ~flags ~window ~len =
  check "src_port" src_port 0xFFFF;
  check "dst_port" dst_port 0xFFFF;
  check "seq" seq 0xFFFF_FFFF;
  check "ack" ack 0xFFFF_FFFF;
  check "flags" flags 0x3F;
  check "window" window 0xFFFF;
  if off < 0 || len < header_length || off > Bytes.length buf - len then
    invalid_arg "Tcp_lite.write: segment outside the buffer";
  Bytes.set_uint16_be buf off src_port;
  Bytes.set_uint16_be buf (off + 2) dst_port;
  Bytes.set_int32_be buf (off + 4) (Int32.of_int seq);
  Bytes.set_int32_be buf (off + 8) (Int32.of_int ack);
  Bytes.set_uint8 buf (off + 12) ((header_length / 4) lsl 4);
  Bytes.set_uint8 buf (off + 13) flags;
  Bytes.set_uint16_be buf (off + 14) window;
  (* the checksum at 16..17 is computed over zero; urgent pointer zero *)
  Bytes.set_int32_be buf (off + 16) 0l;
  Checksum.set buf ~at:(off + 16) ~off ~len

let valid_at buf ~off ~len =
  off >= 0 && len >= header_length
  && off <= Bytes.length buf - len
  &&
  let data_off = (Bytes.get_uint8 buf (off + 12) lsr 4) * 4 in
  data_off >= header_length && data_off <= len
  && Checksum.valid_range buf ~off ~len

let src_port_at buf ~off = Bytes.get_uint16_be buf off
let dst_port_at buf ~off = Bytes.get_uint16_be buf (off + 2)

let seq_at buf ~off =
  Int32.to_int (Bytes.get_int32_be buf (off + 4)) land 0xFFFF_FFFF

let ack_at buf ~off =
  Int32.to_int (Bytes.get_int32_be buf (off + 8)) land 0xFFFF_FFFF

let data_offset_at buf ~off = (Bytes.get_uint8 buf (off + 12) lsr 4) * 4
let flags_at buf ~off = Bytes.get_uint8 buf (off + 13)
let window_at buf ~off = Bytes.get_uint16_be buf (off + 14)
