type t = {
  tos : int;
  id : int;
  dont_fragment : bool;
  more_fragments : bool;
  frag_offset : int;
  ttl : int;
  proto : Proto.t;
  src : Addr.t;
  dst : Addr.t;
  options : Ip_option.t list;
  payload : bytes;
}

let default_ttl = 64

let make ?(tos = 0) ?(id = 0) ?(dont_fragment = false)
    ?(more_fragments = false) ?(frag_offset = 0) ?(ttl = default_ttl)
    ?(options = []) ~proto ~src ~dst payload =
  if frag_offset < 0 || frag_offset mod 8 <> 0 then
    invalid_arg "Packet.make: fragment offset must be a multiple of 8";
  { tos; id; dont_fragment; more_fragments; frag_offset; ttl; proto; src;
    dst; options; payload }

let is_fragment t = t.more_fragments || t.frag_offset > 0

let encode_options = function
  | [] -> Bytes.empty
  | opts -> Ip_option.encode_all opts

let options_bytes t = encode_options t.options

let header_length t = 20 + Bytes.length (options_bytes t)
let total_length t = header_length t + Bytes.length t.payload
let has_options t = t.options <> []

let check_field name v max =
  if v < 0 || v > max then
    invalid_arg (Printf.sprintf "Packet.encode: %s out of range" name)

(* The one header writer, so the layout and the range checks exist
   once: a fresh buffer for a packet with a [gap]-byte payload, its
   header written and checksummed and the payload left zero.  [flags]
   is the 16-bit flags-and-offset word.  The header checksum does not
   cover the payload, so the caller may write it afterwards. *)
let header ~tos ~id ~flags ~ttl ~proto ~src ~dst ~options ~gap =
  check_field "tos" tos 0xFF;
  check_field "id" id 0xFFFF;
  check_field "ttl" ttl 0xFF;
  check_field "proto" proto 0xFF;
  let opts = encode_options options in
  let hlen = 20 + Bytes.length opts in
  let ihl = hlen / 4 in
  if ihl > 15 then invalid_arg "Packet.encode: header too long";
  let tlen = hlen + gap in
  if tlen > 0xFFFF then invalid_arg "Packet.encode: packet too long";
  let buf = Bytes.make tlen '\000' in
  Bytes.set_uint8 buf 0 ((4 lsl 4) lor ihl);
  Bytes.set_uint8 buf 1 tos;
  Bytes.set_uint16_be buf 2 tlen;
  Bytes.set_uint16_be buf 4 id;
  Bytes.set_uint16_be buf 6 flags;
  Bytes.set_uint8 buf 8 ttl;
  Bytes.set_uint8 buf 9 proto;
  Addr.set buf 12 src;
  Addr.set buf 16 dst;
  Bytes.blit opts 0 buf 20 (Bytes.length opts);
  Checksum.set buf ~at:10 ~off:0 ~len:hlen;
  buf

let encode_header ~id ~proto ~src ~dst ~gap =
  header ~tos:0 ~id ~flags:0 ~ttl:default_ttl ~proto ~src ~dst
    ~options:[] ~gap

let encode_with_gap t ~gap =
  let plen = Bytes.length t.payload in
  let flags =
    (if t.dont_fragment then 0x4000 else 0)
    lor (if t.more_fragments then 0x2000 else 0)
    lor (t.frag_offset / 8)
  in
  let buf =
    header ~tos:t.tos ~id:t.id ~flags ~ttl:t.ttl ~proto:t.proto ~src:t.src
      ~dst:t.dst ~options:t.options ~gap:(gap + plen)
  in
  Bytes.blit t.payload 0 buf (Bytes.length buf - plen) plen;
  buf

let encode t = encode_with_gap t ~gap:0

let decode buf =
  if Bytes.length buf < 20 then invalid_arg "Packet.decode: too short";
  let vi = Bytes.get_uint8 buf 0 in
  if vi lsr 4 <> 4 then invalid_arg "Packet.decode: not IPv4";
  let hlen = (vi land 0xF) * 4 in
  if hlen < 20 || hlen > Bytes.length buf then
    invalid_arg "Packet.decode: bad header length";
  if not (Checksum.valid ~off:0 ~len:hlen buf) then
    invalid_arg "Packet.decode: bad header checksum";
  let tlen = Bytes.get_uint16_be buf 2 in
  if tlen < hlen || tlen > Bytes.length buf then
    invalid_arg "Packet.decode: bad total length";
  let options =
    if hlen = 20 then []
    else Ip_option.decode_all (Bytes.sub buf 20 (hlen - 20))
  in
  let flags = Bytes.get_uint16_be buf 6 in
  { tos = Bytes.get_uint8 buf 1;
    id = Bytes.get_uint16_be buf 4;
    dont_fragment = flags land 0x4000 <> 0;
    more_fragments = flags land 0x2000 <> 0;
    frag_offset = (flags land 0x1FFF) * 8;
    ttl = Bytes.get_uint8 buf 8;
    proto = Bytes.get_uint8 buf 9;
    src = Addr.get buf 12;
    dst = Addr.get buf 16;
    options;
    payload = Bytes.sub buf hlen (tlen - hlen) }

let decode_prefix buf =
  if Bytes.length buf < 20 then None
  else begin
    let vi = Bytes.get_uint8 buf 0 in
    let hlen = (vi land 0xF) * 4 in
    if vi lsr 4 <> 4 || hlen < 20 || hlen > Bytes.length buf
       || not (Checksum.valid ~off:0 ~len:hlen buf)
    then None
    else begin
      let tlen = Bytes.get_uint16_be buf 2 in
      if tlen < hlen then None
      else begin
        let avail = min (Bytes.length buf) tlen - hlen in
        let options =
          if hlen = 20 then []
          else
            match Ip_option.decode_all (Bytes.sub buf 20 (hlen - 20)) with
            | opts -> opts
            | exception Invalid_argument _ -> []
        in
        let flags = Bytes.get_uint16_be buf 6 in
        Some
          ({ tos = Bytes.get_uint8 buf 1;
             id = Bytes.get_uint16_be buf 4;
             dont_fragment = flags land 0x4000 <> 0;
             more_fragments = flags land 0x2000 <> 0;
             frag_offset = (flags land 0x1FFF) * 8;
             ttl = Bytes.get_uint8 buf 8;
             proto = Bytes.get_uint8 buf 9;
             src = Addr.get buf 12;
             dst = Addr.get buf 16;
             options;
             payload = Bytes.sub buf hlen avail },
           tlen - hlen)
      end
    end
  end

let decr_ttl t = if t.ttl <= 1 then None else Some { t with ttl = t.ttl - 1 }

(* Zero-copy views of encoded packets: the forwarding fast path reads
   fields and rewrites TTL/checksum in place without ever building a
   [t].  A view is its buffer, so making one allocates nothing; see
   DESIGN.md Section 11 for the ownership rules that make in-place
   mutation sound. *)
module View = struct
  type t = bytes

  let make buf = buf
  let buffer v = v

  let u8 v i = Bytes.get_uint8 v i
  let u16 v i = Bytes.get_uint16_be v i

  (* Accepts exactly what [decode] accepts structurally: a complete
     IPv4 header with a valid checksum and a total length that fits the
     buffer.  Never raises, whatever the bytes — checked by a QCheck
     totality property.  (Option *contents* are not parsed here; the
     fast path only handles option-free headers and falls back to
     [decode] — which does parse and may reject them — otherwise.) *)
  let valid v =
    let len = Bytes.length v in
    len >= 20
    && (let b0 = u8 v 0 in
        b0 lsr 4 = 4
        && (let hlen = (b0 land 0xF) * 4 in
            hlen >= 20 && hlen <= len
            && Checksum.valid_range v ~off:0 ~len:hlen
            && (let tlen = u16 v 2 in
                tlen >= hlen && tlen <= len)))

  let header_length v = (u8 v 0 land 0xF) * 4
  let total_length v = u16 v 2
  let id v = u16 v 4
  let ttl v = u8 v 8
  let proto v = u8 v 9
  let src v = Addr.get v 12
  let dst v = Addr.get v 16
  let has_options v = header_length v > 20
  let payload_offset = header_length
  let payload_length v = total_length v - header_length v

  let is_fragment v =
    let flags = u16 v 6 in
    flags land 0x2000 <> 0 || flags land 0x1FFF <> 0

  (* TTL shares its 16-bit checksum word with the protocol byte. *)
  let set_ttl v new_ttl =
    if new_ttl < 0 || new_ttl > 0xFF then
      invalid_arg "Packet.View.set_ttl: out of range";
    let old_word = u16 v 8 in
    let new_word = (new_ttl lsl 8) lor (old_word land 0xFF) in
    if new_word <> old_word then begin
      Bytes.set_uint8 v 8 new_ttl;
      Checksum.update v ~at:10 ~old_word ~new_word
    end

  (* [set_ttl (ttl - 1)] with the TTL/protocol word read once: the TTL
     always changes, so no unchanged-word test either. *)
  let decr_ttl v =
    let old_word = u16 v 8 in
    let t = old_word lsr 8 in
    if t < 1 then invalid_arg "Packet.View.decr_ttl: ttl is zero";
    Bytes.set_uint8 v 8 (t - 1);
    Checksum.update v ~at:10 ~old_word
      ~new_word:(((t - 1) lsl 8) lor (old_word land 0xFF))

  let to_wire v = v
  let decode = decode
  let decode_prefix = decode_prefix
end

let pp ppf t =
  Format.fprintf ppf "%a -> %a %a len=%d ttl=%d%s" Addr.pp t.src Addr.pp
    t.dst Proto.pp t.proto (total_length t) t.ttl
    (if has_options t then " +opts" else "")

let fragment t ~mtu =
  if total_length t <= mtu then [t]
  else if t.dont_fragment then
    invalid_arg "Packet.fragment: dont_fragment set"
  else begin
    let first_hlen = header_length t in
    (* subsequent fragments carry no options (treated as not-copied) *)
    let rest_hlen = 20 in
    if mtu < first_hlen + 8 then invalid_arg "Packet.fragment: tiny mtu";
    let chunk_for hlen = (mtu - hlen) / 8 * 8 in
    let total = Bytes.length t.payload in
    let rec split off acc =
      if off >= total then List.rev acc
      else begin
        let hlen = if off = 0 then first_hlen else rest_hlen in
        let chunk = min (chunk_for hlen) (total - off) in
        let last = off + chunk >= total in
        let frag =
          { t with
            more_fragments = (not last) || t.more_fragments;
            frag_offset = t.frag_offset + off;
            options = (if off = 0 then t.options else []);
            payload = Bytes.sub t.payload off chunk }
        in
        split (off + chunk) (frag :: acc)
      end
    in
    split 0 []
  end

module Reassembly = struct
  type packet = t

  type buffer = {
    mutable chunks : (int * bytes) list;  (* offset, data *)
    mutable total : int option;  (* payload length, known from last frag *)
    mutable first : packet option;  (* fragment with offset 0 *)
    started_at : int;
  }

  type nonrec t = {
    buffers : (Addr.t * Addr.t * int * int, buffer) Hashtbl.t;
    (* keyed by src, dst, id, proto *)
  }

  let create () = { buffers = Hashtbl.create 8 }

  let complete buf =
    match buf.total, buf.first with
    | Some total, Some first ->
      let covered = Array.make total false in
      List.iter
        (fun (off, data) ->
           for i = off to min (total - 1) (off + Bytes.length data - 1) do
             covered.(i) <- true
           done)
        buf.chunks;
      if Array.for_all Fun.id covered then begin
        let payload = Bytes.create total in
        List.iter
          (fun (off, data) ->
             Bytes.blit data 0 payload off
               (min (Bytes.length data) (total - off)))
          buf.chunks;
        Some
          { first with
            more_fragments = false;
            frag_offset = 0;
            payload }
      end
      else None
    | _ -> None

  let add t ~now (pkt : packet) =
    if not (is_fragment pkt) then Some pkt
    else begin
      let key = (pkt.src, pkt.dst, pkt.id, pkt.proto) in
      let buf =
        match Hashtbl.find_opt t.buffers key with
        | Some b -> b
        | None ->
          let b =
            { chunks = []; total = None; first = None; started_at = now }
          in
          Hashtbl.replace t.buffers key b;
          b
      in
      buf.chunks <- (pkt.frag_offset, pkt.payload) :: buf.chunks;
      if pkt.frag_offset = 0 then buf.first <- Some pkt;
      if not pkt.more_fragments then
        buf.total <- Some (pkt.frag_offset + Bytes.length pkt.payload);
      match complete buf with
      | Some whole ->
        Hashtbl.remove t.buffers key;
        Some whole
      | None -> None
    end

  let expire t ~now ~older_than_us =
    let stale =
      Hashtbl.fold
        (fun key buf acc ->
           if now - buf.started_at > older_than_us then key :: acc else acc)
        t.buffers []
    in
    List.iter (Hashtbl.remove t.buffers) stale;
    List.length stale

  let pending t = Hashtbl.length t.buffers
end
