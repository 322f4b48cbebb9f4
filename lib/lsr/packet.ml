module Addr = Ipv4.Addr

type link = {
  prefix : Addr.Prefix.t;
  addr : Addr.t;
  neighbors : Addr.t list;
}

type t =
  | Hello of { origin : Addr.t }
  | Lsa of { origin : Addr.t; seq : int; links : link list }

let version = 1
let tag_hello = 1
let tag_lsa = 2

let link_size l = 4 + 1 + 4 + 2 + (4 * List.length l.neighbors)

let size = function
  | Hello _ -> 6
  | Lsa { links; _ } ->
    6 + 4 + 2 + List.fold_left (fun acc l -> acc + link_size l) 0 links

let encode t =
  let b = Bytes.create (size t) in
  Bytes.set_uint8 b 0 version;
  (match t with
   | Hello { origin } ->
     Bytes.set_uint8 b 1 tag_hello;
     Addr.set b 2 origin
   | Lsa { origin; seq; links } ->
     if seq < 0 || seq > 0x3FFF_FFFF then
       invalid_arg "Lsr.Packet.encode: sequence number out of range";
     Bytes.set_uint8 b 1 tag_lsa;
     Addr.set b 2 origin;
     Bytes.set_int32_be b 6 (Int32.of_int seq);
     Bytes.set_uint16_be b 10 (List.length links);
     let off = ref 12 in
     List.iter
       (fun l ->
          Addr.set b !off (l.prefix.Addr.Prefix.base : Addr.t);
          Bytes.set_uint8 b (!off + 4) l.prefix.Addr.Prefix.len;
          Addr.set b (!off + 5) l.addr;
          Bytes.set_uint16_be b (!off + 9) (List.length l.neighbors);
          off := !off + 11;
          List.iter
            (fun n ->
               Addr.set b !off n;
               off := !off + 4)
            l.neighbors)
       links);
  b

let decode b =
  let fail msg = invalid_arg ("Lsr.Packet.decode: " ^ msg) in
  let len = Bytes.length b in
  if len < 6 then fail "truncated header";
  if Bytes.get_uint8 b 0 <> version then fail "bad version";
  let origin = Addr.get b 2 in
  match Bytes.get_uint8 b 1 with
  | tag when tag = tag_hello ->
    if len <> 6 then fail "hello with trailing bytes";
    Hello { origin }
  | tag when tag = tag_lsa ->
    if len < 12 then fail "truncated lsa";
    let seq = Int32.to_int (Bytes.get_int32_be b 6) in
    if seq < 0 then fail "negative sequence number";
    let nlinks = Bytes.get_uint16_be b 10 in
    let off = ref 12 in
    let links =
      List.init nlinks (fun _ ->
          if !off + 11 > len then fail "truncated link";
          let base = Addr.get b !off in
          let plen = Bytes.get_uint8 b (!off + 4) in
          if plen > 32 then fail "bad prefix length";
          let prefix = Addr.Prefix.make base plen in
          if not (Addr.equal (prefix.Addr.Prefix.base :> Addr.t) base) then
            fail "prefix with host bits set";
          let addr = Addr.get b (!off + 5) in
          let nneigh = Bytes.get_uint16_be b (!off + 9) in
          off := !off + 11;
          if !off + (4 * nneigh) > len then fail "truncated neighbor list";
          let neighbors =
            List.init nneigh (fun _ ->
                let a = Addr.get b !off in
                off := !off + 4;
                a)
          in
          { prefix; addr; neighbors })
    in
    if !off <> len then fail "trailing bytes";
    Lsa { origin; seq; links }
  | _ -> fail "unknown message type"

let decode_opt b = try Some (decode b) with Invalid_argument _ -> None

let pp ppf = function
  | Hello { origin } -> Format.fprintf ppf "hello from %a" Addr.pp origin
  | Lsa { origin; seq; links } ->
    Format.fprintf ppf "lsa %a seq=%d links=[%a]" Addr.pp origin seq
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
         (fun ppf l ->
            Format.fprintf ppf "%a via %a nbrs=%d" Addr.Prefix.pp l.prefix
              Addr.pp l.addr (List.length l.neighbors)))
      links
