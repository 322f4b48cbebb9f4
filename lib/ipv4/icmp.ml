type t =
  | Echo_request of { ident : int; seq : int; data : bytes }
  | Echo_reply of { ident : int; seq : int; data : bytes }
  | Dest_unreachable of { code : int; original : bytes }
  | Time_exceeded of { code : int; original : bytes }
  | Redirect of { gateway : Addr.t; original : bytes }
  | Location_update of { mobile : Addr.t; foreign_agent : Addr.t }
  | Agent_advertisement of { agent : Addr.t; home : bool; foreign : bool }
  | Agent_solicitation

let location_update_type = 41
let agent_advertisement_type = 9

let kind = function
  | Echo_reply _ -> 0
  | Dest_unreachable _ -> 3
  | Redirect _ -> 5
  | Echo_request _ -> 8
  | Time_exceeded _ -> 11
  | Location_update _ -> location_update_type
  | Agent_advertisement _ -> agent_advertisement_type
  | Agent_solicitation -> 10

let code = function
  | Dest_unreachable { code; _ } | Time_exceeded { code; _ } -> code
  | Redirect _ -> 1 (* redirect for host *)
  | Echo_reply _ | Echo_request _ | Location_update _ | Agent_advertisement _
  | Agent_solicitation -> 0

let type_code t = (kind t, code t)

let host_unreachable ~original = Dest_unreachable { code = 1; original }

let length = function
  | Echo_request { data; _ } | Echo_reply { data; _ } -> 8 + Bytes.length data
  | Dest_unreachable { original; _ }
  | Time_exceeded { original; _ }
  | Redirect { original; _ } -> 8 + Bytes.length original
  | Location_update _ | Agent_advertisement _ -> 16
  | Agent_solicitation -> 8

(* Every byte of the message is written, the unused ones zeroed: the
   buffer need not be clean. *)
let write t buf ~off ~len =
  if len < length t || off < 0 || off > Bytes.length buf - len then
    invalid_arg "Icmp.write: range";
  Bytes.set_uint8 buf off (kind t);
  Bytes.set_uint8 buf (off + 1) (code t);
  Bytes.set_uint16_be buf (off + 4) 0;
  Bytes.set_uint16_be buf (off + 6) 0;
  (match t with
   | Echo_request { ident; seq; data } | Echo_reply { ident; seq; data } ->
     Bytes.set_uint16_be buf (off + 4) ident;
     Bytes.set_uint16_be buf (off + 6) seq;
     Bytes.blit data 0 buf (off + 8) (Bytes.length data)
   | Dest_unreachable { original; _ } | Time_exceeded { original; _ } ->
     Bytes.blit original 0 buf (off + 8) (Bytes.length original)
   | Redirect { gateway; original } ->
     Addr.set buf (off + 4) gateway;
     Bytes.blit original 0 buf (off + 8) (Bytes.length original)
   | Location_update { mobile; foreign_agent } ->
     Addr.set buf (off + 8) mobile;
     Addr.set buf (off + 12) foreign_agent
   | Agent_advertisement { agent; home; foreign } ->
     Addr.set buf (off + 8) agent;
     Bytes.set_uint8 buf (off + 12)
       ((if home then 1 else 0) lor (if foreign then 2 else 0));
     Bytes.set_uint8 buf (off + 13) 0;
     Bytes.set_uint16_be buf (off + 14) 0
   | Agent_solicitation -> ());
  Checksum.set buf ~at:(off + 2) ~off ~len

let encode ?ext t =
  let n = length t in
  let len = match ext with None -> n | Some e -> n + Bytes.length e in
  let buf = Bytes.create len in
  (match ext with None -> () | Some e -> Bytes.blit e 0 buf n (len - n));
  write t buf ~off:0 ~len;
  buf

(* The body after the 8-byte header, copied only by the types that keep
   it. *)
let body_at buf off len = Bytes.sub buf (off + 8) (len - 8)

let decode_at buf ~off ~len =
  if off < 0 || len < 8 || off > Bytes.length buf - len
     || not (Checksum.valid_range buf ~off ~len)
  then None
  else
    let code = Bytes.get_uint8 buf (off + 1) in
    match Bytes.get_uint8 buf off with
    | 0 ->
      Some (Echo_reply { ident = Bytes.get_uint16_be buf (off + 4);
                         seq = Bytes.get_uint16_be buf (off + 6);
                         data = body_at buf off len })
    | 8 ->
      Some (Echo_request { ident = Bytes.get_uint16_be buf (off + 4);
                           seq = Bytes.get_uint16_be buf (off + 6);
                           data = body_at buf off len })
    | 3 -> Some (Dest_unreachable { code; original = body_at buf off len })
    | 11 -> Some (Time_exceeded { code; original = body_at buf off len })
    | 5 ->
      Some (Redirect { gateway = Addr.get buf (off + 4);
                       original = body_at buf off len })
    | 41 when len >= 16 ->
      Some (Location_update { mobile = Addr.get buf (off + 8);
                              foreign_agent = Addr.get buf (off + 12) })
    | 9 when len >= 16 ->
      let flags = Bytes.get_uint8 buf (off + 12) in
      Some (Agent_advertisement { agent = Addr.get buf (off + 8);
                                  home = flags land 1 <> 0;
                                  foreign = flags land 2 <> 0 })
    | 10 -> Some Agent_solicitation
    | _ -> None

let decode_opt buf = decode_at buf ~off:0 ~len:(Bytes.length buf)

let decode buf =
  match decode_opt buf with
  | Some t -> t
  | None -> invalid_arg "Icmp.decode: unknown type or truncated"

let pp ppf = function
  | Echo_request { ident; seq; _ } ->
    Format.fprintf ppf "echo-request id=%d seq=%d" ident seq
  | Echo_reply { ident; seq; _ } ->
    Format.fprintf ppf "echo-reply id=%d seq=%d" ident seq
  | Dest_unreachable { code; _ } ->
    Format.fprintf ppf "dest-unreachable code=%d" code
  | Time_exceeded { code; _ } ->
    Format.fprintf ppf "time-exceeded code=%d" code
  | Redirect { gateway; _ } ->
    Format.fprintf ppf "redirect gw=%a" Addr.pp gateway
  | Location_update { mobile; foreign_agent } ->
    Format.fprintf ppf "location-update mobile=%a fa=%a" Addr.pp mobile
      Addr.pp foreign_agent
  | Agent_advertisement { agent; home; foreign } ->
    Format.fprintf ppf "agent-advertisement %a%s%s" Addr.pp agent
      (if home then " home" else "") (if foreign then " foreign" else "")
  | Agent_solicitation -> Format.pp_print_string ppf "agent-solicitation"
