let port = 434

type t =
  | Reg_request of { mobile : Ipv4.Addr.t; foreign_agent : Ipv4.Addr.t }
  | Reg_reply of { mobile : Ipv4.Addr.t; accepted : bool }
  | Fa_connect of { mobile : Ipv4.Addr.t; mac : Net.Mac.t }
  | Fa_connect_ack of { mobile : Ipv4.Addr.t }
  | Fa_disconnect of { mobile : Ipv4.Addr.t; new_foreign_agent : Ipv4.Addr.t }
  | Ha_sync of { mobile : Ipv4.Addr.t; foreign_agent : Ipv4.Addr.t }
  | Ha_sync_ack of { mobile : Ipv4.Addr.t }
  | Fa_connect_ack_r of
      { mobile : Ipv4.Addr.t;
        regional : Ipv4.Addr.t;
        backup : Ipv4.Addr.t }
  | Reg_region of
      { mobile : Ipv4.Addr.t;
        foreign_agent : Ipv4.Addr.t;
        lifetime_s : int }
  | Reg_region_ack of { mobile : Ipv4.Addr.t }
  | Fa_visitor_miss of { mobile : Ipv4.Addr.t; foreign_agent : Ipv4.Addr.t }
  | Region_sync of
      { mobile : Ipv4.Addr.t;
        foreign_agent : Ipv4.Addr.t;
        lifetime_s : int }
  | Region_sync_ack of { mobile : Ipv4.Addr.t }
  | Region_forward of { mobile : Ipv4.Addr.t; new_regional : Ipv4.Addr.t }

let length = function
  | Fa_connect_ack _ | Ha_sync_ack _ | Reg_region_ack _ | Region_sync_ack _ ->
    5
  | Reg_reply _ -> 6
  | Reg_request _ | Fa_disconnect _ | Ha_sync _ | Fa_visitor_miss _
  | Region_forward _ -> 9
  | Fa_connect _ | Reg_region _ | Region_sync _ -> 11
  | Fa_connect_ack_r _ -> 13

(* Every message starts with its type code, then the mobile's address;
   the cases below write any further fields from offset 5. *)
let head buf off code mobile =
  Bytes.set_uint8 buf off code;
  Ipv4.Addr.set buf (off + 1) mobile

let with_addr buf off code mobile a =
  head buf off code mobile;
  Ipv4.Addr.set buf (off + 5) a

(* The lifetime is u16 seconds on the wire: one that does not fit is
   refused, not wrapped into a shorter (or, at 65,536 s, endless) one. *)
let with_lifetime buf off code mobile foreign_agent lifetime_s =
  if lifetime_s < 0 || lifetime_s > 0xFFFF then
    invalid_arg "Control.encode: lifetime_s out of range";
  with_addr buf off code mobile foreign_agent;
  Bytes.set_uint16_be buf (off + 9) lifetime_s

let write t buf ~off =
  match t with
  | Reg_request { mobile; foreign_agent } ->
    with_addr buf off 1 mobile foreign_agent
  | Reg_reply { mobile; accepted } ->
    head buf off 2 mobile;
    Bytes.set_uint8 buf (off + 5) (if accepted then 1 else 0)
  | Fa_connect { mobile; mac } ->
    (* the 48-bit MAC: its top 16 bits, then its low 32 as two halves *)
    head buf off 3 mobile;
    let v = Net.Mac.to_int mac in
    Bytes.set_uint16_be buf (off + 5) (v lsr 32);
    Bytes.set_uint16_be buf (off + 7) ((v lsr 16) land 0xFFFF);
    Bytes.set_uint16_be buf (off + 9) (v land 0xFFFF)
  | Fa_connect_ack { mobile } -> head buf off 4 mobile
  | Fa_disconnect { mobile; new_foreign_agent } ->
    with_addr buf off 5 mobile new_foreign_agent
  | Ha_sync { mobile; foreign_agent } ->
    with_addr buf off 6 mobile foreign_agent
  | Ha_sync_ack { mobile } -> head buf off 7 mobile
  | Fa_connect_ack_r { mobile; regional; backup } ->
    with_addr buf off 8 mobile regional;
    Ipv4.Addr.set buf (off + 9) backup
  | Reg_region { mobile; foreign_agent; lifetime_s } ->
    with_lifetime buf off 9 mobile foreign_agent lifetime_s
  | Reg_region_ack { mobile } -> head buf off 10 mobile
  | Fa_visitor_miss { mobile; foreign_agent } ->
    with_addr buf off 11 mobile foreign_agent
  | Region_sync { mobile; foreign_agent; lifetime_s } ->
    with_lifetime buf off 12 mobile foreign_agent lifetime_s
  | Region_sync_ack { mobile } -> head buf off 13 mobile
  | Region_forward { mobile; new_regional } ->
    with_addr buf off 14 mobile new_regional

let encode t =
  let buf = Bytes.create (length t) in
  write t buf ~off:0;
  buf

let decode_at buf ~off ~len =
  if off < 0 || len < 5 || off > Bytes.length buf - len then None
  else
    let mobile = Ipv4.Addr.get buf (off + 1) in
    match Bytes.get_uint8 buf off with
    | 1 when len >= 9 ->
      Some (Reg_request
              { mobile; foreign_agent = Ipv4.Addr.get buf (off + 5) })
    | 2 when len >= 6 ->
      Some (Reg_reply
              { mobile; accepted = Bytes.get_uint8 buf (off + 5) <> 0 })
    | 3 when len >= 11 ->
      let v =
        (Bytes.get_uint16_be buf (off + 5) lsl 32)
        lor (Int32.to_int (Bytes.get_int32_be buf (off + 7)) land 0xFFFF_FFFF)
      in
      (match Net.Mac.of_int v with
       | mac -> Some (Fa_connect { mobile; mac })
       | exception Invalid_argument _ -> None)
    | 4 -> Some (Fa_connect_ack { mobile })
    | 5 when len >= 9 ->
      Some (Fa_disconnect
              { mobile; new_foreign_agent = Ipv4.Addr.get buf (off + 5) })
    | 6 when len >= 9 ->
      Some (Ha_sync { mobile; foreign_agent = Ipv4.Addr.get buf (off + 5) })
    | 7 -> Some (Ha_sync_ack { mobile })
    | 8 when len >= 13 ->
      Some (Fa_connect_ack_r { mobile;
                               regional = Ipv4.Addr.get buf (off + 5);
                               backup = Ipv4.Addr.get buf (off + 9) })
    | 9 when len >= 11 ->
      Some (Reg_region { mobile;
                         foreign_agent = Ipv4.Addr.get buf (off + 5);
                         lifetime_s = Bytes.get_uint16_be buf (off + 9) })
    | 10 -> Some (Reg_region_ack { mobile })
    | 11 when len >= 9 ->
      Some (Fa_visitor_miss
              { mobile; foreign_agent = Ipv4.Addr.get buf (off + 5) })
    | 12 when len >= 11 ->
      Some (Region_sync { mobile;
                          foreign_agent = Ipv4.Addr.get buf (off + 5);
                          lifetime_s = Bytes.get_uint16_be buf (off + 9) })
    | 13 -> Some (Region_sync_ack { mobile })
    | 14 when len >= 9 ->
      Some (Region_forward
              { mobile; new_regional = Ipv4.Addr.get buf (off + 5) })
    | _ -> None

let decode buf = decode_at buf ~off:0 ~len:(Bytes.length buf)

let mobile = function
  | Reg_request { mobile; _ }
  | Reg_reply { mobile; _ }
  | Fa_connect { mobile; _ }
  | Fa_connect_ack { mobile }
  | Fa_disconnect { mobile; _ }
  | Ha_sync { mobile; _ }
  | Ha_sync_ack { mobile }
  | Fa_connect_ack_r { mobile; _ }
  | Reg_region { mobile; _ }
  | Reg_region_ack { mobile }
  | Fa_visitor_miss { mobile; _ }
  | Region_sync { mobile; _ }
  | Region_sync_ack { mobile }
  | Region_forward { mobile; _ } -> mobile

let pp ppf = function
  | Reg_request { mobile; foreign_agent } ->
    Format.fprintf ppf "reg-request mobile=%a fa=%a" Ipv4.Addr.pp mobile
      Ipv4.Addr.pp foreign_agent
  | Reg_reply { mobile; accepted } ->
    Format.fprintf ppf "reg-reply mobile=%a %s" Ipv4.Addr.pp mobile
      (if accepted then "accepted" else "denied")
  | Fa_connect { mobile; mac } ->
    Format.fprintf ppf "fa-connect mobile=%a mac=%a" Ipv4.Addr.pp mobile
      Net.Mac.pp mac
  | Fa_connect_ack { mobile } ->
    Format.fprintf ppf "fa-connect-ack mobile=%a" Ipv4.Addr.pp mobile
  | Fa_disconnect { mobile; new_foreign_agent } ->
    Format.fprintf ppf "fa-disconnect mobile=%a new-fa=%a" Ipv4.Addr.pp
      mobile Ipv4.Addr.pp new_foreign_agent
  | Ha_sync { mobile; foreign_agent } ->
    Format.fprintf ppf "ha-sync mobile=%a fa=%a" Ipv4.Addr.pp mobile
      Ipv4.Addr.pp foreign_agent
  | Ha_sync_ack { mobile } ->
    Format.fprintf ppf "ha-sync-ack mobile=%a" Ipv4.Addr.pp mobile
  | Fa_connect_ack_r { mobile; regional; backup } ->
    Format.fprintf ppf "fa-connect-ack-r mobile=%a regional=%a backup=%a"
      Ipv4.Addr.pp mobile Ipv4.Addr.pp regional Ipv4.Addr.pp backup
  | Reg_region { mobile; foreign_agent; lifetime_s } ->
    Format.fprintf ppf "reg-region mobile=%a fa=%a lifetime=%ds" Ipv4.Addr.pp
      mobile Ipv4.Addr.pp foreign_agent lifetime_s
  | Reg_region_ack { mobile } ->
    Format.fprintf ppf "reg-region-ack mobile=%a" Ipv4.Addr.pp mobile
  | Fa_visitor_miss { mobile; foreign_agent } ->
    Format.fprintf ppf "fa-visitor-miss mobile=%a fa=%a" Ipv4.Addr.pp mobile
      Ipv4.Addr.pp foreign_agent
  | Region_sync { mobile; foreign_agent; lifetime_s } ->
    Format.fprintf ppf "region-sync mobile=%a fa=%a lifetime=%ds" Ipv4.Addr.pp
      mobile Ipv4.Addr.pp foreign_agent lifetime_s
  | Region_sync_ack { mobile } ->
    Format.fprintf ppf "region-sync-ack mobile=%a" Ipv4.Addr.pp mobile
  | Region_forward { mobile; new_regional } ->
    Format.fprintf ppf "region-forward mobile=%a new-regional=%a" Ipv4.Addr.pp
      mobile Ipv4.Addr.pp new_regional
