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

let put_u8 buf i v = Bytes.set buf i (Char.chr (v land 0xFF))

let put_addr buf i a =
  let v = Ipv4.Addr.to_int a in
  put_u8 buf i (v lsr 24);
  put_u8 buf (i + 1) (v lsr 16);
  put_u8 buf (i + 2) (v lsr 8);
  put_u8 buf (i + 3) v

let put_mac buf i m =
  let v = Net.Mac.to_int m in
  for k = 0 to 5 do
    put_u8 buf (i + k) (v lsr ((5 - k) * 8))
  done

let get_u8 buf i = Char.code (Bytes.get buf i)
let get_u16 buf i = (get_u8 buf i lsl 8) lor get_u8 buf (i + 1)

let get_addr buf i =
  Ipv4.Addr.of_int
    ((get_u8 buf i lsl 24) lor (get_u8 buf (i + 1) lsl 16)
     lor (get_u8 buf (i + 2) lsl 8) lor get_u8 buf (i + 3))

let get_mac buf i =
  let v = ref 0 in
  for k = 0 to 5 do
    v := (!v lsl 8) lor get_u8 buf (i + k)
  done;
  Net.Mac.of_int !v

let encode = function
  | Reg_request { mobile; foreign_agent } ->
    let buf = Bytes.make 9 '\000' in
    put_u8 buf 0 1;
    put_addr buf 1 mobile;
    put_addr buf 5 foreign_agent;
    buf
  | Reg_reply { mobile; accepted } ->
    let buf = Bytes.make 6 '\000' in
    put_u8 buf 0 2;
    put_addr buf 1 mobile;
    put_u8 buf 5 (if accepted then 1 else 0);
    buf
  | Fa_connect { mobile; mac } ->
    let buf = Bytes.make 11 '\000' in
    put_u8 buf 0 3;
    put_addr buf 1 mobile;
    put_mac buf 5 mac;
    buf
  | Fa_connect_ack { mobile } ->
    let buf = Bytes.make 5 '\000' in
    put_u8 buf 0 4;
    put_addr buf 1 mobile;
    buf
  | Fa_disconnect { mobile; new_foreign_agent } ->
    let buf = Bytes.make 9 '\000' in
    put_u8 buf 0 5;
    put_addr buf 1 mobile;
    put_addr buf 5 new_foreign_agent;
    buf
  | Ha_sync { mobile; foreign_agent } ->
    let buf = Bytes.make 9 '\000' in
    put_u8 buf 0 6;
    put_addr buf 1 mobile;
    put_addr buf 5 foreign_agent;
    buf
  | Ha_sync_ack { mobile } ->
    let buf = Bytes.make 5 '\000' in
    put_u8 buf 0 7;
    put_addr buf 1 mobile;
    buf
  | Fa_connect_ack_r { mobile; regional; backup } ->
    let buf = Bytes.make 13 '\000' in
    put_u8 buf 0 8;
    put_addr buf 1 mobile;
    put_addr buf 5 regional;
    put_addr buf 9 backup;
    buf
  | Reg_region { mobile; foreign_agent; lifetime_s } ->
    let buf = Bytes.make 11 '\000' in
    put_u8 buf 0 9;
    put_addr buf 1 mobile;
    put_addr buf 5 foreign_agent;
    put_u8 buf 9 (lifetime_s lsr 8);
    put_u8 buf 10 lifetime_s;
    buf
  | Reg_region_ack { mobile } ->
    let buf = Bytes.make 5 '\000' in
    put_u8 buf 0 10;
    put_addr buf 1 mobile;
    buf
  | Fa_visitor_miss { mobile; foreign_agent } ->
    let buf = Bytes.make 9 '\000' in
    put_u8 buf 0 11;
    put_addr buf 1 mobile;
    put_addr buf 5 foreign_agent;
    buf
  | Region_sync { mobile; foreign_agent; lifetime_s } ->
    let buf = Bytes.make 11 '\000' in
    put_u8 buf 0 12;
    put_addr buf 1 mobile;
    put_addr buf 5 foreign_agent;
    put_u8 buf 9 (lifetime_s lsr 8);
    put_u8 buf 10 lifetime_s;
    buf
  | Region_sync_ack { mobile } ->
    let buf = Bytes.make 5 '\000' in
    put_u8 buf 0 13;
    put_addr buf 1 mobile;
    buf
  | Region_forward { mobile; new_regional } ->
    let buf = Bytes.make 9 '\000' in
    put_u8 buf 0 14;
    put_addr buf 1 mobile;
    put_addr buf 5 new_regional;
    buf

let decode_at buf ~off ~len =
  if off < 0 || len < 5 || off > Bytes.length buf - len then None
  else
    let mobile = get_addr buf (off + 1) in
    match get_u8 buf off with
    | 1 when len >= 9 ->
      Some (Reg_request { mobile; foreign_agent = get_addr buf (off + 5) })
    | 2 when len >= 6 ->
      Some (Reg_reply { mobile; accepted = get_u8 buf (off + 5) <> 0 })
    | 3 when len >= 11 ->
      (match get_mac buf (off + 5) with
       | mac -> Some (Fa_connect { mobile; mac })
       | exception Invalid_argument _ -> None)
    | 4 -> Some (Fa_connect_ack { mobile })
    | 5 when len >= 9 ->
      Some (Fa_disconnect { mobile;
                            new_foreign_agent = get_addr buf (off + 5) })
    | 6 when len >= 9 ->
      Some (Ha_sync { mobile; foreign_agent = get_addr buf (off + 5) })
    | 7 -> Some (Ha_sync_ack { mobile })
    | 8 when len >= 13 ->
      Some (Fa_connect_ack_r { mobile;
                               regional = get_addr buf (off + 5);
                               backup = get_addr buf (off + 9) })
    | 9 when len >= 11 ->
      Some (Reg_region { mobile;
                         foreign_agent = get_addr buf (off + 5);
                         lifetime_s = get_u16 buf (off + 9) })
    | 10 -> Some (Reg_region_ack { mobile })
    | 11 when len >= 9 ->
      Some (Fa_visitor_miss { mobile;
                              foreign_agent = get_addr buf (off + 5) })
    | 12 when len >= 11 ->
      Some (Region_sync { mobile;
                          foreign_agent = get_addr buf (off + 5);
                          lifetime_s = get_u16 buf (off + 9) })
    | 13 -> Some (Region_sync_ack { mobile })
    | 14 when len >= 9 ->
      Some (Region_forward { mobile; new_regional = get_addr buf (off + 5) })
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
