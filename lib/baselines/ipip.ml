(* The 4-byte shim carries a magic tag and the inner length so that decap
   can validate; the inner packet is a complete serialized IP packet. *)

let overhead = 24
let magic = 0x4950 (* "IP" *)

let encap ~outer_src ~outer_dst (pkt : Ipv4.Packet.t) =
  let inner = Ipv4.Packet.encode pkt in
  let shim = Bytes.make 4 '\000' in
  Bytes.set shim 0 (Char.chr (magic lsr 8));
  Bytes.set shim 1 (Char.chr (magic land 0xFF));
  Bytes.set shim 2 (Char.chr ((Bytes.length inner lsr 8) land 0xFF));
  Bytes.set shim 3 (Char.chr (Bytes.length inner land 0xFF));
  Ipv4.Packet.make ~id:pkt.Ipv4.Packet.id ~proto:Ipv4.Proto.ipip
    ~src:outer_src ~dst:outer_dst
    (Bytes.cat shim inner)

let decap (pkt : Ipv4.Packet.t) =
  if pkt.Ipv4.Packet.proto <> Ipv4.Proto.ipip then None
  else begin
    let payload = pkt.Ipv4.Packet.payload in
    if Bytes.length payload < 4 then None
    else begin
      let tag =
        (Char.code (Bytes.get payload 0) lsl 8)
        lor Char.code (Bytes.get payload 1)
      in
      let len =
        (Char.code (Bytes.get payload 2) lsl 8)
        lor Char.code (Bytes.get payload 3)
      in
      if tag <> magic || Bytes.length payload < 4 + len then None
      else
        match Ipv4.Packet.decode (Bytes.sub payload 4 len) with
        | inner -> Some inner
        | exception Invalid_argument _ -> None
    end
  end
