(* The shim carries a magic tag and the inner length so that decap can
   validate; the inner packet is a complete serialized IP packet. *)

let shim_tunnel ~proto ~magic ~shim_length =
  let encap ~outer_src ~outer_dst (pkt : Ipv4.Packet.t) =
    let inner = Ipv4.Packet.encode pkt in
    let shim = Bytes.make shim_length '\000' in
    Bytes.set_uint16_be shim 0 magic;
    Bytes.set_uint16_be shim 2 (Bytes.length inner);
    Ipv4.Packet.make ~id:pkt.Ipv4.Packet.id ~proto ~src:outer_src
      ~dst:outer_dst (Bytes.cat shim inner)
  in
  let decap (pkt : Ipv4.Packet.t) =
    let payload = pkt.Ipv4.Packet.payload in
    if pkt.Ipv4.Packet.proto <> proto || Bytes.length payload < shim_length
       || Bytes.get_uint16_be payload 0 <> magic
    then None
    else
      let len = Bytes.get_uint16_be payload 2 in
      if Bytes.length payload < shim_length + len then None
      else
        match Ipv4.Packet.decode (Bytes.sub payload shim_length len) with
        | inner -> Some inner
        | exception Invalid_argument _ -> None
  in
  (encap, decap)

let overhead = 24

let encap, decap =
  shim_tunnel ~proto:Ipv4.Proto.ipip ~magic:0x4950 (* "IP" *) ~shim_length:4
