(* The attacker speaks MHRP's wire formats but not its implementation:
   every message below is hand-crafted bytes, exactly what a hostile
   node on the internetwork could emit without running the protocol
   stack.  (It also keeps the dependency arrow pointing the right way:
   lib/mhrp authenticates against lib/auth, so lib/auth cannot call into
   lib/mhrp.) *)

let control_port = 434 (* Mhrp.Control.port *)
let reg_request_type = 1

type t = {
  node : Net.Node.t;
  victim : Ipv4.Addr.t;
  mutable captured : Ipv4.Packet.t list;
  mutable forged : int;
  mutable replayed : int;
  mutable hijacked : int;
}

let create ~victim node =
  let t =
    { node; victim; captured = []; forged = 0; replayed = 0; hijacked = 0 }
  in
  (* Anything tunneled to us with the victim's address in the MHRP
     header (offset 4) is traffic we stole. *)
  Net.Node.set_proto_handler node Ipv4.Proto.mhrp (fun _ v ->
      let pkt = Ipv4.Packet.View.decode v in
      let p = pkt.Ipv4.Packet.payload in
      if Bytes.length p >= 8 && Ipv4.Addr.equal (Ipv4.Addr.get p 4) t.victim
      then begin
        t.hijacked <- t.hijacked + 1;
        if Net.Node.tracing t.node then
          Net.Node.tracef t.node "hijack" "stole packet for %a from %a"
            Ipv4.Addr.pp t.victim Ipv4.Addr.pp pkt.Ipv4.Packet.src
      end);
  t

let node t = t.node
let forged t = t.forged
let replayed t = t.replayed
let hijacked t = t.hijacked
let captured t = List.length t.captured

let send_udp t ~src ~dst data =
  let udp =
    Ipv4.Udp.encode
      (Ipv4.Udp.make ~src_port:control_port ~dst_port:control_port data)
  in
  Net.Node.send t.node
    (Ipv4.Packet.make ~proto:Ipv4.Proto.udp ~src ~dst udp)

let forge_registration t ~home_agent ~foreign_agent =
  let buf = Bytes.make 9 '\000' in
  Bytes.set_uint8 buf 0 reg_request_type;
  Ipv4.Addr.set buf 1 t.victim;
  Ipv4.Addr.set buf 5 foreign_agent;
  t.forged <- t.forged + 1;
  if Net.Node.tracing t.node then
    Net.Node.tracef t.node "forged-update"
      "forged registration: %a at fa=%a -> ha=%a" Ipv4.Addr.pp t.victim
      Ipv4.Addr.pp foreign_agent Ipv4.Addr.pp home_agent;
  (* Spoof the victim as the IP source, as the genuine registration
     would carry. *)
  send_udp t ~src:t.victim ~dst:home_agent buf

let forge_location_update t ~src ~dst ~foreign_agent =
  let icmp =
    Ipv4.Icmp.encode
      (Ipv4.Icmp.Location_update { mobile = t.victim; foreign_agent })
  in
  t.forged <- t.forged + 1;
  if Net.Node.tracing t.node then
    Net.Node.tracef t.node "forged-update"
      "forged location update to %a: %a at fa=%a (src spoofed as %a)"
      Ipv4.Addr.pp dst Ipv4.Addr.pp t.victim Ipv4.Addr.pp foreign_agent
      Ipv4.Addr.pp src;
  Net.Node.send t.node
    (Ipv4.Packet.make ~proto:Ipv4.Proto.icmp ~src ~dst icmp)

let own_macs t =
  List.map (fun (i, _, _) -> Net.Node.iface_mac t.node i)
    (Net.Node.ifaces t.node)

(* A frame is a victim registration if it decodes as UDP to the control
   port with a type-1 body naming the victim.  All the decoders raise on
   junk; junk is simply not a registration. *)
let registration_of_frame t frame =
  if List.exists (Net.Mac.equal frame.Net.Frame.src) (own_macs t) then None
  else
    match frame.Net.Frame.content with
    | Net.Frame.Arp _ -> None
    | Net.Frame.Ip raw ->
      (match Ipv4.Packet.decode raw with
       | exception Invalid_argument _ -> None
       | pkt ->
         if pkt.Ipv4.Packet.proto <> Ipv4.Proto.udp then None
         else
           match Ipv4.Udp.decode pkt.Ipv4.Packet.payload with
           | exception Invalid_argument _ -> None
           | udp ->
             if udp.Ipv4.Udp.dst_port <> control_port then None
             else
               let data = udp.Ipv4.Udp.data in
               if Bytes.length data >= 9
                  && Bytes.get_uint8 data 0 = reg_request_type
                  && Ipv4.Addr.equal (Ipv4.Addr.get data 1) t.victim
               then Some pkt
               else None)

let tap t lan =
  Net.Lan.add_monitor lan (fun frame ->
      match registration_of_frame t frame with
      | None -> ()
      | Some pkt ->
        t.captured <- t.captured @ [ pkt ];
        if Net.Node.tracing t.node then
          Net.Node.tracef t.node "capture"
            "captured registration for %a (%d bytes)" Ipv4.Addr.pp t.victim
            (Bytes.length pkt.Ipv4.Packet.payload))

let replay_captured t =
  List.iter
    (fun pkt ->
       t.replayed <- t.replayed + 1;
       if Net.Node.tracing t.node then
         Net.Node.tracef t.node "replay"
           "replaying captured registration for %a to %a" Ipv4.Addr.pp
           t.victim Ipv4.Addr.pp pkt.Ipv4.Packet.dst;
       (* Byte-identical payload, fresh IP envelope. *)
       Net.Node.send t.node
         (Ipv4.Packet.make ~proto:pkt.Ipv4.Packet.proto
            ~src:pkt.Ipv4.Packet.src ~dst:pkt.Ipv4.Packet.dst
            pkt.Ipv4.Packet.payload))
    t.captured

let assume_address t addr =
  Net.Node.add_address t.node addr;
  List.iter
    (fun (i, _, _) -> Net.Node.gratuitous_arp t.node ~iface:i addr)
    (Net.Node.ifaces t.node)
