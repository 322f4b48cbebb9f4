module Packet = Ipv4.Packet
module Addr = Ipv4.Addr
module Node = Net.Node

let port = 437

type mode = Forwarding | Autonomous

type mobile = {
  mo_node : Node.t;
  home : Addr.t;
  mutable temp : Addr.t;  (** zero while at home *)
  mutable mo_receive : Packet.t -> unit;
}

type sender_state = {
  s_cache : (Addr.t, Addr.t) Hashtbl.t;  (* mobile -> temp *)
  s_last : (Addr.t, Packet.t) Hashtbl.t;
}

type t = {
  topo : Net.Topology.t;
  md : mode;
  mobiles : (Addr.t, mobile) Hashtbl.t;
  pfs_of : (Addr.t, Node.t) Hashtbl.t;
  senders : (string, sender_state) Hashtbl.t;
  mutable ctrl : int;
}

let create topo md =
  { topo; md; mobiles = Hashtbl.create 16; pfs_of = Hashtbl.create 16;
    senders = Hashtbl.create 16; ctrl = 0 }

(* Binding notice: mobile(4) temp(4), sent PFS -> sender in autonomous
   mode so the sender can tunnel directly. *)
let encode_notice ~mobile ~temp =
  let buf = Bytes.make 8 '\000' in
  Addr.set buf 0 mobile;
  Addr.set buf 4 temp;
  buf

let decode_notice buf =
  if Bytes.length buf < 8 then None
  else Some (Addr.get buf 0, Addr.get buf 4)

let pfs_tunnel t pfs_node (pkt : Packet.t) =
  match Hashtbl.find_opt t.mobiles pkt.Packet.dst with
  | Some m when not (Addr.is_zero m.temp) ->
    Node.forward_now pfs_node
      (Iptp.encap ~outer_src:(Node.primary_addr pfs_node)
         ~outer_dst:m.temp pkt);
    if t.md = Autonomous then begin
      (* tell the sender where to tunnel next time *)
      t.ctrl <- t.ctrl + 1;
      let udp =
        Ipv4.Udp.make ~src_port:port ~dst_port:port
          (encode_notice ~mobile:pkt.Packet.dst ~temp:m.temp)
      in
      Node.send pfs_node
        (Packet.make ~proto:Ipv4.Proto.udp
           ~src:(Node.primary_addr pfs_node) ~dst:pkt.Packet.src
           (Ipv4.Udp.encode udp))
    end
  | Some _ -> Node.forward_now pfs_node pkt (* at home: pass through *)
  | None -> Node.forward_now pfs_node pkt

let add_pfs t node =
  let claims dst =
    match Hashtbl.find_opt t.pfs_of dst with
    | Some pfs ->
      pfs == node
      && (match Hashtbl.find_opt t.mobiles dst with
          | Some m -> not (Addr.is_zero m.temp)
          | None -> false)
    | None -> false
  in
  Node.set_accept_ip node (fun _ dst -> claims dst);
  Node.set_arp_proxy node claims;
  (* Claimed packets arrive by local delivery whatever their protocol. *)
  let dispatch _ v =
    let pkt = Packet.View.decode v in
    if claims pkt.Packet.dst && pkt.Packet.proto <> Ipv4.Proto.iptp then
      pfs_tunnel t node pkt
  in
  Node.set_proto_handler node Ipv4.Proto.udp dispatch;
  Node.set_proto_handler node Ipv4.Proto.tcp dispatch;
  Node.set_proto_handler node Ipv4.Proto.icmp dispatch;
  Node.set_rewrite_forward node (fun _ v ->
      if claims (Packet.View.dst v)
         && Packet.View.proto v <> Ipv4.Proto.iptp
      then begin
        pfs_tunnel t node (Packet.View.decode v);
        Node.Consume
      end
      else Node.Forward)

let setup_mobile m =
  Node.set_proto_handler m.mo_node Ipv4.Proto.iptp (fun _ v ->
      let pkt = Packet.View.decode v in
      match Iptp.decap pkt with
      | Some inner when Addr.equal inner.Packet.dst m.home ->
        m.mo_receive inner
      | Some _ | None -> ())

let make_mobile t node ~pfs =
  let home = Node.primary_addr node in
  Node.add_address node home;
  let m =
    { mo_node = node; home; temp = Addr.zero; mo_receive = (fun _ -> ()) }
  in
  Hashtbl.replace t.mobiles home m;
  Hashtbl.replace t.pfs_of home pfs;
  setup_mobile m

let on_receive t node f =
  match Hashtbl.find_opt t.mobiles (Node.primary_addr node) with
  | Some m -> m.mo_receive <- f
  | None -> invalid_arg "Matsushita.on_receive: not a mobile host"

let move t node ~lan ~via_router ~temp =
  let home = Node.primary_addr node in
  match Hashtbl.find_opt t.mobiles home with
  | None -> invalid_arg "Matsushita.move: not a mobile host"
  | Some m ->
    let returning = Ipv4.Addr.Prefix.mem home (Net.Lan.prefix lan) in
    if (not returning)
       && not (Ipv4.Addr.Prefix.mem temp (Net.Lan.prefix lan))
    then invalid_arg "Matsushita.move: temp address not in LAN prefix";
    if not (Addr.is_zero m.temp) then Node.remove_address node m.temp;
    Net.Topology.move_host t.topo node lan;
    m.temp <- (if returning then Addr.zero else temp);
    if not returning then Node.add_address node temp;
    (match Node.ifaces node with
     | (i, l, _) :: _ ->
       let gw =
         match Node.iface_to via_router (Net.Lan.prefix l) with
         | Some ri -> Node.iface_addr via_router ri
         | None -> None
       in
       (match gw with
        | Some g ->
          Node.set_routes node
            (Net.Route.add_default
               (Net.Route.add Net.Route.empty (Net.Lan.prefix l)
                  (Net.Route.Direct i))
               (Net.Route.Via g))
        | None -> ())
     | [] -> ());
    (* registration with the PFS *)
    t.ctrl <- t.ctrl + 1

let sender_state t node =
  match Hashtbl.find_opt t.senders (Node.name node) with
  | Some st -> st
  | None ->
    let st = { s_cache = Hashtbl.create 8; s_last = Hashtbl.create 8 } in
    Hashtbl.replace t.senders (Node.name node) st;
    Node.set_proto_handler node Ipv4.Proto.udp (fun _ v ->
        let pkt = Packet.View.decode v in
        match Ipv4.Udp.decode pkt.Packet.payload with
        | exception Invalid_argument _ -> ()
        | udp ->
          if udp.Ipv4.Udp.dst_port = port then
            match decode_notice udp.Ipv4.Udp.data with
            | Some (mobile, temp) ->
              if Addr.is_zero temp then Hashtbl.remove st.s_cache mobile
              else Hashtbl.replace st.s_cache mobile temp
            | None -> ());
    Node.set_proto_handler node Ipv4.Proto.icmp (fun _ v ->
        let pkt = Packet.View.decode v in
        (* stale direct tunnel: fall back to the PFS path *)
        match Ipv4.Icmp.decode_opt pkt.Packet.payload with
        | Some (Ipv4.Icmp.Dest_unreachable { original; _ }) ->
          (match Packet.decode_prefix original with
           | Some (qpkt, _) when qpkt.Packet.proto = Ipv4.Proto.iptp ->
             let stale =
               Hashtbl.fold
                 (fun mobile temp acc ->
                    if Addr.equal temp qpkt.Packet.dst then mobile :: acc
                    else acc)
                 st.s_cache []
             in
             List.iter
               (fun mobile ->
                  Hashtbl.remove st.s_cache mobile;
                  match Hashtbl.find_opt st.s_last mobile with
                  | Some p ->
                    Hashtbl.remove st.s_last mobile;
                    Node.send node p
                  | None -> ())
               stale
           | _ -> ())
        | _ -> ());
    st

let send t ~src (pkt : Packet.t) =
  if not (Hashtbl.mem t.mobiles pkt.Packet.dst) then Node.send src pkt
  else begin
    let st = sender_state t src in
    Hashtbl.replace st.s_last pkt.Packet.dst pkt;
    match t.md with
    | Forwarding -> Node.send src pkt
    | Autonomous ->
      match Hashtbl.find_opt st.s_cache pkt.Packet.dst with
      | Some temp ->
        Node.send src
          (Iptp.encap ~outer_src:(Node.primary_addr src) ~outer_dst:temp
             pkt)
      | None -> Node.send src pkt
  end

let control_messages t = t.ctrl
