module Packet = Ipv4.Packet
module Addr = Ipv4.Addr
module Node = Net.Node

let port = 436

type msg =
  | Who_has of { mobile : Addr.t }
  | Serving of { mobile : Addr.t; msr : Addr.t }

let encode_msg m =
  let buf = Bytes.make 9 '\000' in
  (match m with
   | Who_has { mobile } ->
     Bytes.set buf 0 '\001';
     Addr.set buf 1 mobile
   | Serving { mobile; msr } ->
     Bytes.set buf 0 '\002';
     Addr.set buf 1 mobile;
     Addr.set buf 5 msr);
  buf

let decode_msg buf =
  if Bytes.length buf < 9 then None
  else
    match Bytes.get buf 0 with
    | '\001' -> Some (Who_has { mobile = Addr.get buf 1 })
    | '\002' -> Some (Serving { mobile = Addr.get buf 1; msr = Addr.get buf 5 })
    | _ -> None

type msr = {
  m_node : Node.t;
  m_iface : int;  (* cell interface *)
  m_addr : Addr.t;
  visitors : (Addr.t, unit) Hashtbl.t;
  cache : (Addr.t, Addr.t) Hashtbl.t;  (* mobile -> serving MSR *)
  queued : (Addr.t, Packet.t list) Hashtbl.t;
}

type t = {
  topo : Net.Topology.t;
  mutable msrs : msr list;
  homes : (Addr.t, msr) Hashtbl.t;  (* mobile -> home MSR *)
  mutable ctrl : int;
}

let create topo = { topo; msrs = []; homes = Hashtbl.create 16; ctrl = 0 }

let send_msg t ~from ~dst m =
  t.ctrl <- t.ctrl + 1;
  let udp =
    Ipv4.Udp.make ~src_port:port ~dst_port:port (encode_msg m)
  in
  Node.send from.m_node
    (Packet.make ~proto:Ipv4.Proto.udp ~src:from.m_addr ~dst
       (Ipv4.Udp.encode udp))

(* Ask every other MSR who serves [mobile] — the broadcast/multicast
   dependency the paper criticises.  Each query is one message per peer. *)
let who_has t msr mobile =
  List.iter
    (fun peer ->
       if peer != msr then
         send_msg t ~from:msr ~dst:peer.m_addr (Who_has { mobile }))
    t.msrs

let tunnel_to t msr ~serving_msr (pkt : Packet.t) =
  ignore t;
  Node.forward_now msr.m_node
    (Ipip.encap ~outer_src:msr.m_addr ~outer_dst:serving_msr pkt)

let handle_for_mobile t msr (pkt : Packet.t) =
  let mobile = pkt.Packet.dst in
  if Hashtbl.mem msr.visitors mobile then
    (* direct delivery over the cell through the host route *)
    Node.forward_now msr.m_node pkt
  else
    match Hashtbl.find_opt msr.cache mobile with
    | Some serving_msr when not (Addr.equal serving_msr msr.m_addr) ->
      tunnel_to t msr ~serving_msr pkt
    | _ ->
      let q = Option.value ~default:[] (Hashtbl.find_opt msr.queued mobile)
      in
      Hashtbl.replace msr.queued mobile (pkt :: q);
      if q = [] then who_has t msr mobile

let setup_msr t msr =
  let node = msr.m_node in
  let claims dst =
    (* traffic for our own mobiles (home advertisement) and for current
       visitors *)
    (match Hashtbl.find_opt t.homes dst with
     | Some home -> home == msr
     | None -> false)
    || Hashtbl.mem msr.visitors dst
  in
  Node.set_accept_ip node (fun _ dst -> claims dst);
  (* answer ARP for our own mobiles when they are not on this LAN — the
     link-level half of "advertising reachability" *)
  Node.set_arp_proxy node (fun dst ->
      claims dst && not (Hashtbl.mem msr.visitors dst));
  Node.set_rewrite_forward node (fun _ v ->
      let dst = Packet.View.dst v in
      let is_my_mobile =
        match Hashtbl.find_opt t.homes dst with
        | Some home -> home == msr
        | None -> false
      in
      if (is_my_mobile || Hashtbl.mem msr.visitors dst)
         && Packet.View.proto v <> Ipv4.Proto.ipip
      then begin
        handle_for_mobile t msr (Packet.View.decode v);
        Node.Consume
      end
      else Node.Forward);
  Node.set_proto_handler node Ipv4.Proto.ipip (fun _ v ->
      let pkt = Packet.View.decode v in
      match Ipip.decap pkt with
      | None -> ()
      | Some inner ->
        if Hashtbl.mem msr.visitors inner.Packet.dst then
          Node.forward_now node inner
        else
          (* stale tunnel: find the right MSR and re-tunnel *)
          handle_for_mobile t msr inner);
  (* Packets claimed off the LAN or in transit for a mobile host arrive
     through local delivery whatever their protocol; dispatch them to the
     mobile-host path before looking for MSR control traffic. *)
  let dispatch control _ v =
    let pkt = Packet.View.decode v in
    if not (Node.has_address node pkt.Packet.dst) then
      handle_for_mobile t msr pkt
    else control pkt
  in
  Node.set_proto_handler node Ipv4.Proto.tcp (dispatch (fun _ -> ()));
  Node.set_proto_handler node Ipv4.Proto.icmp (dispatch (fun _ -> ()));
  Node.set_proto_handler node Ipv4.Proto.udp
    (dispatch (fun pkt ->
         match Ipv4.Udp.decode pkt.Packet.payload with
         | exception Invalid_argument _ -> ()
         | udp ->
           if udp.Ipv4.Udp.dst_port = port then
             match decode_msg udp.Ipv4.Udp.data with
             | Some (Who_has { mobile }) ->
               if Hashtbl.mem msr.visitors mobile then
                 send_msg t ~from:msr ~dst:pkt.Packet.src
                   (Serving { mobile; msr = msr.m_addr })
             | Some (Serving { mobile; msr = serving }) ->
               Hashtbl.replace msr.cache mobile serving;
               let q =
                 Option.value ~default:[]
                   (Hashtbl.find_opt msr.queued mobile)
               in
               Hashtbl.remove msr.queued mobile;
               List.iter
                 (fun p -> tunnel_to t msr ~serving_msr:serving p)
                 (List.rev q)
             | None -> ()))

let add_msr t node ~cell =
  match Node.iface_to node (Net.Lan.prefix cell) with
  | None -> invalid_arg "Columbia.add_msr: node not on cell"
  | Some i ->
    let addr =
      match Node.iface_addr node i with
      | Some a -> a
      | None -> invalid_arg "Columbia.add_msr: no address on cell"
    in
    let msr =
      { m_node = node; m_iface = i; m_addr = addr;
        visitors = Hashtbl.create 8; cache = Hashtbl.create 16;
        queued = Hashtbl.create 8 }
    in
    t.msrs <- t.msrs @ [msr];
    setup_msr t msr;
    msr

let make_mobile t node ~home =
  Node.add_address node (Node.primary_addr node);
  Hashtbl.replace t.homes (Node.primary_addr node) home

let move t mobile_node ~to_msr =
  let mobile = Node.primary_addr mobile_node in
  (* implicit disconnect from the previous serving MSR *)
  List.iter
    (fun msr ->
       if Hashtbl.mem msr.visitors mobile then begin
         Hashtbl.remove msr.visitors mobile;
         Node.update_routes msr.m_node (fun r ->
             Net.Route.remove_host r mobile)
       end)
    t.msrs;
  Net.Topology.move_host t.topo mobile_node
    (Node.iface_lan to_msr.m_node to_msr.m_iface);
  (* registration with the new MSR (one local message) *)
  t.ctrl <- t.ctrl + 1;
  Hashtbl.replace to_msr.visitors mobile ();
  Hashtbl.replace to_msr.cache mobile to_msr.m_addr;
  Node.update_routes to_msr.m_node (fun r ->
      Net.Route.add_host r mobile (Net.Route.Direct to_msr.m_iface));
  match Node.ifaces mobile_node with
  | (i, l, _) :: _ ->
    Node.set_routes mobile_node
      (Net.Route.add_default
         (Net.Route.add Net.Route.empty (Net.Lan.prefix l)
            (Net.Route.Direct i))
         (Net.Route.Via to_msr.m_addr))
  | [] -> ()

let send t ~src pkt =
  ignore t;
  Node.send src pkt

let control_messages t = t.ctrl

let msr_cache_bytes t =
  List.fold_left
    (fun acc msr -> acc + (8 * Hashtbl.length msr.cache))
    0 t.msrs
