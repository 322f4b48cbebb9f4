module Packet = Ipv4.Packet
module Addr = Ipv4.Addr
module Node = Net.Node

let port = 435

(* Registry messages: tag(1) mobile(4) forwarder(4). *)
type msg =
  | Register of { mobile : Addr.t; fwd : Addr.t }
  | Query of { mobile : Addr.t }
  | Answer of { mobile : Addr.t; fwd : Addr.t }

let encode_msg m =
  let buf = Bytes.make 9 '\000' in
  (match m with
   | Register { mobile; fwd } ->
     Bytes.set buf 0 '\001';
     Addr.set buf 1 mobile;
     Addr.set buf 5 fwd
   | Query { mobile } ->
     Bytes.set buf 0 '\002';
     Addr.set buf 1 mobile
   | Answer { mobile; fwd } ->
     Bytes.set buf 0 '\003';
     Addr.set buf 1 mobile;
     Addr.set buf 5 fwd);
  buf

let decode_msg buf =
  if Bytes.length buf < 9 then None
  else
    match Bytes.get buf 0 with
    | '\001' ->
      Some (Register { mobile = Addr.get buf 1; fwd = Addr.get buf 5 })
    | '\002' -> Some (Query { mobile = Addr.get buf 1 })
    | '\003' -> Some (Answer { mobile = Addr.get buf 1; fwd = Addr.get buf 5 })
    | _ -> None

type forwarder = {
  f_node : Node.t;
  f_iface : int;
  f_addr : Addr.t;
}

type sender_state = {
  s_cache : (Addr.t, Addr.t) Hashtbl.t;  (* mobile -> forwarder *)
  s_pending : (Addr.t, Packet.t list) Hashtbl.t;
  s_last : (Addr.t, Packet.t * int) Hashtbl.t;  (* for retransmission *)
}

type t = {
  topo : Net.Topology.t;
  db_node : Node.t;
  db : (Addr.t, Addr.t) Hashtbl.t;
  mobiles : (Addr.t, unit) Hashtbl.t;
  senders : (string, sender_state) Hashtbl.t;
  mutable forwarders : forwarder list;
  mutable ctrl : int;
  mutable lookups : int;
}

let max_retransmits = 3

let create topo ~db_node =
  let t =
    { topo; db_node; db = Hashtbl.create 64; mobiles = Hashtbl.create 16;
      senders = Hashtbl.create 16; forwarders = []; ctrl = 0; lookups = 0 }
  in
  Node.set_proto_handler db_node Ipv4.Proto.udp (fun node v ->
      let pkt = Packet.View.decode v in
      match Ipv4.Udp.decode pkt.Packet.payload with
      | exception Invalid_argument _ -> ()
      | udp ->
        if udp.Ipv4.Udp.dst_port = port then
          match decode_msg udp.Ipv4.Udp.data with
          | Some (Register { mobile; fwd }) ->
            Hashtbl.replace t.db mobile fwd
          | Some (Query { mobile }) ->
            t.lookups <- t.lookups + 1;
            let fwd =
              Option.value ~default:Addr.zero
                (Hashtbl.find_opt t.db mobile)
            in
            t.ctrl <- t.ctrl + 1;
            let reply =
              Ipv4.Udp.make ~src_port:port ~dst_port:port
                (encode_msg (Answer { mobile; fwd }))
            in
            Node.send node
              (Packet.make ~proto:Ipv4.Proto.udp
                 ~src:(Node.primary_addr node) ~dst:pkt.Packet.src
                 (Ipv4.Udp.encode reply))
          | Some (Answer _) | None -> ());
  t

let add_forwarder t node ~lan =
  match Node.iface_to node (Net.Lan.prefix lan) with
  | None -> invalid_arg "Sunshine_postel.add_forwarder: not on LAN"
  | Some i ->
    let addr =
      match Node.iface_addr node i with
      | Some a -> a
      | None -> invalid_arg "Sunshine_postel.add_forwarder: no address"
    in
    let f = { f_node = node; f_iface = i; f_addr = addr } in
    t.forwarders <- t.forwarders @ [f];
    f

let sender_state t node =
  match Hashtbl.find_opt t.senders (Node.name node) with
  | Some st -> st
  | None ->
    let st =
      { s_cache = Hashtbl.create 8; s_pending = Hashtbl.create 8;
        s_last = Hashtbl.create 8 }
    in
    Hashtbl.replace t.senders (Node.name node) st;
    st

let lsrr_final_dst (pkt : Packet.t) =
  List.find_map
    (fun o ->
       match o with
       | Ipv4.Ip_option.Lsrr { route; _ } when Array.length route > 0 ->
         Some route.(Array.length route - 1)
       | _ -> None)
    pkt.Packet.options

let send_via t ~src st fwd (pkt : Packet.t) =
  ignore t;
  Hashtbl.replace st.s_last pkt.Packet.dst (pkt, 0);
  let routed =
    { pkt with
      Packet.dst = fwd;
      options = [Ipv4.Ip_option.lsrr [pkt.Packet.dst]] }
  in
  Node.send src routed

let query_db t ~src mobile =
  t.ctrl <- t.ctrl + 1;
  let q =
    Ipv4.Udp.make ~src_port:port ~dst_port:port
      (encode_msg (Query { mobile }))
  in
  Node.send src
    (Packet.make ~proto:Ipv4.Proto.udp ~src:(Node.primary_addr src)
       ~dst:(Node.primary_addr t.db_node) (Ipv4.Udp.encode q))

let setup_sender t node =
  let st = sender_state t node in
  Node.set_proto_handler node Ipv4.Proto.udp (fun _ v ->
      let pkt = Packet.View.decode v in
      match Ipv4.Udp.decode pkt.Packet.payload with
      | exception Invalid_argument _ -> ()
      | udp ->
        if udp.Ipv4.Udp.dst_port = port then
          match decode_msg udp.Ipv4.Udp.data with
          | Some (Answer { mobile; fwd }) ->
            if not (Addr.is_zero fwd) then begin
              Hashtbl.replace st.s_cache mobile fwd;
              let queued =
                Option.value ~default:[]
                  (Hashtbl.find_opt st.s_pending mobile)
              in
              Hashtbl.remove st.s_pending mobile;
              List.iter (fun p -> send_via t ~src:node st fwd p)
                (List.rev queued)
            end
            else Hashtbl.remove st.s_pending mobile
          | Some _ | None -> ());
  Node.set_proto_handler node Ipv4.Proto.icmp (fun _ v ->
      let pkt = Packet.View.decode v in
      match Ipv4.Icmp.decode_opt pkt.Packet.payload with
      | Some (Ipv4.Icmp.Dest_unreachable { original; _ }) ->
        (match Packet.decode_prefix original with
         | Some (qpkt, _) ->
           (* The failed packet was source-routed through a stale
              forwarder: invalidate, re-query, retransmit.  After the
              forwarder advanced the LSRR the mobile host is the IP
              destination; before that it is the final route entry. *)
           let mobile_of =
             if Hashtbl.mem t.mobiles qpkt.Packet.dst then
               Some qpkt.Packet.dst
             else lsrr_final_dst qpkt
           in
           (match mobile_of with
            | Some mobile when Hashtbl.mem t.mobiles mobile ->
              Hashtbl.remove st.s_cache mobile;
              (match Hashtbl.find_opt st.s_last mobile with
               | Some (p, tries) when tries < max_retransmits ->
                 Hashtbl.replace st.s_last mobile (p, tries + 1);
                 Hashtbl.replace st.s_pending mobile
                   (p
                    :: Option.value ~default:[]
                         (Hashtbl.find_opt st.s_pending mobile));
                 query_db t ~src:node mobile
               | _ -> ())
            | _ -> ())
         | None -> ())
      | _ -> ())

let make_mobile t node =
  Node.add_address node (Node.primary_addr node);
  Hashtbl.replace t.mobiles (Node.primary_addr node) ()

let move t mobile_node ~forwarder:fwd lan =
  let mobile = Node.primary_addr mobile_node in
  (* The old forwarder drops its delivery route: packets sent down a stale
     forwarder pointer then die (ARP failure on the home or old network)
     with ICMP host unreachable — IEN 135's signal that the sender must
     consult the database again. *)
  List.iter
    (fun old ->
       if old.f_node != fwd.f_node then
         Node.update_routes old.f_node (fun r ->
             Net.Route.remove_host r mobile))
    t.forwarders;
  Net.Topology.move_host t.topo mobile_node lan;
  (* Connect notification to the forwarder (modelled locally, counted as a
     control message) installs a host route delivering locally. *)
  t.ctrl <- t.ctrl + 1;
  Node.update_routes fwd.f_node (fun r ->
      Net.Route.add_host r mobile (Net.Route.Direct fwd.f_iface));
  (match Node.ifaces mobile_node with
   | (i, l, _) :: _ ->
     Node.set_routes mobile_node
       (Net.Route.add_default
          (Net.Route.add Net.Route.empty (Net.Lan.prefix l)
             (Net.Route.Direct i))
          (Net.Route.Via fwd.f_addr))
   | [] -> ());
  (* Register the new forwarder in the global database. *)
  t.ctrl <- t.ctrl + 1;
  let reg =
    Ipv4.Udp.make ~src_port:port ~dst_port:port
      (encode_msg (Register { mobile; fwd = fwd.f_addr }))
  in
  Node.send mobile_node
    (Packet.make ~proto:Ipv4.Proto.udp ~src:mobile
       ~dst:(Node.primary_addr t.db_node) (Ipv4.Udp.encode reg))

let send t ~src (pkt : Packet.t) =
  if not (Hashtbl.mem t.mobiles pkt.Packet.dst) then Node.send src pkt
  else begin
    if not (Hashtbl.mem t.senders (Node.name src)) then setup_sender t src;
    let st = sender_state t src in
    match Hashtbl.find_opt st.s_cache pkt.Packet.dst with
    | Some fwd -> send_via t ~src st fwd pkt
    | None ->
      let queued =
        Option.value ~default:[] (Hashtbl.find_opt st.s_pending pkt.Packet.dst)
      in
      Hashtbl.replace st.s_pending pkt.Packet.dst (pkt :: queued);
      if queued = [] then query_db t ~src pkt.Packet.dst
  end

let control_messages t = t.ctrl
let db_lookups t = t.lookups
let db_state_bytes t = 8 * Hashtbl.length t.db
