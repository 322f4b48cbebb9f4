module Packet = Ipv4.Packet
module Addr = Ipv4.Addr
module Node = Net.Node

let lsrr_overhead = 8

type base = {
  b_node : Node.t;
  b_iface : int;
  b_addr : Addr.t;
}

type mobile = {
  mo_home_base : base;
  mutable mo_base : base;  (* current *)
}

type peer_state = {
  reversed : (Addr.t, Addr.t) Hashtbl.t;  (* peer -> base to route via *)
  p_last : (Addr.t, Packet.t) Hashtbl.t;
  mutable p_receive : Packet.t -> unit;
}

type t = {
  topo : Net.Topology.t;
  mobiles : (Addr.t, mobile) Hashtbl.t;
  current_base : (Addr.t, Addr.t) Hashtbl.t;
      (* mobile -> current base address, known to the home base *)
  peers : (string, peer_state) Hashtbl.t;
  mutable ctrl : int;
}

let create topo =
  { topo; mobiles = Hashtbl.create 16; current_base = Hashtbl.create 16;
    peers = Hashtbl.create 16; ctrl = 0 }

let add_base t node ~lan =
  match Node.iface_to node (Net.Lan.prefix lan) with
  | None -> invalid_arg "Ibm_lsrr.add_base: node not on LAN"
  | Some i ->
    let addr =
      match Node.iface_addr node i with
      | Some a -> a
      | None -> invalid_arg "Ibm_lsrr.add_base: no address"
    in
    let b = { b_node = node; b_iface = i; b_addr = addr } in
    (* The home base re-source-routes intercepted packets toward the
       mobile host's current base station. *)
    let claims dst =
      match Hashtbl.find_opt t.mobiles dst with
      | Some m -> m.mo_home_base.b_node == node
      | None -> false
    in
    Node.set_accept_ip node (fun _ dst -> claims dst);
    (* answer ARP on the home LAN for mobiles that have moved away *)
    Node.set_arp_proxy node (fun dst ->
        claims dst
        && (match Hashtbl.find_opt t.current_base dst with
            | Some cur -> not (Addr.equal cur b.b_addr)
            | None -> false));
    Node.set_rewrite_forward node (fun _ v ->
        let dst = Packet.View.dst v in
        match Hashtbl.find_opt t.mobiles dst with
        | Some m
          when m.mo_home_base.b_node == node
            && not (Packet.View.has_options v) ->
          (match Hashtbl.find_opt t.current_base dst with
           | Some cur when not (Addr.equal cur b.b_addr) ->
             Node.Replace
               (Packet.encode
                  { (Packet.View.decode v) with
                    Packet.dst = cur;
                    options = [Ipv4.Ip_option.lsrr [dst]] })
           | _ -> Node.Forward)
        | _ -> Node.Forward);
    (* Same path for packets claimed off the local LAN. *)
    Node.set_proto_handler node Ipv4.Proto.udp (fun _ v ->
        let pkt = Packet.View.decode v in
        if not (Node.has_address node pkt.Packet.dst) then
          match Hashtbl.find_opt t.current_base pkt.Packet.dst with
          | Some cur ->
            Node.forward_now node
              { pkt with
                Packet.dst = cur;
                options = [Ipv4.Ip_option.lsrr [pkt.Packet.dst]] }
          | None -> ());
    b

let make_mobile t node ~home_base =
  Node.add_address node (Node.primary_addr node);
  Hashtbl.replace t.mobiles (Node.primary_addr node)
    { mo_home_base = home_base; mo_base = home_base };
  Hashtbl.replace t.current_base (Node.primary_addr node)
    home_base.b_addr

let move t node ~base =
  let mobile = Node.primary_addr node in
  match Hashtbl.find_opt t.mobiles mobile with
  | None -> invalid_arg "Ibm_lsrr.move: not a mobile host"
  | Some m ->
    (* The old base keeps its (now dangling) host route: packets sent down
       stale reversed routes die there with host-unreachable, which is the
       staleness behaviour the paper describes. *)
    m.mo_base <- base;
    Net.Topology.move_host t.topo node
      (Node.iface_lan base.b_node base.b_iface);
    Node.update_routes base.b_node (fun r ->
        Net.Route.add_host r mobile (Net.Route.Direct base.b_iface));
    (match Node.ifaces node with
     | (i, l, _) :: _ ->
       Node.set_routes node
         (Net.Route.add_default
            (Net.Route.add Net.Route.empty (Net.Lan.prefix l)
               (Net.Route.Direct i))
            (Net.Route.Via base.b_addr))
     | [] -> ());
    (* Registration travels to the home base station. *)
    t.ctrl <- t.ctrl + 1;
    Hashtbl.replace t.current_base mobile base.b_addr

let lsrr_final_dst (pkt : Packet.t) =
  List.find_map
    (fun o ->
       match o with
       | Ipv4.Ip_option.Lsrr { route; _ } when Array.length route > 0 ->
         Some route.(Array.length route - 1)
       | _ -> None)
    pkt.Packet.options

let peer_state t node =
  match Hashtbl.find_opt t.peers (Node.name node) with
  | Some st -> st
  | None ->
    let st =
      { reversed = Hashtbl.create 8; p_last = Hashtbl.create 8;
        p_receive = (fun _ -> ()) }
    in
    Hashtbl.replace t.peers (Node.name node) st;
    let learn_and_deliver _ v =
      let pkt = Packet.View.decode v in
      (* An exhausted LSRR's recorded route names the base station the
         packet came through: save the reversal for replies. *)
      (match pkt.Packet.options with
       | [Ipv4.Ip_option.Lsrr { route; _ }] when Array.length route > 0 ->
         Hashtbl.replace st.reversed pkt.Packet.src
           route.(Array.length route - 1)
       | _ -> ());
      st.p_receive { pkt with Packet.options = [] }
    in
    Node.set_proto_handler node Ipv4.Proto.udp learn_and_deliver;
    Node.set_proto_handler node Ipv4.Proto.tcp learn_and_deliver;
    Node.set_proto_handler node Ipv4.Proto.icmp (fun _ v ->
        let pkt = Packet.View.decode v in
        match Ipv4.Icmp.decode_opt pkt.Packet.payload with
        | Some (Ipv4.Icmp.Dest_unreachable { original; _ }) ->
          (match Packet.decode_prefix original with
           | Some (qpkt, _) ->
             (* after the base advanced the LSRR the mobile host is the IP
                destination; before that it is the final route entry *)
             let final =
               if Hashtbl.mem t.mobiles qpkt.Packet.dst then
                 Some qpkt.Packet.dst
               else lsrr_final_dst qpkt
             in
             (match final with
              | Some final when Hashtbl.mem t.mobiles final ->
                (* stale reversed route: forget it, retransmit via the
                   home base station *)
                Hashtbl.remove st.reversed final;
                (match Hashtbl.find_opt st.p_last final with
                 | Some p ->
                   Hashtbl.remove st.p_last final;
                   Node.send node p
                 | None -> ())
              | _ -> ())
           | None -> ())
        | _ -> ());
    st

let on_receive t node f =
  let st = peer_state t node in
  st.p_receive <- f

let send t ~src (pkt : Packet.t) =
  let dst = pkt.Packet.dst in
  match Hashtbl.find_opt t.mobiles (Node.primary_addr src) with
  | Some m ->
    (* From a mobile host: out through the current base station so the
       recorded route lets the correspondent reply. *)
    Node.send src
      { pkt with
        Packet.dst = m.mo_base.b_addr;
        options = [Ipv4.Ip_option.lsrr [dst]] }
  | None ->
    let st = peer_state t src in
    if Hashtbl.mem t.mobiles dst then begin
      Hashtbl.replace st.p_last dst pkt;
      match Hashtbl.find_opt st.reversed dst with
      | Some base_addr ->
        Node.send src
          { pkt with
            Packet.dst = base_addr;
            options = [Ipv4.Ip_option.lsrr [dst]] }
      | None -> Node.send src pkt (* via the home network / home base *)
    end
    else Node.send src pkt

let control_messages t = t.ctrl
