module Packet = Ipv4.Packet
module Addr = Ipv4.Addr
module Node = Net.Node

type host = {
  h_node : Node.t;
  vip : Addr.t;
  mutable phys : Addr.t;
  h_cache : (Addr.t, Addr.t) Hashtbl.t;  (* peer vip -> phys *)
  mutable h_receive : Packet.t -> unit;
  h_last : (Addr.t, Packet.t) Hashtbl.t;  (* vip -> last packet, for retry *)
}

type router = {
  amt : (Addr.t, Addr.t * int) Hashtbl.t;
  (* vip -> (phys, timestamp): snooped bindings are guarded by the VIP
     header's timestamp so an old packet still in flight cannot regress a
     newer mapping — the VIP design's version field *)
}

type t = {
  topo : Net.Topology.t;
  flood_reliability : float;
  rng : Netsim.Rng.t;
  mutable routers : router list;
  hosts : (Addr.t, host) Hashtbl.t;  (* by vip *)
  authoritative : (Addr.t, Addr.t) Hashtbl.t;  (* vip -> phys, at home *)
  home_router : (Addr.t, Node.t) Hashtbl.t;  (* vip -> home router node *)
  mutable ctrl : int;
  mutable timestamp : int;
}

let create ?(flood_reliability = 1.0) topo =
  if flood_reliability < 0.0 || flood_reliability > 1.0 then
    invalid_arg "Sony_vip.create: flood_reliability";
  { topo; flood_reliability;
    rng = Netsim.Rng.split (Net.Topology.rng topo);
    routers = []; hosts = Hashtbl.create 16;
    authoritative = Hashtbl.create 16; home_router = Hashtbl.create 16;
    ctrl = 0; timestamp = 0 }

let learn tbl ~vip ~phys ~stamp =
  let newer =
    match Hashtbl.find_opt tbl vip with
    | Some (_, old_stamp) -> stamp >= old_stamp
    | None -> true
  in
  if newer then
    if not (Addr.equal vip phys) then Hashtbl.replace tbl vip (phys, stamp)
    else Hashtbl.remove tbl vip

let add_router t node =
  let r = { amt = Hashtbl.create 32 } in
  t.routers <- t.routers @ [r];
  (* the home router answers ARP for its hosts' VIPs while they hold a
     different physical address, and claims those packets for rewrite *)
  let away vip =
    (match Hashtbl.find_opt t.home_router vip with
     | Some home -> home == node
     | None -> false)
    && (match Hashtbl.find_opt t.authoritative vip with
        | Some phys -> not (Addr.equal phys vip)
        | None -> false)
  in
  Node.set_arp_proxy node away;
  Node.set_accept_ip node (fun _ dst -> away dst);
  Node.set_proto_handler node Ipv4.Proto.vip (fun _ v ->
      let pkt = Packet.View.decode v in
      match Viph.peek pkt with
      | None -> ()
      | Some h when away h.Viph.vip_dst ->
        let phys =
          Option.value ~default:h.Viph.vip_dst
            (Hashtbl.find_opt t.authoritative h.Viph.vip_dst)
        in
        Node.forward_now node { pkt with Packet.dst = phys }
      | Some _ -> ());
  Node.set_rewrite_forward node (fun _ v ->
      (* only VIP packets carry a header worth decoding *)
      if Packet.View.proto v <> Ipv4.Proto.vip then Node.Forward
      else
        let pkt = Packet.View.decode v in
        match Viph.peek pkt with
        | None -> Node.Forward
        | Some h ->
          (* snoop source mapping from packets in transit *)
          learn r.amt ~vip:h.Viph.vip_src ~phys:pkt.Packet.src
            ~stamp:h.Viph.timestamp;
          (* authoritative rewrite at the destination's home router *)
          (match Hashtbl.find_opt t.home_router h.Viph.vip_dst with
           | Some home when home == node ->
             let phys =
               Option.value ~default:h.Viph.vip_dst
                 (Hashtbl.find_opt t.authoritative h.Viph.vip_dst)
             in
             if Addr.equal pkt.Packet.dst phys then Node.Forward
             else Node.Replace (Packet.encode { pkt with Packet.dst = phys })
           | _ ->
             (* unresolved packet: rewrite from our own cache if we can *)
             if Addr.equal pkt.Packet.dst h.Viph.vip_dst then
               match Hashtbl.find_opt r.amt h.Viph.vip_dst with
               | Some (phys, _) when not (Addr.equal phys pkt.Packet.dst) ->
                 Node.Replace (Packet.encode { pkt with Packet.dst = phys })
               | _ -> Node.Forward
             else Node.Forward))

let wrap t host (pkt : Packet.t) =
  let vip_dst = pkt.Packet.dst in
  let phys_dst =
    Option.value ~default:vip_dst (Hashtbl.find_opt host.h_cache vip_dst)
  in
  t.timestamp <- t.timestamp + 1;
  let header =
    { Viph.vip_src = host.vip; vip_dst; hop_count = 0;
      timestamp = t.timestamp }
  in
  Viph.add header
    { pkt with Packet.src = host.phys; dst = phys_dst }

let send t ~src pkt =
  match Hashtbl.find_opt t.hosts (Node.primary_addr src) with
  | None -> Node.send src pkt (* not a VIP host: plain IP *)
  | Some host ->
    Hashtbl.replace host.h_last pkt.Packet.dst pkt;
    Node.send src (wrap t host pkt)

let setup_host t host =
  Node.set_proto_handler host.h_node Ipv4.Proto.vip (fun _ v ->
      let pkt = Packet.View.decode v in
      match Viph.strip pkt with
      | None -> ()
      | Some (h, inner) ->
        if Addr.equal h.Viph.vip_dst host.vip then begin
          (if not (Addr.equal h.Viph.vip_src pkt.Packet.src) then
             Hashtbl.replace host.h_cache h.Viph.vip_src pkt.Packet.src
           else Hashtbl.remove host.h_cache h.Viph.vip_src);
          host.h_receive
            { inner with
              Packet.src = h.Viph.vip_src;
              dst = h.Viph.vip_dst }
        end
        (* else: misdelivered to a reused physical address — a real VIP
           host discards and signals an error; with our address plan
           physical addresses are never reused, so this cannot arise *));
  Node.set_proto_handler host.h_node Ipv4.Proto.icmp (fun _ v ->
      let pkt = Packet.View.decode v in
      (* Stale mapping sent our packet into a void: fall back to routing
         by VIP (via the home network) and retransmit once. *)
      match Ipv4.Icmp.decode_opt pkt.Packet.payload with
      | Some (Ipv4.Icmp.Dest_unreachable { original; _ }) ->
        (match Packet.decode_prefix original with
         | Some (qpkt, _) ->
           (match Viph.peek qpkt with
            | Some h when Addr.equal h.Viph.vip_src host.vip ->
              Hashtbl.remove host.h_cache h.Viph.vip_dst;
              (match Hashtbl.find_opt host.h_last h.Viph.vip_dst with
               | Some p ->
                 Hashtbl.remove host.h_last h.Viph.vip_dst;
                 Node.send host.h_node (wrap t host p)
               | None -> ())
            | _ -> ())
         | None -> ())
      | _ -> ())

let make_host t node ~home_router =
  let vip = Node.primary_addr node in
  Node.add_address node vip;
  let host =
    { h_node = node; vip; phys = vip; h_cache = Hashtbl.create 8;
      h_receive = (fun _ -> ()); h_last = Hashtbl.create 8 }
  in
  Hashtbl.replace t.hosts vip host;
  Hashtbl.replace t.home_router vip home_router;
  Hashtbl.replace t.authoritative vip vip;
  setup_host t host

let on_receive t node f =
  match Hashtbl.find_opt t.hosts (Node.primary_addr node) with
  | Some host -> host.h_receive <- f
  | None -> invalid_arg "Sony_vip.on_receive: not a VIP host"

let flood_invalidate t vip =
  (* One message per router; each is reached with [flood_reliability] —
     survivors keep a stale mapping (the paper's critique). *)
  List.iter
    (fun r ->
       t.ctrl <- t.ctrl + 1;
       if Netsim.Rng.float t.rng 1.0 < t.flood_reliability then
         Hashtbl.remove r.amt vip)
    t.routers

let move t node ~lan ~via_router ~temp =
  let vip = Node.primary_addr node in
  match Hashtbl.find_opt t.hosts vip with
  | None -> invalid_arg "Sony_vip.move: not a VIP host"
  | Some host ->
    if not (Ipv4.Addr.Prefix.mem temp (Net.Lan.prefix lan))
       && not (Addr.equal temp vip)
    then invalid_arg "Sony_vip.move: temp address not in LAN prefix";
    if not (Addr.equal host.phys host.vip) then
      Node.remove_address node host.phys;
    Net.Topology.move_host t.topo node lan;
    host.phys <- temp;
    if not (Addr.equal temp vip) then Node.add_address node temp;
    (* route via the local router *)
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
    (* register with the home router (one unicast) and flood *)
    t.ctrl <- t.ctrl + 1;
    Hashtbl.replace t.authoritative vip temp;
    flood_invalidate t vip

let control_messages t = t.ctrl

let router_cache_bytes t =
  (* two addresses plus a timestamp per entry *)
  List.fold_left (fun acc r -> acc + (12 * Hashtbl.length r.amt)) 0
    t.routers

let stale_entries t =
  List.fold_left
    (fun acc r ->
       Hashtbl.fold
         (fun vip (phys, _) acc ->
            match Hashtbl.find_opt t.authoritative vip with
            | Some auth when not (Addr.equal auth phys) -> acc + 1
            | _ -> acc)
         r.amt acc)
    0 t.routers
