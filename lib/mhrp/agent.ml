(* Construction and the receive side; each role's handlers live in its
   own module (agent.mli has the map). *)

include Agent_core
include Regional_role
include Home_role
include Foreign_role
include Mobile_role

let home_agent t = Option.map (fun ha -> ha.db) t.ha
let foreign_agent t = Option.map (fun fa -> fa.visitors) t.fa
let mobile t = t.mh
let regional_agent t = Option.map (fun r -> r.bindings) t.regional

let on_app_receive t f = t.app_tap <- (fun v -> f (View.decode v))
let on_app_receive_view t f = t.app_tap <- f
let on_location_update t f = t.update_tap <- f
let on_registered t f = t.registered_tap <- f
let on_icmp_error t f = t.icmp_error_tap <- f

(* Every MHRP packet delivered to this node — addressed here, or claimed
   for a mobile host — is a tunnel exit or a re-tunnel, dispatched on
   the received view and its header decoded in place. *)
let handle_mhrp t v =
  match Encap.header_at v with
  | None -> if tracing t then tracef t "drop" "malformed mhrp packet"
  | Some header ->
    let mobile = header.Mhrp_header.mobile in
    match t.fa with
    | Some fa when Foreign_agent.mem fa.visitors mobile ->
      deliver_to_visitor t fa v header
    | _ when Node.has_address t.node (View.src v) ->
      handle_self_tunnel t v header
    | _ ->
      if Node.has_address t.node mobile then
        mh_handle_tunneled_to_self t v header
      else
        match t.ha with
        | Some ha when Home_agent.serves ha.db mobile ->
          let location_is_self =
            match Home_agent.location ha.db mobile with
            | Some loc ->
              (not (Addr.is_zero loc)) && Node.has_address t.node loc
            | None -> false
          in
          if location_is_self then
            (* the mobile is visiting its own home region and we are
               both its home and regional agent: serve the regional
               role — the home-agent path would bounce the packet at
               ourselves as a loop *)
            (if not (regional_dispatch t v header) then
               ha_handle_tunneled t ha v header)
          else ha_handle_tunneled t ha v header
        | _ ->
          if not (regional_dispatch t v header) then begin
            (match t.fa with
             | Some fa -> fa_probe_missing_visitor t fa ~mobile
             | None -> ());
            retunnel_stale t v header
          end

(* --- Section 4.5: returned ICMP errors --- *)

let is_unreachable = function
  | Ipv4.Icmp.Dest_unreachable _ -> true
  | _ -> false

let resend_error t msg ~dst ~quoted =
  t.counters.Counters.icmp_errors_reversed <-
    t.counters.Counters.icmp_errors_reversed + 1;
  let encoded = Packet.encode quoted in
  let n = min (Bytes.length encoded) (Packet.header_length quoted + 8 + 64)
  in
  (* Quote generously (header + transport prefix) so the next reversal
     still has the whole MHRP header available. *)
  let original = Bytes.sub encoded 0 n in
  let msg' =
    match msg with
    | Ipv4.Icmp.Dest_unreachable { code; _ } ->
      Ipv4.Icmp.Dest_unreachable { code; original }
    | Ipv4.Icmp.Time_exceeded { code; _ } ->
      Ipv4.Icmp.Time_exceeded { code; original }
    | Ipv4.Icmp.Redirect { gateway; _ } ->
      Ipv4.Icmp.Redirect { gateway; original }
    | other -> other
  in
  if tracing t then tracef t "icmp-reverse" "to %a" Addr.pp dst;
  Node.send_wire t.node (icmp_wire ~id:0 ~src:(address t) ~dst msg' None None)

let handle_icmp_error t (msg : Ipv4.Icmp.t) quoted_bytes =
  match Packet.decode_prefix quoted_bytes with
  | None -> t.icmp_error_tap msg None
  | Some (qpkt, _) ->
    if Encap.is_tunneled qpkt && Node.has_address t.node qpkt.Packet.src
    then begin
      (* We are the head of the most recent tunnel this packet was in. *)
      match Mhrp_header.decode_prefix qpkt.Packet.payload with
      | None -> t.icmp_error_tap msg None
      | Some (header, hlen) ->
        let mobile = header.Mhrp_header.mobile in
        if is_unreachable msg then begin
          (* The path to our cached location failed — not necessarily the
             mobile host itself (Section 4.5): drop the entry. *)
          Location_cache.delete t.cache mobile;
          if tracing t then
            tracef t "cache" "dropped %a after unreachable" Addr.pp mobile
        end;
        let payload = qpkt.Packet.payload in
        if Bytes.length payload < hlen + 8 then
          (* Not enough of the original quoted: nothing more can be done
             beyond the cache deletion (Section 4.5). *)
          t.icmp_error_tap msg None
        else begin
          let transport =
            Bytes.sub payload hlen (Bytes.length payload - hlen)
          in
          match header.Mhrp_header.prev_sources with
          | [] ->
            (* We built the header as the original sender: reverse to the
               pre-tunnel packet and treat the error as ours. *)
            let original =
              { qpkt with
                Packet.proto = header.Mhrp_header.orig_proto;
                dst = mobile;
                payload = transport }
            in
            t.counters.Counters.icmp_errors_reversed <-
              t.counters.Counters.icmp_errors_reversed + 1;
            t.icmp_error_tap msg (Some original)
          | [sender] ->
            (* We did the initial (agent-built) encapsulation: restore the
               original packet and return the error to the sender. *)
            let original =
              { qpkt with
                Packet.proto = header.Mhrp_header.orig_proto;
                src = sender;
                dst = mobile;
                payload = transport }
            in
            resend_error t msg ~dst:sender ~quoted:original
          | _ :: _ :: _ ->
            (* We re-tunneled it: reverse one step of the tunnel chain. *)
            match Mhrp_header.drop_last_source header with
            | None -> ()
            | Some (header', prev_head) ->
              let quoted =
                { qpkt with
                  Packet.src = prev_head;
                  dst = address t;
                  payload = Mhrp_header.encode header' transport }
              in
              resend_error t msg ~dst:prev_head ~quoted
        end
    end
    else t.icmp_error_tap msg (Some qpkt)

(* A control message in the [len] bytes at [off] of a received packet's
   buffer: the UDP data of a datagram to [Control.port].  Each message
   goes to the role it is for, and is ignored by a node without it. *)
let handle_control t v ~off ~len =
  let buf = View.buffer v in
  let src = View.src v in
  match Control.decode_at buf ~off ~len with
  | None -> ()
  | Some msg
    when t.config.Config.authenticate
         && not
              (authorize t ~mobile:(Control.mobile msg) ~src
                 ~wire:(Bytes.sub buf off len) ~canonical:(Control.encode msg)
                 ~kind:"auth-fail") -> ()
  | Some msg ->
    if tracing t then tracef t "ctrl-rx" "%a" Control.pp msg;
    match msg, t.ha, t.fa, t.regional, t.mh with
    | Control.Reg_request { mobile; foreign_agent }, Some ha, _, _, _ ->
      ha_handle_registration t ha ~mobile ~foreign_agent
    | Control.Ha_sync { mobile; foreign_agent }, Some ha, _, _, _ ->
      ha_handle_sync t ha ~src ~mobile ~foreign_agent
    | Control.Ha_sync_ack { mobile }, Some ha, _, _, _ ->
      ha_handle_sync_ack ha ~src ~mobile
    | Control.Fa_connect { mobile; mac }, _, Some fa, _, _ ->
      fa_handle_connect t fa ~mobile ~mac
    | Control.Fa_disconnect { mobile; new_foreign_agent }, _, Some fa, _, _ ->
      fa_handle_disconnect t fa ~mobile ~new_foreign_agent
    | Control.Reg_region { mobile; foreign_agent; lifetime_s }, _, _, Some r, _
      ->
      regional_handle_registration t r ~mobile ~foreign_agent ~lifetime_s
    | Control.Region_sync { mobile; foreign_agent; lifetime_s }, _, _, Some r, _
      ->
      regional_handle_sync t r ~src ~mobile ~foreign_agent ~lifetime_s
    | Control.Region_sync_ack { mobile }, _, _, Some r, _ ->
      regional_handle_sync_ack t r ~src ~mobile
    | Control.Fa_visitor_miss { mobile; foreign_agent }, _, _, Some r, _ ->
      regional_handle_visitor_miss t r ~mobile ~foreign_agent
    | Control.Region_forward { mobile; new_regional }, _, _, Some r, _ ->
      regional_handle_forward t r ~mobile ~new_regional
    | ( ( Control.Reg_reply _ | Control.Fa_connect_ack _
        | Control.Fa_connect_ack_r _ | Control.Reg_region_ack _ ),
        _, _, _, Some mh )
      when Addr.equal (Control.mobile msg) mh.Mobile_host.home ->
      mh_handle_control t mh msg
    | _ -> ()

(* --- ICMP handling --- *)

(* Only a mobile host heeds an advertisement ([mh_handle_advert]), so
   everyone else skips it on its type byte: a solicitation draws
   advertisements to every station on the LAN.  The rest is decoded
   from the received bytes, and a record is built only for an echo
   reply handed to [app_tap]. *)
let handle_icmp t v =
  let buf = View.buffer v in
  let off = View.payload_offset v in
  let len = View.payload_length v in
  match t.mh with
  | None when len > 0
           && Bytes.get_uint8 buf off = Ipv4.Icmp.agent_advertisement_type ->
    ()
  | _ ->
    match Ipv4.Icmp.decode_at buf ~off ~len with
    | None -> () (* unknown type: silently discard (RFC 1122) *)
    | Some msg ->
      match msg with
      | Ipv4.Icmp.Location_update { mobile; foreign_agent } ->
        t.counters.Counters.updates_received <-
          t.counters.Counters.updates_received + 1;
        if
          update_authentic t buf ~off ~len ~src:(View.src v) ~mobile
            ~foreign_agent
        then begin
          if tracing t then
            tracef t "loc-update-rx" "%a at %a" Addr.pp mobile Addr.pp
              foreign_agent;
          cache_update t ~mobile ~foreign_agent;
          (match t.fa with
           | Some fa -> fa_recovery_check t fa ~mobile ~foreign_agent
           | None -> ());
          t.update_tap ~mobile ~foreign_agent
        end
      | Ipv4.Icmp.Echo_request { ident; seq; data } ->
        send_icmp t ~id:(View.id v) ~dst:(View.src v)
          (Ipv4.Icmp.Echo_reply { ident; seq; data })
      | Ipv4.Icmp.Echo_reply _ -> t.app_tap v
      | Ipv4.Icmp.Dest_unreachable { original; _ }
      | Ipv4.Icmp.Time_exceeded { original; _ }
      | Ipv4.Icmp.Redirect { original; _ } ->
        handle_icmp_error t msg original
      | Ipv4.Icmp.Agent_advertisement { agent; home; foreign } -> (
          match t.mh with
          | Some mh -> mh_handle_advert t mh ~agent ~home ~foreign
          | None -> ())
      | Ipv4.Icmp.Agent_solicitation ->
        if t.ha <> None || t.fa <> None then broadcast_advert t

(* --- local-delivery dispatch --- *)

(* Packets can be delivered to this node either because they are addressed
   to it or because a hook intercepted them for a mobile host; route the
   latter to home-agent processing whatever their protocol. *)
let dispatch t handler v =
  let dst = View.dst v in
  if Node.has_address t.node dst || Addr.equal dst Addr.broadcast then
    handler t v
  else
    match t.ha with
    | Some ha when Home_agent.is_away ha.db dst -> ha_intercept t ha v
    | _ -> handler t v

(* Length and checksum are checked once, in place; only a datagram for
   the application is decoded. *)
let handle_udp t v =
  let buf = View.buffer v in
  let off = View.payload_offset v in
  let n = Ipv4.Udp.length_at buf ~off ~len:(View.payload_length v) in
  if n >= 0 then
    if Ipv4.Udp.dst_port_at buf ~off = Control.port then
      handle_control t v ~off:(off + Ipv4.Udp.header_length)
        ~len:(n - Ipv4.Udp.header_length)
    else t.app_tap v

(* --- forwarding hook (router cache agents, Sections 4.3, 6.2) --- *)

(* An ICMP location update in transit, told from its type byte without
   decoding the packet. *)
let is_location_update v =
  View.proto v = Ipv4.Proto.icmp
  && View.payload_length v > 0
  && Bytes.get_uint8 (View.buffer v) (View.payload_offset v)
     = Ipv4.Icmp.location_update_type

(* Decided from the header, and nothing is decoded: an intercept or a
   cache hit builds its tunnel from the view, a snooped location update
   is read in place, and a miss forwards the received buffer untouched
   (Section 7: routers between tunnel endpoints forward packets
   unmodified). *)
let rewrite_forward t v =
  let dst = View.dst v in
  match t.ha with
  | Some ha when Home_agent.is_away ha.db dst ->
    if View.proto v = Ipv4.Proto.mhrp then handle_mhrp t v
    else ha_intercept t ha v;
    Node.Consume
  | _ when t.snoop ->
    (* Examine forwarded packets: cache location updates in transit and
       tunnel for destinations we have cached (Section 4.3: routers should
       make this a configuration option — it is ours). *)
    (if is_location_update v then
       let buf = View.buffer v in
       let off = View.payload_offset v in
       let len = View.payload_length v in
       match Ipv4.Icmp.decode_at buf ~off ~len with
       | Some (Ipv4.Icmp.Location_update { mobile; foreign_agent }) ->
         if
           update_authentic t buf ~off ~len ~src:(View.src v) ~mobile
             ~foreign_agent
         then cache_update t ~mobile ~foreign_agent
       | Some _ | None -> ());
    if View.proto v <> Ipv4.Proto.mhrp then
      match Location_cache.find t.cache dst with
      | Some fa when not (Node.has_address t.node fa) ->
        t.counters.Counters.tunnels_built <-
          t.counters.Counters.tunnels_built + 1;
        if tracing t then
          tracef t "tunnel" "forwarding cache hit for %a via %a" Addr.pp dst
            Addr.pp fa;
        Node.Replace
          (Encap.tunnel_by_agent_into ~agent:(address t) ~foreign_agent:fa v)
      | Some _ | None -> Node.Forward
    else Node.Forward
  | _ -> Node.Forward

(* --- construction --- *)

let create ?(config = Config.default) ?(snoop = false) node =
  let t =
    { node; config;
      counters = Counters.create ();
      cache = Location_cache.create ~capacity:config.Config.cache_capacity;
      (* 64 recent update destinations, LRU (Section 4.3) *)
      limiter =
        Rate_limiter.create ~capacity:64
          ~min_interval:config.Config.update_min_interval;
      (* at most 2 s of clock skew; nonce tables start at 64 entries *)
      sa = Auth.Sa_table.create ~window:(Time.of_sec 2.0) ~capacity:64;
      auth_nonce = 0; snoop;
      ha = None; fa = None; mh = None; regional = None;
      app_tap = (fun _ -> ());
      update_tap = (fun ~mobile:_ ~foreign_agent:_ -> ());
      registered_tap = (fun _ -> ());
      icmp_error_tap = (fun _ _ -> ());
      advert_timer = false }
  in
  (* every MHRP packet, addressed or intercepted, is a tunnel exit *)
  Node.set_proto_handler node Ipv4.Proto.mhrp (fun _ v -> handle_mhrp t v);
  Node.set_proto_handler node Ipv4.Proto.icmp (fun _ v ->
      dispatch t handle_icmp v);
  Node.set_proto_handler node Ipv4.Proto.udp (fun _ v ->
      dispatch t handle_udp v);
  Node.set_proto_handler node Ipv4.Proto.tcp (fun _ v ->
      dispatch t (fun t v -> t.app_tap v) v);
  Node.set_accept_ip node (fun _ dst -> claims t dst);
  Node.set_arp_proxy node (fun addr -> claims t addr);
  Node.set_rewrite_forward node (fun _ v -> rewrite_forward t v);
  Node.on_reboot node (fun _ ->
      (* visitor lists and regional bindings are soft state *)
      (match t.fa with
       | Some fa ->
         Foreign_agent.clear fa.visitors;
         Hashtbl.reset fa.probes
       | None -> ());
      (match t.ha with Some ha -> Home_agent.reboot ha.db | None -> ());
      Location_cache.clear t.cache;
      match t.regional with
      | None -> ()
      | Some r ->
        Regional.clear r.bindings;
        r.peer_captured <- false;
        (match r.mirror with
         | None -> ()
         | Some m ->
           (* so is every binding mirror still being retried; and a
              mirrored regional agent reclaims its own address: the peer
              may have captured it with gratuitous ARP while this node
              was down (the same burst, in reverse, repairs neighbour
              caches) *)
           Hashtbl.iter (fun _ x -> Exchange.ack x) m.syncs;
           List.iter
             (fun (i, _, addr) ->
                match addr with
                | Some a -> garp_burst t ~iface:i a
                | None -> ())
             (Node.ifaces t.node)));
  t
