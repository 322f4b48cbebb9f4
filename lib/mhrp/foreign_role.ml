(* The foreign agent (Sections 2, 5.2): the visitor list, last-hop
   delivery, connect and disconnect notifications, and the recovery of
   visitors a reboot lost. *)

open Agent_core

(* Correct foreign agent: strip the header, update every stale cache agent
   recorded in it (Section 5.1), deliver over the last hop. *)
let deliver_to_visitor t fa v (header : Mhrp_header.t) =
  (* Report the address the tunnel actually ended at: the foreign agent's
     own address, or the temporary address of a host serving as its own
     foreign agent.  Under hierarchical registration with an explicit
     refresh interval configured — the failure-recovery deployment
     profile — a foreign agent advertises its regional parent instead,
     so correspondent caches keep pointing at the region's stable entry
     point: intra-region handoffs stay invisible to them, a regional
     failover or mirror-peer takeover keeps them valid, and an
     inter-region handoff can be chased through the old regional
     agent's forwarding pointer.  On the slow lifetime/3 fallback
     cadence that entry point is too loosely maintained to pin caches
     to, so the foreign agent keeps reporting itself. *)
  let endpoint =
    match fa.parent with
    | Some regional
      when t.config.Config.hierarchy
           && Time.to_us t.config.Config.regional_refresh > 0 -> regional
    | _ -> View.dst v
  in
  let mobile = header.Mhrp_header.mobile in
  t.counters.Counters.detunnels <- t.counters.Counters.detunnels + 1;
  send_updates t header.Mhrp_header.prev_sources ~mobile
    ~foreign_agent:endpoint;
  if tracing t then tracef t "deliver" "to visitor %a" Addr.pp mobile;
  if Node.has_address t.node mobile then
    (* We are the mobile host serving as its own foreign agent. *)
    Node.inject_local t.node (Packet.decode (Encap.detunnel_into v header))
  else
    match Foreign_agent.find fa.visitors mobile with
    | None -> ()
    | Some { Foreign_agent.mac = Some mac; iface; _ } ->
      Node.send_wire_to_mac t.node ~iface ~dst_mac:mac
        (Encap.detunnel_into v header)
    | Some { Foreign_agent.mac = None; _ } ->
      (* Recovered visitor (Section 5.2): deliver through ARP on the
         serving LAN via a host route, added once — a table rebuilt per
         packet would recompile its lookup every time. *)
      let serving = fa.serving in
      (match Net.Route.host_target (Node.routes t.node) mobile with
       | Some (Net.Route.Direct i) when i = serving -> ()
       | Some _ | None ->
         Node.update_routes t.node (fun r ->
             Net.Route.add_host r mobile (Net.Route.Direct serving)));
      Node.forward_wire t.node (Encap.detunnel_into v header)

(* --- Section 5.2: visitors a reboot lost --- *)

let re_add t fa ~iface ~mobile mac ~how =
  Foreign_agent.add fa.visitors { Foreign_agent.mobile; mac; iface };
  t.counters.Counters.recoveries <- t.counters.Counters.recoveries + 1;
  if tracing t then
    tracef t "fa-recovery" "re-added visitor %a%s" Addr.pp mobile how

(* Ask the serving LAN whether [mobile] is still there (the paper
   suggests an ARP query): a probe, and 50 ms later, the visitor re-added
   if it answered — [how] ends the trace line — else [unanswered ()]. *)
let probe_visitor t fa ~mobile ~how unanswered =
  let iface = fa.serving in
  Node.arp_probe t.node ~iface mobile;
  ignore
    (Engine.schedule_after (engine t) ~delay:(Time.of_ms 50) (fun () ->
         Hashtbl.remove fa.probes (Addr.to_key mobile);
         if Node.is_up t.node then
           match Node.arp_cache_lookup t.node mobile with
           | Some mac ->
             if not (Foreign_agent.mem fa.visitors mobile) then
               re_add t fa ~iface ~mobile (Some mac) ~how
           | None -> unanswered ()))

(* A location update naming this node as [mobile]'s foreign agent, for a
   host missing from the visitor list: believe the home agent, or under
   [Config.verify_recovered_visitors] verify presence first. *)
let fa_recovery_check t fa ~mobile ~foreign_agent =
  if Node.has_address t.node foreign_agent
  && (not (Foreign_agent.mem fa.visitors mobile))
  && not (Node.has_address t.node mobile)
  then
    if t.config.Config.verify_recovered_visitors then
      probe_visitor t fa ~mobile ~how:"" (fun () ->
          if tracing t then
            tracef t "fa-recovery" "%a did not answer query" Addr.pp mobile)
    else re_add t fa ~iface:fa.serving ~mobile None ~how:""

(* Hierarchical counterpart of the Section 5.2 reboot recovery: a foreign
   agent handed a tunneled packet for a mobile host missing from its
   visitor list (a reboot lost the list, or a lost withdrawal left the
   regional binding stale) probes the cell.  An answer means the host is
   still here — re-add it, the regional binding was right after all.  No
   answer means the binding is stale: report a visitor-list miss so the
   regional parent drops it ([Control.Fa_visitor_miss]) — the bounce the
   flat path gets from the home agent's ICMP location updates, which
   never reaches a regional binding.  Skipped while a forwarding-pointer
   cache entry still says where the host went: that entry re-tunnels the
   packet correctly, and the probe would only add control traffic. *)
let fa_probe_missing_visitor t fa ~mobile =
  match fa.parent with
  | Some regional
    when t.config.Config.hierarchy
      && (not (Foreign_agent.mem fa.visitors mobile))
      && (not (Node.has_address t.node mobile))
      && Location_cache.find t.cache mobile = None ->
    let km = Addr.to_key mobile in
    if not (Hashtbl.mem fa.probes km) then begin
      Hashtbl.replace fa.probes km ();
      probe_visitor t fa ~mobile ~how:" after probe" (fun () ->
          (* report the address the mobiles register — the one
             advertised on the serving interface, which is what the
             regional binding records *)
          let fa_self =
            match Node.iface_addr t.node fa.serving with
            | Some a -> a
            | None | (exception Invalid_argument _) -> address t
          in
          if tracing t then
            tracef t "fa-recovery"
              "%a did not answer probe: reporting miss to %a" Addr.pp mobile
              Addr.pp regional;
          send_control t ~dst:regional
            (Control.Fa_visitor_miss { mobile; foreign_agent = fa_self }))
    end
  | _ -> ()

(* --- connect and disconnect notifications (Section 3) --- *)

(* The interface whose LAN [mac] is attached to, else [default]. *)
let rec iface_with_station mac ~default = function
  | [] -> default
  | (i, lan, _) :: rest ->
    if Net.Lan.attached lan mac then i
    else iface_with_station mac ~default rest

let fa_handle_connect t fa ~mobile ~mac =
  (* Find the interface whose LAN the mobile host's link address is
     attached to; default to the serving interface. *)
  let iface =
    iface_with_station mac ~default:fa.serving (Node.ifaces t.node)
  in
  Foreign_agent.add fa.visitors { Foreign_agent.mobile; mac = Some mac; iface };
  t.counters.Counters.fa_connects <- t.counters.Counters.fa_connects + 1;
  if tracing t then
    tracef t "visitor" "%a connected (mac %a)" Addr.pp mobile Net.Mac.pp mac;
  t.counters.Counters.control_messages <-
    t.counters.Counters.control_messages + 1;
  (* Under hierarchy, a foreign agent with a provisioned regional
     parent tells the mobile host to register through it instead of
     the home agent. *)
  let ack_msg =
    match fa.parent with
    | Some regional when t.config.Config.hierarchy ->
      Control.Fa_connect_ack_r
        { mobile; regional;
          backup = Option.value fa.backup_parent ~default:Addr.zero }
    | _ -> Control.Fa_connect_ack { mobile }
  in
  Node.send_wire_to_mac t.node ~iface ~dst_mac:mac
    (control_wire t ~dst:mobile ack_msg None)

let fa_handle_disconnect t fa ~mobile ~new_foreign_agent =
  Foreign_agent.remove fa.visitors mobile;
  t.counters.Counters.fa_disconnects <- t.counters.Counters.fa_disconnects + 1;
  if tracing t then
    tracef t "visitor" "%a disconnected (now %a)" Addr.pp mobile Addr.pp
      new_foreign_agent;
  (* Forwarding pointer (Section 2): the old foreign agent may cache the
     new location, kept as an ordinary cache entry. *)
  if t.config.Config.forwarding_pointers
     && not (Addr.is_zero new_foreign_agent)
  then cache_update t ~mobile ~foreign_agent:new_foreign_agent

let enable_foreign_agent t ~iface =
  (match t.fa with
   | Some fa -> fa.serving <- iface
   | None ->
     t.fa <-
       Some
         { visitors = Foreign_agent.create (); serving = iface; parent = None;
           backup_parent = None; probes = Hashtbl.create 4 });
  start_advert_timer t

let set_regional_parent ?backup t regional =
  match t.fa with
  | None -> invalid_arg "Agent.set_regional_parent: not a foreign agent"
  | Some fa ->
    fa.parent <- Some regional;
    fa.backup_parent <- backup
