(* The home agent (Section 2): the location database, interception of
   an away host's traffic, registrations, and the mirror to replica home
   agents. *)

open Agent_core
open Regional_role

(* Initial interception of a plain packet for an away mobile host
   (Sections 2, 6.1): tunnel to its current foreign agent and tell the
   sender where it is.  When the home agent doubles as the mobile's
   regional agent (the host is visiting a cell of its own home region),
   the recorded location is one of our own addresses: tunnel straight to
   the regional binding's foreign agent instead — a tunnel to ourselves
   would come back with us already among the tunnel heads and dissolve
   as a one-hop loop. *)
let ha_intercept t ha v =
  let mobile = View.dst v in
  t.counters.Counters.intercepts <- t.counters.Counters.intercepts + 1;
  match Home_agent.location ha.db mobile with
  | Some fa when Addr.equal fa disconnected_marker ->
    if tracing t then tracef t "intercept" "%a is disconnected" Addr.pp mobile;
    send_unreachable t (View.decode v)
  | Some fa when not (Addr.is_zero fa) ->
    let target, report =
      if not (Node.has_address t.node fa) then (Some fa, fa)
      else
        match regional_binding t mobile with
        | Some fa' -> (Some fa', fa)
        | None ->
          (match regional_forward t mobile with
           | Some target -> (Some target, target)
           | None -> (None, fa))
    in
    (match target with
     | Some target ->
       t.counters.Counters.tunnels_built <-
         t.counters.Counters.tunnels_built + 1;
       if tracing t then
         tracef t "tunnel" "intercepted for %a, to fa %a" Addr.pp mobile
           Addr.pp target;
       Node.forward_wire t.node
         (Encap.tunnel_by_agent_into ~agent:(address t) ~foreign_agent:target
            v);
       send_location_update t ~dst:(View.src v) ~mobile ~foreign_agent:report
     | None ->
       (* our own regional binding expired with the location entry still
          naming us: the host is gone *)
       if tracing t then
         tracef t "intercept" "%a: own regional binding expired" Addr.pp
           mobile;
       send_unreachable t (View.decode v))
  | Some _ | None ->
    (* At home after all (stale ARP in some neighbour): pass it on to the
       home LAN. *)
    Node.forward_now t.node (View.decode v)

(* Home agent receiving a tunneled packet for one of its mobile hosts —
   the packet bounced off a stale or rebooted foreign agent
   (Sections 5.1, 5.2). *)
let ha_handle_tunneled t ha v (header : Mhrp_header.t) =
  let mobile = header.Mhrp_header.mobile in
  let targets =
    List.filter
      (fun a -> not (Node.has_address t.node a))
      (Mhrp_header.tunnel_heads header ~incoming:(View.src v))
  in
  match Home_agent.location ha.db mobile with
  | None -> retunnel_stale t v header
  | Some fa when Addr.is_zero fa ->
    (* The mobile host is at home: reconstruct and deliver on the home
       network; stale caches learn it is home (Section 6.3). *)
    t.counters.Counters.detunnels <- t.counters.Counters.detunnels + 1;
    send_updates t targets ~mobile ~foreign_agent:Addr.zero;
    Node.forward_wire t.node (Encap.detunnel_into v header)
  | Some fa when Addr.equal fa disconnected_marker ->
    send_updates t targets ~mobile ~foreign_agent:Addr.zero;
    send_unreachable t (Packet.decode (Encap.detunnel_into v header))
  | Some fa when List.exists (Addr.equal fa) targets ->
    (* Section 5.2: the agent that bounced this packet home IS the
       registered foreign agent — it must have rebooted.  Tell everyone
       (including it) and discard the packet. *)
    if tracing t then
      tracef t "fa-recovery" "%a bounced by its own fa %a" Addr.pp mobile
        Addr.pp fa;
    send_updates t targets ~mobile ~foreign_agent:fa
  | Some fa ->
    (* Section 5.1: update every stale agent this packet visited, then
       tunnel on to the correct foreign agent. *)
    send_updates t targets ~mobile ~foreign_agent:fa;
    do_retunnel t v header ~mobile ~new_dst:fa ~report_fa:(Some fa)

(* Apply a registration to the home-agent database with its side effects
   (ARP capture bursts when the host departs its home LAN), without
   replying — shared by direct registrations and replica synchronisation
   (Section 2's replicated home agents). *)
let register_mobile t ha ~mobile ~foreign_agent =
  if Home_agent.serves ha.db mobile then begin
    let previous = Home_agent.location ha.db mobile in
    Home_agent.register ha.db ~mobile ~foreign_agent;
    t.counters.Counters.registrations <-
      t.counters.Counters.registrations + 1;
    if tracing t then
      tracef t "register" "%a now at %a" Addr.pp mobile Addr.pp foreign_agent;
    (* Departure from home: capture the host's traffic on the home LAN by
       poisoning neighbour ARP caches, retransmitted for reliability
       (Section 2).  Proxy ARP is in force via the arp_proxy hook. *)
    match previous with
    | Some prev when Addr.is_zero prev && not (Addr.is_zero foreign_agent) ->
      garp_burst_covering t mobile
    | _ -> ()
  end

(* Section 2's replicated home agents: an accepted registration is
   mirrored to every replica, each replica's exchange per mobile host
   superseded by the next registration.  Top-level, so an agent without
   replicas builds nothing. *)
let rec sync_replicas t ~mobile ~foreign_agent = function
  | [] -> ()
  | m :: rest ->
    send_sync t m ~mobile (Control.Ha_sync { mobile; foreign_agent })
      ~resent:(fun c ->
          c.Counters.sync_retransmissions <-
            c.Counters.sync_retransmissions + 1)
      ~give_up:ignore;
    sync_replicas t ~mobile ~foreign_agent rest

let ha_handle_registration t ha ~mobile ~foreign_agent =
  if Home_agent.serves ha.db mobile then begin
    register_mobile t ha ~mobile ~foreign_agent;
    sync_replicas t ~mobile ~foreign_agent ha.replicas;
    (* The reply reaches a visiting host through its new tunnel. *)
    send_control_via t ~dst:mobile
      (Control.Reg_reply { mobile; accepted = true })
      (sender_tunnel t mobile);
    t.counters.Counters.control_messages <-
      t.counters.Counters.control_messages + 1
  end

(* Replica synchronisation: apply without re-propagating; under a
   reliable control plane, confirm so the originator can stop
   retransmitting. *)
let ha_handle_sync t ha ~src ~mobile ~foreign_agent =
  register_mobile t ha ~mobile ~foreign_agent;
  if t.config.Config.reliable_control then
    send_control t ~dst:src (Control.Ha_sync_ack { mobile })

let ha_handle_sync_ack ha ~src ~mobile =
  match List.find_opt (fun m -> Addr.equal m.peer src) ha.replicas with
  | Some m -> sync_acked m ~mobile
  | None -> ()

let enable_home_agent ?(replicas = []) t =
  let ha =
    match t.ha with
    | Some ha -> ha
    | None ->
      let ha =
        { db = Home_agent.create ~persistent:t.config.Config.ha_persistent ();
          replicas = [] }
      in
      t.ha <- Some ha;
      start_advert_timer t;
      ha
  in
  if replicas <> [] then ha.replicas <- List.map mirror_to replicas

let add_mobile t mobile =
  match t.ha with
  | None -> failwith "Agent.add_mobile: not a home agent"
  | Some ha -> Home_agent.add_mobile ha.db mobile
