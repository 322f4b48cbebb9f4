(* The mobile host (Section 3): agent discovery, registration with its
   home agent and regional agent, movement and disconnection. *)

open Agent_core

(* A packet tunneled to our home address: we are back home (or the
   tunnel chased us here).  Deliver to ourselves and tell everyone who
   forwarded the packet that we are at home, so they delete their cache
   entries (Section 6.3). *)
let mh_handle_tunneled_to_self t v (header : Mhrp_header.t) =
  t.counters.Counters.detunnels <- t.counters.Counters.detunnels + 1;
  send_updates t
    (Mhrp_header.tunnel_heads header ~incoming:(View.src v))
    ~mobile:header.Mhrp_header.mobile ~foreign_agent:Addr.zero;
  Node.inject_local t.node (Packet.decode (Encap.detunnel_into v header))

(* --- hierarchy soft-state parameters ([Config.regional_lifetime]) --- *)

(* The lifetime a registration advertises on the wire (u16 seconds; 0 =
   hard state). *)
let regional_lifetime_s t =
  let lt = t.config.Config.regional_lifetime in
  if Time.to_us lt = 0 then 0
  else max 1 (int_of_float (ceil (Time.to_sec lt)))

(* How often a registered mobile refreshes its regional binding:
   [Config.regional_refresh], or a third of the lifetime (the
   3-refreshes-per-lifetime convention of agent advertisements). *)
let regional_refresh_interval t =
  let r = t.config.Config.regional_refresh in
  if Time.to_us r > 0 then r
  else Time.of_us (max 1 (Time.to_us t.config.Config.regional_lifetime / 3))

(* --- registration machinery --- *)

let current_iface t =
  match Node.ifaces t.node with
  | (i, lan, _) :: _ -> (i, lan)
  | [] -> failwith (Node.name t.node ^ ": no interface")

(* The foreign agent to notify of the (implicit) disconnect once the
   next registration completes. *)
let note_old_fa mh =
  match Mobile_host.current_fa mh with
  | Some fa when not (Addr.is_zero fa) -> mh.Mobile_host.old_fa <- Some fa
  | _ -> ()

let notify_old_fa t mh ~new_foreign_agent =
  match mh.Mobile_host.old_fa with
  | Some old_fa when not (Addr.equal old_fa new_foreign_agent) ->
    t.counters.Counters.fa_disconnects <-
      t.counters.Counters.fa_disconnects + 1;
    send_control t ~dst:old_fa
      (Control.Fa_disconnect
         { mobile = mh.Mobile_host.home; new_foreign_agent });
    mh.Mobile_host.old_fa <- None
  | _ -> mh.Mobile_host.old_fa <- None

let complete_registration t mh ~foreign_agent =
  Exchange.ack mh.Mobile_host.connect;
  mh.Mobile_host.registrations_completed <-
    mh.Mobile_host.registrations_completed + 1;
  mh.Mobile_host.last_advert <- now t;
  if Addr.is_zero foreign_agent then begin
    mh.Mobile_host.phase <- Mobile_host.At_home;
    notify_old_fa t mh ~new_foreign_agent:Addr.zero
  end
  else begin
    mh.Mobile_host.phase <- Mobile_host.Registered foreign_agent;
    notify_old_fa t mh ~new_foreign_agent:foreign_agent
  end;
  if tracing t then
    tracef t "registered" "%a" Mobile_host.pp_phase mh.Mobile_host.phase;
  t.registered_tap foreign_agent

(* Every exchange of the mobile host is retransmitted under
   [Config.reliable_control] ({!Exchange}): without it a single lost
   registration or connect notification strands the host (the
   implicit-disconnection watchdog only re-solicits from a settled phase,
   never from mid-registration). *)
let register_with_home_agent t mh ~foreign_agent =
  send_acked t mh.Mobile_host.home_reg ~dst:mh.Mobile_host.home_agent
    (Control.Reg_request { mobile = mh.Mobile_host.home; foreign_agent })
    ~resent:(fun c ->
        c.Counters.reg_retransmissions <- c.Counters.reg_retransmissions + 1)
    ~give_up:ignore

(* Bind to the serving foreign agent at the regional agent
   ([Config.hierarchy]) — the only registration an intra-region handoff
   sends.  Exhausting the retransmissions ([Config.reliable_control])
   declares the regional agent dead and fails over. *)
let rec register_with_region t mh ~regional ~foreign_agent =
  send_acked t mh.Mobile_host.region_reg ~dst:regional
    (Control.Reg_region
       { mobile = mh.Mobile_host.home; foreign_agent;
         lifetime_s = regional_lifetime_s t })
    ~resent:(fun c ->
        c.Counters.region_retransmissions <-
          c.Counters.region_retransmissions + 1)
    ~give_up:(fun () -> region_failover t mh ~failed:regional)

(* Regional-agent crash recovery: the retransmission loop gave up, so the
   regional agent is presumed down.  Re-anchor at the advertised backup
   when one exists (the home agent must be repointed — external tunnels
   land on the regional agent, and the crashed one blackholes them), else
   fall back to a direct, flat registration with the current foreign
   agent; the next hierarchical connect ack restores aggregation. *)
and region_failover t mh ~failed =
  let still_current =
    match mh.Mobile_host.regional with
    | Some r -> Addr.equal r failed
    | None -> false
  in
  if still_current then begin
    t.counters.Counters.region_failovers <-
      t.counters.Counters.region_failovers + 1;
    match mh.Mobile_host.phase with
    | (Mobile_host.Registered fa | Mobile_host.Registering fa)
      when not (Addr.is_zero fa) -> begin
        match mh.Mobile_host.regional_backup with
        | Some backup when not (Addr.equal backup failed) ->
          if tracing t then
            tracef t "region-failover" "%a unresponsive: backup %a takes over"
              Addr.pp failed Addr.pp backup;
          mh.Mobile_host.regional <- Some backup;
          register_with_home_agent t mh ~foreign_agent:backup;
          register_with_region t mh ~regional:backup ~foreign_agent:fa
        | _ ->
          if tracing t then
            tracef t "region-failover"
              "%a unresponsive: registering directly with home agent" Addr.pp
              failed;
          mh.Mobile_host.regional <- None;
          register_with_home_agent t mh ~foreign_agent:fa
      end
    | _ -> mh.Mobile_host.regional <- None
  end

(* Fire-and-forget withdrawal (no ack, no retry): a stale binding is
   soft state the data-path machinery — and now its lifetime — corrects,
   and an acked withdrawal could race with — and falsely acknowledge —
   the registration to the next region.  On an inter-region handoff
   ([new_regional]) with a grace period configured, the withdrawal
   becomes a [Region_forward]: the old regional agent keeps a forwarding
   pointer so in-flight packets are re-tunneled instead of dropped.  A
   no-op outside hierarchy mode: [mh.regional] is only ever set by a
   hierarchical connect ack. *)
let withdraw_regional ?new_regional t mh =
  match mh.Mobile_host.regional with
  | None -> ()
  | Some regional ->
    (match new_regional with
     | Some next
       when Time.to_us t.config.Config.regional_grace > 0
         && not (Addr.equal next regional) ->
       send_control t ~dst:regional
         (Control.Region_forward
            { mobile = mh.Mobile_host.home; new_regional = next })
     | _ ->
       send_control t ~dst:regional
         (Control.Reg_region
            { mobile = mh.Mobile_host.home; foreign_agent = Addr.zero;
              lifetime_s = 0 }));
    mh.Mobile_host.regional <- None

(* A mobile host's routes on the [lan] it reaches through interface
   [i]: the LAN direct, everything else via [gateway]. *)
let set_attached_routes t i lan ~gateway =
  Node.set_routes t.node
    (Net.Route.add_default
       (Net.Route.add Net.Route.empty (Net.Lan.prefix lan)
          (Net.Route.Direct i))
       (Net.Route.Via gateway))

let connect_via_foreign_agent t mh fa_addr =
  mh.Mobile_host.phase <- Mobile_host.Registering fa_addr;
  let i, lan = current_iface t in
  set_attached_routes t i lan ~gateway:fa_addr;
  t.counters.Counters.fa_connects <- t.counters.Counters.fa_connects + 1;
  send_acked t mh.Mobile_host.connect ~dst:fa_addr
    (Control.Fa_connect
       { mobile = mh.Mobile_host.home; mac = Node.iface_mac t.node i })
    ~resent:(fun c ->
        c.Counters.connect_retransmissions <-
          c.Counters.connect_retransmissions + 1)
    ~give_up:(fun () ->
        (* fall back to agent discovery: the next advertisement (from
           this or any other agent) restarts the connection attempt *)
        mh.Mobile_host.phase <- Mobile_host.Searching)

let connect_home t mh ha_addr =
  mh.Mobile_host.phase <- Mobile_host.Registering Addr.zero;
  let i, lan = current_iface t in
  set_attached_routes t i lan ~gateway:ha_addr;
  (* Reconnecting to the home network: broadcast gratuitous ARP replies so
     neighbours (and the home agent) replace the home agent's link address
     with ours again (Section 2), retransmitted for reliability — until
     the host moves on, which retires interface [i]. *)
  let moves = mh.Mobile_host.moves in
  garp_burst t ~iface:i mh.Mobile_host.home
    ~live:(fun () -> mh.Mobile_host.moves = moves);
  withdraw_regional t mh;
  register_with_home_agent t mh ~foreign_agent:Addr.zero;
  complete_registration t mh ~foreign_agent:Addr.zero

let mh_handle_advert t mh ~agent ~home ~foreign =
  (* hearing our current agent (or the home agent while home) refreshes
     the implicit-disconnection clock (Section 3) *)
  (match mh.Mobile_host.phase with
   | Mobile_host.Registered fa | Mobile_host.Registering fa
     when Addr.equal agent fa ->
     mh.Mobile_host.last_advert <- now t
   | Mobile_host.At_home when Addr.equal agent mh.Mobile_host.home_agent ->
     mh.Mobile_host.last_advert <- now t
   | _ -> ());
  match mh.Mobile_host.phase with
  | Mobile_host.Searching ->
    if home && Addr.equal agent mh.Mobile_host.home_agent then begin
      if tracing t then
        tracef t "discovery" "home agent heard: %a" Addr.pp agent;
      connect_home t mh agent
    end
    else if foreign then begin
      if tracing t then
        tracef t "discovery" "foreign agent heard: %a" Addr.pp agent;
      connect_via_foreign_agent t mh agent
    end
  | Mobile_host.At_home | Mobile_host.Registering _
  | Mobile_host.Registered _ | Mobile_host.Disconnected -> ()

(* The replies and acks a mobile host's exchanges wait for, each about
   its home address. *)
let mh_handle_control t mh (msg : Control.t) =
  match msg with
  | Control.Reg_reply { accepted; _ } ->
    (* Section 3's notifications are independent, not a handshake: the
       home agent's reply only confirms.  Registration already completed
       when the notifications were sent, so a temporarily unreachable
       home agent does not stall the move (the forwarding-pointer
       scenario of Section 2).  The reply acknowledges every outstanding
       registration request, stopping its retransmission loop. *)
    if tracing t then
      tracef t "registered" "home agent %s"
        (if accepted then "confirmed" else "refused");
    Exchange.ack mh.Mobile_host.home_reg
  | Control.Fa_connect_ack _ -> (
      match mh.Mobile_host.phase with
      | Mobile_host.Registering fa when not (Addr.is_zero fa) ->
        (* a plain (non-hierarchical) foreign agent: any old regional
           binding is now stale *)
        withdraw_regional t mh;
        register_with_home_agent t mh ~foreign_agent:fa;
        complete_registration t mh ~foreign_agent:fa
      | _ -> ())
  | Control.Fa_connect_ack_r { regional; backup; _ } -> (
      (* Hierarchical connect ack: the home agent learns (at most once
         per region) that the host lives behind the regional agent;
         every handoff under the same regional agent only rebinds there.
         This is the aggregation that cuts long-haul control traffic per
         handoff (E19). *)
      match mh.Mobile_host.phase with
      | Mobile_host.Registering fa when not (Addr.is_zero fa) ->
        let same_region =
          match mh.Mobile_host.regional with
          | Some prev -> Addr.equal prev regional
          | None -> false
        in
        if not same_region then begin
          (* leaving a region: trade the withdrawal for a grace-period
             forwarding pointer when one is configured *)
          withdraw_regional ~new_regional:regional t mh;
          register_with_home_agent t mh ~foreign_agent:regional
        end;
        mh.Mobile_host.regional <- Some regional;
        mh.Mobile_host.regional_backup <-
          (if Addr.is_zero backup then None else Some backup);
        register_with_region t mh ~regional ~foreign_agent:fa;
        complete_registration t mh ~foreign_agent:fa
      | _ -> ())
  | Control.Reg_region_ack _ ->
    if tracing t then tracef t "registered" "regional agent confirmed";
    Exchange.ack mh.Mobile_host.region_reg
  | _ -> ()

(* --- becoming mobile, and moving (Section 3) --- *)

let make_mobile t ~home_agent =
  let home = address t in
  Node.add_address t.node home;
  (* keep answering to the home address across moves *)
  let mh = Mobile_host.create ~home ~home_agent in
  mh.Mobile_host.last_advert <- now t;
  t.mh <- Some mh;
  (* Implicit-disconnection watchdog (Section 3): a host carried out of
     range hears no more advertisements from its agent; when the lifetime
     lapses it starts searching for a new one. *)
  let lifetime = t.config.Config.advert_lifetime in
  let check_interval = Time.of_us (max 1 (Time.to_us lifetime / 3)) in
  Engine.every (engine t) ~interval:check_interval (fun () ->
      if Node.is_up t.node then
        match mh.Mobile_host.phase with
        | Mobile_host.Registered _ | Mobile_host.At_home ->
          if Time.(diff (now t) mh.Mobile_host.last_advert > lifetime) then
          begin
            mh.Mobile_host.implicit_disconnects <-
              mh.Mobile_host.implicit_disconnects + 1;
            note_old_fa mh;
            mh.Mobile_host.phase <- Mobile_host.Searching;
            if tracing t then
              tracef t "discovery" "agent advertisements expired: searching";
            solicit t
          end
        | Mobile_host.Searching | Mobile_host.Registering _
        | Mobile_host.Disconnected -> ());
  (* Regional soft-state refresh ([Config.regional_lifetime]): re-send
     the binding at a fraction of its lifetime so it never expires while
     the host is alive.  The refresh doubles as a liveness probe — under
     a reliable control plane an unacked exchange is left to its
     retransmission loop (whose exhaustion triggers failover) rather
     than being superseded by the next refresh, which would reset the
     loop forever and mask the dead agent. *)
  if t.config.Config.hierarchy
     && (Time.to_us t.config.Config.regional_refresh > 0
         || Time.to_us t.config.Config.regional_lifetime > 0)
  then
    Engine.every (engine t) ~interval:(regional_refresh_interval t)
      (fun () ->
         if Node.is_up t.node then
           match mh.Mobile_host.regional, mh.Mobile_host.phase with
           | Some regional, Mobile_host.Registered fa
             when (not (Addr.is_zero fa))
               && ((not t.config.Config.reliable_control)
                   || not (Exchange.pending mh.Mobile_host.region_reg)) ->
             register_with_region t mh ~regional ~foreign_agent:fa
           | None, Mobile_host.Registered fa
             when (not (Addr.is_zero fa))
               && Exchange.pending mh.Mobile_host.home_reg ->
             (* Post-failover direct registration that the home agent
                never confirmed — the whole region may have been
                unreachable while its transit router was down.  Keep
                re-sending at the refresh cadence (each attempt
                supersedes the previous retry loop) until the home
                agent answers, or delivery is never restored. *)
             register_with_home_agent t mh ~foreign_agent:fa
           | _ -> ())

(* Leaving the current cell: abandon the connect exchange, remember the
   foreign agent to notify, and stop serving as our own foreign agent. *)
let leave_cell t mh =
  Exchange.ack mh.Mobile_host.connect;
  note_old_fa mh;
  match mh.Mobile_host.own_fa_temp with
  | None -> ()
  | Some temp ->
    Node.remove_address t.node temp;
    (match t.fa with
     | Some fa -> Foreign_agent.remove fa.visitors mh.Mobile_host.home
     | None -> ());
    mh.Mobile_host.own_fa_temp <- None

let move_to ~topo ?own_fa_temp t lan =
  match t.mh with
  | None -> invalid_arg "Agent.move_to: not a mobile host"
  | Some mh ->
    mh.Mobile_host.moves <- mh.Mobile_host.moves + 1;
    leave_cell t mh;
    Net.Topology.move_host topo t.node lan;
    Node.set_routes t.node Net.Route.empty;
    match own_fa_temp with
    | None ->
      mh.Mobile_host.phase <- Mobile_host.Searching;
      if tracing t then tracef t "move" "to %s, soliciting" (Net.Lan.name lan);
      solicit t
    | Some temp ->
      (* Serve as own foreign agent at a temporary address (Section 2).
         Obtaining the address and gateway is outside the protocol; we
         model the result: the address is configured and a default route
         via an existing router on the LAN is known. *)
      if not (Ipv4.Addr.Prefix.mem temp (Net.Lan.prefix lan)) then
        invalid_arg "Agent.move_to: temporary address not in LAN prefix";
      Node.add_address t.node temp;
      mh.Mobile_host.own_fa_temp <- Some temp;
      let i, _ = current_iface t in
      Foreign_role.enable_foreign_agent t ~iface:i;
      (match t.fa with
       | Some fa ->
         Foreign_agent.add fa.visitors
           { Foreign_agent.mobile = mh.Mobile_host.home;
             mac = Some (Node.iface_mac t.node i); iface = i }
       | None -> ());
      let gateway =
        List.find_map
          (fun n ->
             if Node.is_router n && not (Node.name n = Node.name t.node)
             then
               List.find_map
                 (fun (_, l, addr) -> if l == lan then addr else None)
                 (Node.ifaces n)
             else None)
          (Net.Topology.nodes topo)
      in
      (match gateway with
       | None -> invalid_arg "Agent.move_to: no router on target LAN"
       | Some gw -> set_attached_routes t i lan ~gateway:gw);
      mh.Mobile_host.phase <- Mobile_host.Registering temp;
      if tracing t then
        tracef t "move" "to %s as own fa %a" (Net.Lan.name lan) Addr.pp temp;
      withdraw_regional t mh;
      register_with_home_agent t mh ~foreign_agent:temp;
      complete_registration t mh ~foreign_agent:temp

let disconnect t =
  match t.mh with
  | None -> invalid_arg "Agent.disconnect: not a mobile host"
  | Some mh ->
    if tracing t then tracef t "move" "explicit disconnect";
    leave_cell t mh;
    withdraw_regional t mh;
    (* Home agent first, then the old foreign agent (Section 3). *)
    register_with_home_agent t mh ~foreign_agent:disconnected_marker;
    notify_old_fa t mh ~new_foreign_agent:Addr.zero;
    mh.Mobile_host.phase <- Mobile_host.Disconnected
