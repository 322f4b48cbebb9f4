(* The regional agent of a hierarchy ([Config.hierarchy]): the region's
   mobile -> foreign-agent bindings, the re-tunnel through them, the
   grace-period forwarding pointers of inter-region handoffs, and the
   mirror to a standby that takes the region over on a crash. *)

open Agent_core

let regional_binding t mobile =
  match t.regional with
  | Some r -> Regional.find r.bindings mobile
  | None -> None

(* A live inter-region forwarding pointer ([Config.regional_grace]): the
   mobile left this region but its old regional agent chases in-flight
   packets to the new one for a grace period. *)
let regional_forward t mobile =
  match t.regional with
  | None -> None
  | Some r ->
    (match Regional.forward r.bindings ~now:(now t) mobile with
     | Some target when not (Node.has_address t.node target) -> Some target
     | _ -> None)

(* Dispatch a tunneled packet through our regional role: retunnel to the
   bound foreign agent or chase an inter-region forwarding pointer, and
   answer whether it did; on [false] the caller serves the packet.
   Shared by the pure-regional node and the combined home-and-regional
   node, whose home-agent location entry names one of its own
   addresses.  Overflow notifications report this agent's own address,
   not the inner foreign agent — the region stays opaque, so external
   caches survive intra-region handoffs. *)
let regional_dispatch t v (header : Mhrp_header.t) =
  let mobile = header.Mhrp_header.mobile in
  match regional_binding t mobile with
  | Some fa when not (Node.has_address t.node fa) ->
    t.counters.Counters.regional_retunnels <-
      t.counters.Counters.regional_retunnels + 1;
    do_retunnel t v header ~mobile ~new_dst:fa ~report_fa:(Some (address t));
    true
  | _ ->
    match regional_forward t mobile with
    | Some target ->
      (* inter-region handoff grace period: chase the mobile to its new
         regional agent, and report that agent so stale caches rebind to
         the new region *)
      t.counters.Counters.regional_forwards <-
        t.counters.Counters.regional_forwards + 1;
      if tracing t then
        tracef t "regional" "forwarding %a to new region %a" Addr.pp mobile
          Addr.pp target;
      do_retunnel t v header ~mobile ~new_dst:target ~report_fa:(Some target);
      true
    | None -> false

(* A tunnel this node built to one of its own addresses, looped straight
   back by the network layer: the home agent and the regional agent are
   the same node, and some home-agent path (a registration reply, an
   intercept racing the regional binding write) tunneled to the recorded
   location — us.  Strip our own encapsulation and send the inner packet
   through the regional binding; running it through the normal dispatch
   instead would read our own address among the tunnel heads as a
   one-hop loop and dissolve the binding. *)
let handle_self_tunnel t v (header : Mhrp_header.t) =
  let mobile = header.Mhrp_header.mobile in
  t.counters.Counters.detunnels <- t.counters.Counters.detunnels + 1;
  let original = Encap.detunnel_into v header in
  let target =
    match regional_binding t mobile with
    | Some fa when not (Node.has_address t.node fa) -> Some fa
    | _ -> regional_forward t mobile
  in
  match target with
  | Some fa ->
    t.counters.Counters.tunnels_built <-
      t.counters.Counters.tunnels_built + 1;
    if tracing t then
      tracef t "tunnel" "self-tunnel for %a on to fa %a" Addr.pp mobile
        Addr.pp fa;
    Node.forward_wire t.node
      (Encap.tunnel_by_agent_into ~agent:(address t) ~foreign_agent:fa
         (View.make original))
  | None ->
    if tracing t then
      tracef t "drop" "self-tunnel for %a: no regional binding" Addr.pp
        mobile;
    send_unreachable t (Packet.decode original)

let regional_expiry t ~lifetime_s =
  if lifetime_s > 0 then
    Some (Time.add (now t) (Time.of_sec (float_of_int lifetime_s)))
  else None

(* The mirror peer exhausted every binding-sync retransmission: it is
   down.  Capture its regional address on the shared LANs — the
   Section 2 gratuitous-ARP manoeuvre — so correspondents whose caches
   still tunnel into the region through the dead agent reach this
   node's mirrored binding table instead; the proxy-ARP hook answers
   later queries.  Released the moment the peer is heard from again
   (its own post-reboot syncs, or an ack to ours). *)
let region_peer_takeover t r =
  match r.mirror with
  | Some m when not r.peer_captured ->
    r.peer_captured <- true;
    t.counters.Counters.region_takeovers <-
      t.counters.Counters.region_takeovers + 1;
    if tracing t then
      tracef t "regional" "peer %a unresponsive: capturing its address"
        Addr.pp m.peer;
    garp_burst_covering t m.peer
  | _ -> ()

let region_peer_release t r ~peer =
  if region_peer_claims t peer then begin
    r.peer_captured <- false;
    if tracing t then
      tracef t "regional" "peer %a is back: releasing its address" Addr.pp
        peer
  end

(* Mirror a binding write to the configured backup regional agent so it
   can take over the region on a crash, retransmitted under
   [Config.reliable_control] until the backup confirms. *)
let sync_region_binding t r ~mobile ~foreign_agent ~lifetime_s =
  match r.mirror with
  | None -> ()
  | Some m ->
    (* A newer generation superseding this one must NOT cancel the retry
       chain: any ack covers every earlier generation, so only an ack
       (or a reboot) counts as the peer answering.  Otherwise a refresh
       cadence shorter than the full retry schedule would re-arm forever
       and the peer's death would never surface. *)
    send_sync ~supersede:false t m ~mobile
      (Control.Region_sync { mobile; foreign_agent; lifetime_s })
      ~resent:(fun c ->
          c.Counters.region_sync_retransmissions <-
            c.Counters.region_sync_retransmissions + 1)
      ~give_up:(fun () -> region_peer_takeover t r)

let regional_handle_registration t r ~mobile ~foreign_agent ~lifetime_s =
  if Addr.is_zero foreign_agent then begin
    Regional.withdraw r.bindings mobile;
    if tracing t then tracef t "regional" "%a withdrawn" Addr.pp mobile;
    (* no ack: see [withdraw_regional] *)
    sync_region_binding t r ~mobile ~foreign_agent:Addr.zero ~lifetime_s:0
  end
  else begin
    (match
       Regional.register r.bindings ?expires_at:(regional_expiry t ~lifetime_s)
         ~mobile ~foreign_agent ()
     with
     | `Fresh ->
       t.counters.Counters.regional_registrations <-
         t.counters.Counters.regional_registrations + 1;
       if tracing t then
         tracef t "regional" "%a now at %a" Addr.pp mobile Addr.pp
           foreign_agent
     | `Refresh ->
       (* pure keep-alive: the binding is unchanged, only its lifetime
          re-arms — not a registration, or refreshes would inflate the
          E19 aggregation counters *)
       if tracing t then
         tracef t "regional" "%a refreshed at %a" Addr.pp mobile Addr.pp
           foreign_agent);
    sync_region_binding t r ~mobile ~foreign_agent ~lifetime_s;
    (* the ack reaches the visiting host through the binding we just
       wrote, exactly as the home agent's reply rides its tunnel *)
    t.counters.Counters.control_messages <-
      t.counters.Counters.control_messages + 1;
    send_control_via t ~dst:mobile (Control.Reg_region_ack { mobile })
      (Some foreign_agent)
  end

(* Backup regional agent: apply a mirrored binding without re-propagating
   (cf. [Ha_sync]), confirming under a reliable control plane so the
   primary stops retransmitting. *)
let regional_handle_sync t r ~src ~mobile ~foreign_agent ~lifetime_s =
  region_peer_release t r ~peer:src;
  if Addr.is_zero foreign_agent then Regional.withdraw r.bindings mobile
  else begin
    ignore
      (Regional.register r.bindings ?expires_at:(regional_expiry t ~lifetime_s)
         ~mobile ~foreign_agent ());
    if tracing t then
      tracef t "regional" "synced %a -> %a" Addr.pp mobile Addr.pp
        foreign_agent
  end;
  if t.config.Config.reliable_control then
    send_control t ~dst:src (Control.Region_sync_ack { mobile })

let regional_handle_sync_ack t r ~src ~mobile =
  region_peer_release t r ~peer:src;
  match r.mirror with
  | Some m -> sync_acked m ~mobile
  | None -> ()

(* The hierarchical invalidation bounce: the serving foreign agent says
   it does not know this visitor (and the cell did not answer a probe),
   so the binding is stale — but only if it still points there; a racing
   re-registration to a different foreign agent must win. *)
let regional_handle_visitor_miss t r ~mobile ~foreign_agent =
  if Regional.invalidate r.bindings ~mobile ~foreign_agent then begin
    t.counters.Counters.regional_invalidations <-
      t.counters.Counters.regional_invalidations + 1;
    if tracing t then
      tracef t "regional" "%a invalidated: %a reports no such visitor"
        Addr.pp mobile Addr.pp foreign_agent
  end

(* Inter-region handoff: replace the departing mobile's binding with a
   grace-period forwarding pointer toward its new regional agent. *)
let regional_handle_forward t r ~mobile ~new_regional =
  Regional.withdraw r.bindings mobile;
  sync_region_binding t r ~mobile ~foreign_agent:Addr.zero ~lifetime_s:0;
  let grace = t.config.Config.regional_grace in
  if Time.to_us grace > 0 && not (Node.has_address t.node new_regional)
  then begin
    Regional.set_forward r.bindings ~mobile ~new_regional
      ~expires_at:(Time.add (now t) grace);
    if tracing t then
      tracef t "regional" "%a left region: forwarding to %a for %a" Addr.pp
        mobile Addr.pp new_regional Time.pp grace
  end

(* Soft-state sweep: evict bindings whose lifetime ran out unrefreshed.
   Swept at a quarter lifetime so an expired binding lingers at most
   25% past its advertised lifetime; armed only when lifetimes are in
   play, so pre-failover configurations run a timer-free table. *)
let start_sweep t r =
  let lifetime = Time.to_us t.config.Config.regional_lifetime in
  if t.config.Config.hierarchy && lifetime > 0 then
    Engine.every (engine t) ~interval:(Time.of_us (max 1 (lifetime / 4)))
      (fun () ->
         if Node.is_up t.node then
           List.iter
             (fun (mobile, fa) ->
                t.counters.Counters.regional_expirations <-
                  t.counters.Counters.regional_expirations + 1;
                if tracing t then
                  tracef t "regional" "%a expired (was at %a)" Addr.pp
                    mobile Addr.pp fa)
             (Regional.expire r.bindings ~now:(now t)))

let enable_regional_agent ?backup t =
  let r =
    match t.regional with
    | Some r -> r
    | None ->
      let r =
        { bindings = Regional.create (); mirror = None;
          peer_captured = false }
      in
      t.regional <- Some r;
      start_sweep t r;
      r
  in
  match backup with
  | Some peer -> r.mirror <- Some (mirror_to peer)
  | None -> ()
