type t = {
  mutable tunnels_built : int;
  mutable retunnels : int;
  mutable detunnels : int;
  mutable updates_sent : int;
  mutable updates_received : int;
  mutable loops_detected : int;
  mutable loops_dissolved : int;
  mutable list_truncations : int;
  mutable registrations : int;
  mutable fa_connects : int;
  mutable fa_disconnects : int;
  mutable intercepts : int;
  mutable icmp_errors_reversed : int;
  mutable recoveries : int;
  mutable control_messages : int;
  mutable auth_ok : int;
  mutable auth_fail : int;
  mutable replay_drop : int;
  mutable reg_retransmissions : int;
  mutable connect_retransmissions : int;
  mutable sync_retransmissions : int;
  mutable retransmit_gave_up : int;
  mutable regional_registrations : int;
  mutable regional_retunnels : int;
  mutable region_retransmissions : int;
  mutable regional_forwards : int;
  mutable regional_invalidations : int;
  mutable regional_expirations : int;
  mutable region_failovers : int;
  mutable region_sync_retransmissions : int;
  mutable region_takeovers : int;
}

let create () =
  { tunnels_built = 0; retunnels = 0; detunnels = 0; updates_sent = 0;
    updates_received = 0; loops_detected = 0; loops_dissolved = 0;
    list_truncations = 0; registrations = 0; fa_connects = 0;
    fa_disconnects = 0; intercepts = 0; icmp_errors_reversed = 0;
    recoveries = 0; control_messages = 0; auth_ok = 0; auth_fail = 0;
    replay_drop = 0; reg_retransmissions = 0; connect_retransmissions = 0;
    sync_retransmissions = 0; retransmit_gave_up = 0;
    regional_registrations = 0; regional_retunnels = 0;
    region_retransmissions = 0; regional_forwards = 0;
    regional_invalidations = 0; regional_expirations = 0;
    region_failovers = 0; region_sync_retransmissions = 0;
    region_takeovers = 0 }

let pp ppf t =
  Format.fprintf ppf
    "tunnels=%d retunnels=%d detunnels=%d updates=%d/%d loops=%d/%d \
     trunc=%d reg=%d fa+=%d fa-=%d intercepts=%d icmp-rev=%d recov=%d \
     ctrl=%d auth=%d/%d replay=%d rtx=%d/%d/%d gave-up=%d \
     regional=%d/%d rrtx=%d rfwd=%d rinv=%d rexp=%d rfail=%d rsrtx=%d \
     rtake=%d"
    t.tunnels_built t.retunnels t.detunnels t.updates_sent
    t.updates_received t.loops_detected t.loops_dissolved
    t.list_truncations t.registrations t.fa_connects t.fa_disconnects
    t.intercepts t.icmp_errors_reversed t.recoveries t.control_messages
    t.auth_ok t.auth_fail t.replay_drop t.reg_retransmissions
    t.connect_retransmissions t.sync_retransmissions t.retransmit_gave_up
    t.regional_registrations t.regional_retunnels t.region_retransmissions
    t.regional_forwards t.regional_invalidations t.regional_expirations
    t.region_failovers t.region_sync_retransmissions t.region_takeovers
