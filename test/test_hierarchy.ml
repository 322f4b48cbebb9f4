(* Integration tests of hierarchical registration ([Config.hierarchy])
   on the two-level regions topology: the home agent records the
   regional agent, intra-region handoffs are absorbed by the regional
   binding table, and data flows through the regional re-tunnel — plus
   the failure-recovery machinery: foreign-agent reboot healing,
   visitor-list-miss invalidation, regional-agent crash failover (direct
   and via the standby), and grace-period forwarding pointers. *)

module Time = Netsim.Time
module Addr = Ipv4.Addr
module Lan = Net.Lan
module Node = Net.Node
module Topology = Net.Topology
module Agent = Mhrp.Agent
module TG = Workload.Topo_gen

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest
let addr_testable = Alcotest.testable Addr.pp Addr.equal
let hier_config = Mhrp.Config.make ~hierarchy:true ()

let setup ?(config = hier_config) () =
  TG.regions ~config ~regions:2 ~cells:2 ~mobiles_per_region:1
    ~correspondents:1 ()

(* M0 is homed in region 0 (home agent RR0) and visits region 1, whose
   regional agent is RR1. *)
let m0 rg = rg.TG.rg_mobiles.(0)
let home rg = rg.TG.rg_regionals.(0)
let regional rg = rg.TG.rg_regionals.(1)
let cell rg r c = rg.TG.rg_cells.(r).(c)
let fa_addr rg r c = Addr.Prefix.host (Lan.prefix (cell rg r c)) 1

let move rg sec lan =
  Workload.Mobility.move_at rg.TG.rg_topo (m0 rg) ~at:(Time.of_sec sec) lan

let run ?(until = 10.0) rg =
  Topology.run ~until:(Time.of_sec until) rg.TG.rg_topo

let ha_location rg =
  match Agent.home_agent (home rg) with
  | Some h -> Mhrp.Home_agent.location h (Agent.address (m0 rg))
  | None -> Alcotest.fail "RR0 should be a home agent"

let regional_state rg =
  match Agent.regional_agent (regional rg) with
  | Some ra -> ra
  | None -> Alcotest.fail "RR1 should be a regional agent"

let regional_binding rg =
  Mhrp.Regional.find (regional_state rg) (Agent.address (m0 rg))

let ha_registrations rg =
  (Agent.counters (home rg)).Mhrp.Counters.registrations

let tests =
  [ Alcotest.test_case "inter-region move registers the regional agent"
      `Quick (fun () ->
          let rg = setup () in
          move rg 1.0 (cell rg 1 0);
          run rg;
          check (Alcotest.option addr_testable)
            "home agent points at the regional agent"
            (Some (Agent.address (regional rg)))
            (ha_location rg);
          check (Alcotest.option addr_testable)
            "regional binding points at the serving FA"
            (Some (fa_addr rg 1 0))
            (regional_binding rg));
    Alcotest.test_case "intra-region handoff never reaches the home agent"
      `Quick (fun () ->
          let rg = setup () in
          move rg 1.0 (cell rg 1 0);
          move rg 3.0 (cell rg 1 1);
          run rg;
          check Alcotest.int "one home registration for both moves" 1
            (ha_registrations rg);
          check (Alcotest.option addr_testable)
            "home agent still points at the regional agent"
            (Some (Agent.address (regional rg)))
            (ha_location rg);
          check (Alcotest.option addr_testable)
            "regional binding rewritten to the new FA"
            (Some (fa_addr rg 1 1))
            (regional_binding rg);
          check Alcotest.int "two regional registrations" 2
            (Mhrp.Regional.registrations (regional_state rg)));
    Alcotest.test_case "data delivers through the regional re-tunnel"
      `Quick (fun () ->
          let rg = setup () in
          let metrics = Workload.Metrics.create rg.TG.rg_topo in
          let traffic =
            Workload.Traffic.create metrics (Topology.engine rg.TG.rg_topo)
          in
          Workload.Metrics.watch_receiver metrics (m0 rg);
          let dst = Agent.address (m0 rg) in
          move rg 1.0 (cell rg 1 0);
          Workload.Traffic.at traffic (Time.of_sec 2.0) (fun () ->
              Workload.Traffic.send_udp traffic ~src:rg.TG.rg_senders.(0)
                ~dst ());
          run rg;
          let r = List.nth (Workload.Metrics.records metrics) 0 in
          check Alcotest.bool "delivered" true
            (r.Workload.Metrics.delivered_at <> None);
          check Alcotest.bool "regional agent re-tunneled it" true
            ((Agent.counters (regional rg)).Mhrp.Counters.regional_retunnels
             >= 1));
    Alcotest.test_case "returning home withdraws the regional binding"
      `Quick (fun () ->
          let rg = setup () in
          move rg 1.0 (cell rg 1 0);
          move rg 3.0 rg.TG.rg_homes.(0);
          run rg;
          (match Agent.home_agent (home rg) with
           | Some h ->
             check Alcotest.bool "back home" false
               (Mhrp.Home_agent.is_away h (Agent.address (m0 rg)))
           | None -> Alcotest.fail "RR0 should be a home agent");
          check Alcotest.int "no regional bindings left" 0
            (Mhrp.Regional.size (regional_state rg));
          check Alcotest.int "one withdrawal counted" 1
            (Mhrp.Regional.withdrawals (regional_state rg)));
    Alcotest.test_case "flat mode ignores the provisioned hierarchy"
      `Quick (fun () ->
          let rg = setup ~config:Mhrp.Config.default () in
          move rg 1.0 (cell rg 1 0);
          run rg;
          check (Alcotest.option addr_testable)
            "home agent points straight at the FA"
            (Some (fa_addr rg 1 0))
            (ha_location rg);
          check Alcotest.int "regional table untouched" 0
            (Mhrp.Regional.size (regional_state rg)));
  ]

(* --- failure recovery ------------------------------------------------ *)

(* Short control timers so a dead regional agent is declared within a
   couple of simulated seconds: refresh every 1s, 3 retries at 100ms RTO. *)
let recovery_config ?regional_grace () =
  Mhrp.Config.make ~hierarchy:true ~reliable_control:true
    ~control_rto:(Time.of_ms 100) ~control_retries:3
    ~regional_lifetime:(Time.of_sec 60.0)
    ~regional_refresh:(Time.of_sec 1.0) ?regional_grace ()

let engine rg = Topology.engine rg.TG.rg_topo

let at rg sec f = ignore (Netsim.Engine.schedule (engine rg) ~at:(Time.of_sec sec) f)

let watch_delivery rg =
  let received = ref 0 in
  Agent.on_app_receive (m0 rg) (fun _ -> incr received);
  received

let send_to_m0 rg sec =
  at rg sec (fun () ->
      Agent.send rg.TG.rg_senders.(0)
        (Ipv4.Packet.make ~proto:Ipv4.Proto.udp
           ~src:(Agent.address rg.TG.rg_senders.(0))
           ~dst:(Agent.address (m0 rg))
           (Ipv4.Udp.encode
              (Ipv4.Udp.make ~src_port:4000 ~dst_port:4001
                 (Bytes.make 16 '\x5a')))))

(* Drop control datagrams the mobile addresses to [dst] once [on] — the
   targeted control-loss the fault injector applies probabilistically. *)
let drop_mobile_control rg ~dst on =
  Node.set_fault_filter
    (Agent.node (m0 rg))
    (Some
       (fun _ pkt ->
          not
            (!on
             && pkt.Ipv4.Packet.proto = Ipv4.Proto.udp
             && Addr.equal pkt.Ipv4.Packet.dst dst)))

let recovery_tests =
  [ Alcotest.test_case
      "FA reboot under hierarchy: probe re-adds the visitor, delivery \
       heals" `Quick (fun () ->
          let rg = setup () in
          let received = watch_delivery rg in
          move rg 1.0 (cell rg 1 0);
          let fa = rg.TG.rg_fas.(1).(0) in
          at rg 3.0 (fun () -> Node.reboot (Agent.node fa));
          (* the first packet finds the visitor list empty and triggers
             the probe; the second rides the re-added entry *)
          send_to_m0 rg 4.0;
          send_to_m0 rg 5.0;
          run rg;
          check Alcotest.bool "visitor re-added after probe" true
            ((Agent.counters fa).Mhrp.Counters.recoveries >= 1);
          check (Alcotest.option addr_testable)
            "regional binding still points at the healed FA"
            (Some (fa_addr rg 1 0))
            (regional_binding rg);
          check Alcotest.bool "delivery restored" true (!received >= 1));
    Alcotest.test_case
      "lost withdrawal: visitor-list-miss bounce drops the stale binding"
      `Quick (fun () ->
          let rg = setup () in
          let received = watch_delivery rg in
          let rr1 = Agent.address (regional rg) in
          let on = ref false in
          drop_mobile_control rg ~dst:rr1 on;
          move rg 1.0 (cell rg 1 0);
          at rg 2.5 (fun () -> on := true);
          (* going home: Reg_request and Fa_disconnect go through, the
             regional withdrawal is lost — pre-lifetime, the binding
             would stay forever *)
          move rg 3.0 rg.TG.rg_homes.(0);
          (* a correspondent with a stale cache tunnels into the region;
             the (now-bindingless) regional bounces it toward home *)
          at rg 5.0 (fun () ->
              Mhrp.Location_cache.insert
                (Agent.cache rg.TG.rg_senders.(0))
                ~mobile:(Agent.address (m0 rg)) ~foreign_agent:rr1);
          send_to_m0 rg 5.1;
          run rg;
          check Alcotest.int "the withdrawal really was lost" 0
            (Mhrp.Regional.withdrawals (regional_state rg));
          check Alcotest.int "binding invalidated by the miss bounce" 1
            (Mhrp.Regional.invalidations (regional_state rg));
          check (Alcotest.option addr_testable) "binding gone" None
            (regional_binding rg);
          check Alcotest.bool "packet still delivered (bounced home)" true
            (!received >= 1));
    Alcotest.test_case
      "unresponsive regional agent: mobile falls back to direct home \
       registration" `Quick (fun () ->
          let rg = setup ~config:(recovery_config ()) () in
          let received = watch_delivery rg in
          let rr1 = Agent.address (regional rg) in
          let on = ref false in
          drop_mobile_control rg ~dst:rr1 on;
          move rg 1.0 (cell rg 1 0);
          (* from 1.5 the regional agent never hears the mobile again;
             the 2.0s refresh exhausts its retries and gives up *)
          at rg 1.5 (fun () -> on := true);
          send_to_m0 rg 6.0;
          run rg;
          let c = Agent.counters (m0 rg) in
          check Alcotest.int "one failover" 1
            c.Mhrp.Counters.region_failovers;
          check Alcotest.int "refresh retried before giving up" 3
            c.Mhrp.Counters.region_retransmissions;
          check (Alcotest.option addr_testable)
            "home agent repointed straight at the FA"
            (Some (fa_addr rg 1 0))
            (ha_location rg);
          (match Agent.mobile (m0 rg) with
           | Some mh ->
             check Alcotest.bool "no regional anchor left" true
               (mh.Mhrp.Mobile_host.regional = None)
           | None -> Alcotest.fail "M0 should be mobile");
          check Alcotest.int "delivery restored through the direct path" 1
            !received);
    Alcotest.test_case
      "regional crash: advertised backup takes the region over" `Quick
      (fun () ->
          let rg =
            TG.regions ~config:(recovery_config ()) ~backups:true
              ~regions:2 ~cells:2 ~mobiles_per_region:1 ~correspondents:1
              ()
          in
          let received = watch_delivery rg in
          let backup = rg.TG.rg_backups.(1) in
          move rg 1.0 (cell rg 1 0);
          (* full router crash: with a standby wired in, transit survives
             (routes prefer RB1) and the failover re-anchors there *)
          at rg 2.5 (fun () ->
              Node.crash_for (Agent.node (regional rg)) (Time.of_sec 60.0));
          send_to_m0 rg 6.0;
          run rg;
          check Alcotest.int "one failover" 1
            (Agent.counters (m0 rg)).Mhrp.Counters.region_failovers;
          check (Alcotest.option addr_testable)
            "home agent repointed at the backup"
            (Some (Agent.address backup))
            (ha_location rg);
          (match Agent.regional_agent backup with
           | Some r ->
             check (Alcotest.option addr_testable)
               "backup holds the mirrored binding"
               (Some (fa_addr rg 1 0))
               (Mhrp.Regional.find r (Agent.address (m0 rg)));
             check Alcotest.bool
               "takeover refreshed the mirror instead of re-registering"
               true
               (Mhrp.Regional.refreshes r >= 1)
           | None -> Alcotest.fail "RB1 should be a regional agent");
          check Alcotest.int "delivery restored through the backup" 1
            !received);
    Alcotest.test_case
      "regional crash: backup captures the silent primary's address, then \
       releases it" `Quick (fun () ->
          let rg =
            TG.regions ~config:(recovery_config ()) ~backups:true
              ~regions:2 ~cells:2 ~mobiles_per_region:1 ~correspondents:1
              ()
          in
          let tr = Topology.trace rg.TG.rg_topo in
          Netsim.Trace.set_enabled tr true;
          move rg 1.0 (cell rg 1 0);
          at rg 2.5 (fun () ->
              Node.crash_for (Agent.node (regional rg)) (Time.of_sec 4.0));
          run rg;
          check Alcotest.int "one takeover" 1
            (Agent.counters rg.TG.rg_backups.(1)).Mhrp.Counters
              .region_takeovers;
          let rb1 =
            List.filter
              (fun (e : Netsim.Trace.event) -> e.node = "RB1")
              (Netsim.Trace.events tr)
          in
          let traced kind detail =
            List.filter
              (fun (e : Netsim.Trace.event) ->
                 e.kind = kind && e.detail = detail)
              rb1
          in
          let first kind detail =
            match traced kind detail with
            | e :: _ -> Time.to_us e.at
            | [] -> Alcotest.failf "RB1 never traced %s %S" kind detail
          in
          let peer what =
            Format.asprintf "peer %a %s" Addr.pp (Agent.address (regional rg))
              what
          in
          let capture =
            first "regional" (peer "unresponsive: capturing its address")
          in
          check Alcotest.int "captured once its syncs to RR1 gave up (us)"
            6_002_660 capture;
          check Alcotest.int "the sync exchange gave up at that instant"
            capture
            (first "ctrl-give-up" "control exchange abandoned");
          let release = peer "is back: releasing its address" in
          check Alcotest.int "released once the rebooted RR1 synced (us)"
            6_704_917 (first "regional" release);
          (* a claim not dropped would be "released" at every sync *)
          check Alcotest.int "released once" 1
            (List.length (traced "regional" release)));
    Alcotest.test_case
      "soft state: the sweep evicts an unrefreshed binding, armed once"
      `Quick (fun () ->
          let world ~twice =
            let config =
              Mhrp.Config.make ~hierarchy:true
                ~regional_lifetime:(Time.of_sec 4.0) ()
            in
            let rg = setup ~config () in
            if twice then Agent.enable_regional_agent (regional rg);
            let on = ref false in
            drop_mobile_control rg ~dst:(Agent.address (regional rg)) on;
            move rg 1.0 (cell rg 1 0);
            at rg 1.5 (fun () -> on := true);
            let expirations_at sec =
              let n = ref (-1) in
              at rg sec (fun () ->
                  n :=
                    (Agent.counters (regional rg)).Mhrp.Counters
                      .regional_expirations);
              n
            in
            let before = expirations_at 5.99 in
            let after = expirations_at 6.01 in
            run ~until:8.0 rg;
            (rg, !before, !after)
          in
          let rg, before, after = world ~twice:false in
          check Alcotest.int "still bound before the 6.0 s pass" 0 before;
          check Alcotest.int "evicted by the 6.0 s pass" 1 after;
          check (Alcotest.option addr_testable) "binding gone" None
            (regional_binding rg);
          let rg', _, _ = world ~twice:true in
          check Alcotest.int "a second enable arms no second sweep"
            (Netsim.Engine.events_processed (engine rg))
            (Netsim.Engine.events_processed (engine rg')));
    Alcotest.test_case
      "inter-region handoff leaves a forwarding pointer that expires"
      `Quick (fun () ->
          let rg =
            TG.regions ~config:hier_config ~regions:3 ~cells:2
              ~mobiles_per_region:1 ~correspondents:1 ()
          in
          let received = watch_delivery rg in
          let rr1 = Agent.address (regional rg) in
          let m0_addr = Agent.address (m0 rg) in
          let during = ref None and after = ref None in
          move rg 1.0 (cell rg 1 0);
          move rg 3.0 (cell rg 2 0);
          at rg 4.0 (fun () ->
              during :=
                Mhrp.Regional.forward (regional_state rg)
                  ~now:(Netsim.Engine.now (engine rg))
                  m0_addr;
              (* a stale cache still tunnels into the old region *)
              Mhrp.Location_cache.insert
                (Agent.cache rg.TG.rg_senders.(0))
                ~mobile:m0_addr ~foreign_agent:rr1);
          send_to_m0 rg 4.1;
          (* default grace is 2s: the pointer set at ~3.0 is gone by 7.0 *)
          at rg 7.0 (fun () ->
              after :=
                Mhrp.Regional.forward (regional_state rg)
                  ~now:(Netsim.Engine.now (engine rg))
                  m0_addr);
          run rg;
          check (Alcotest.option addr_testable)
            "pointer chases the mobile to its new regional agent"
            (Some (Agent.address rg.TG.rg_regionals.(2)))
            !during;
          check Alcotest.bool "old regional forwarded in-flight traffic"
            true
            ((Agent.counters (regional rg)).Mhrp.Counters.regional_forwards
             >= 1);
          check Alcotest.bool "forwarded packet delivered" true
            (!received >= 1);
          check (Alcotest.option addr_testable) "pointer expired" None
            !after;
          check Alcotest.int "expired pointer swept from the table" 0
            (Mhrp.Regional.forwards_size (regional_state rg)));
  ]

(* --- regional table units -------------------------------------------- *)

let unit_m = Addr.host 7 10
let unit_fa = Addr.host 8 1
let unit_fa2 = Addr.host 9 1

let raises f =
  match f () with _ -> false | exception Invalid_argument _ -> true

let regional_unit_tests =
  [ Alcotest.test_case "pure refresh counted apart from registrations"
      `Quick (fun () ->
          let r = Mhrp.Regional.create () in
          check Alcotest.bool "first write is fresh" true
            (Mhrp.Regional.register r ~mobile:unit_m ~foreign_agent:unit_fa
               ()
             = `Fresh);
          check Alcotest.bool "unchanged rewrite is a refresh" true
            (Mhrp.Regional.register r ~mobile:unit_m ~foreign_agent:unit_fa
               ()
             = `Refresh);
          check Alcotest.bool "moving the binding is fresh again" true
            (Mhrp.Regional.register r ~mobile:unit_m
               ~foreign_agent:unit_fa2 ()
             = `Fresh);
          check Alcotest.int "two registrations" 2
            (Mhrp.Regional.registrations r);
          check Alcotest.int "one refresh" 1 (Mhrp.Regional.refreshes r));
    Alcotest.test_case "expire evicts only lapsed lifetimes" `Quick
      (fun () ->
          let r = Mhrp.Regional.create () in
          ignore
            (Mhrp.Regional.register r ~expires_at:(Time.of_us 100)
               ~mobile:unit_m ~foreign_agent:unit_fa ());
          ignore
            (Mhrp.Regional.register r ~expires_at:(Time.of_us 300)
               ~mobile:unit_fa2 ~foreign_agent:unit_fa ());
          check
            (Alcotest.list (Alcotest.pair addr_testable addr_testable))
            "nothing lapsed yet" []
            (Mhrp.Regional.expire r ~now:(Time.of_us 99));
          check
            (Alcotest.list (Alcotest.pair addr_testable addr_testable))
            "first lifetime lapses alone"
            [(unit_m, unit_fa)]
            (Mhrp.Regional.expire r ~now:(Time.of_us 100));
          check Alcotest.int "one expiration counted" 1
            (Mhrp.Regional.expirations r);
          check Alcotest.int "survivor still bound" 1
            (Mhrp.Regional.size r));
    Alcotest.test_case "forwarding pointer lives exactly its grace" `Quick
      (fun () ->
          let r = Mhrp.Regional.create () in
          Mhrp.Regional.set_forward r ~mobile:unit_m ~new_regional:unit_fa2
            ~expires_at:(Time.of_us 100);
          check (Alcotest.option addr_testable) "live before expiry"
            (Some unit_fa2)
            (Mhrp.Regional.forward r ~now:(Time.of_us 99) unit_m);
          check (Alcotest.option addr_testable) "gone at expiry" None
            (Mhrp.Regional.forward r ~now:(Time.of_us 100) unit_m);
          check Alcotest.int "removed on lookup" 0
            (Mhrp.Regional.forwards_size r));
    Alcotest.test_case "Control refuses a lifetime beyond u16 seconds"
      `Quick (fun () ->
          let reg lifetime_s =
            Mhrp.Control.Reg_region
              { mobile = unit_m; foreign_agent = unit_fa; lifetime_s }
          and sync lifetime_s =
            Mhrp.Control.Region_sync
              { mobile = unit_m; foreign_agent = unit_fa; lifetime_s }
          in
          List.iter
            (fun (name, msg) ->
               check Alcotest.bool (name ^ ": 65,535 s round-trips") true
                 (Mhrp.Control.decode (Mhrp.Control.encode (msg 65_535))
                  = Some (msg 65_535));
               (* wrapped to 16 bits, 65,536 would read back as 0: a
                  binding that never expires *)
               check Alcotest.bool (name ^ ": 65,536 s raises") true
                 (raises (fun () -> Mhrp.Control.encode (msg 65_536)));
               check Alcotest.bool (name ^ ": -1 s raises") true
                 (raises (fun () -> Mhrp.Control.encode (msg (-1)))))
            [ ("Reg_region", reg); ("Region_sync", sync) ]);
    Alcotest.test_case "Config.make refuses a regional lifetime over 65,535 s"
      `Quick (fun () ->
          let make s =
            Mhrp.Config.make ~regional_lifetime:(Time.of_sec s) ()
          in
          check Alcotest.bool "65,535 s accepted" false
            (raises (fun () -> make 65_535.0));
          check Alcotest.bool "65,536 s refused" true
            (raises (fun () -> make 65_536.0));
          (* the wire value is whole seconds rounded up *)
          check Alcotest.bool "65,535.5 s refused" true
            (raises (fun () -> make 65_535.5)));
    qtest
      (QCheck.Test.make
         ~name:"expiry never evicts a live refreshing binding"
         QCheck.(small_list (int_bound 99))
         (fun deltas ->
            let lifetime = 100 in
            let r = Mhrp.Regional.create () in
            let clock = ref 0 in
            let refresh () =
              ignore
                (Mhrp.Regional.register r
                   ~expires_at:(Time.of_us (!clock + lifetime))
                   ~mobile:unit_m ~foreign_agent:unit_fa ())
            in
            refresh ();
            (* a decoy that never refreshes may lapse; the live one
               must not *)
            ignore
              (Mhrp.Regional.register r
                 ~expires_at:(Time.of_us lifetime) ~mobile:unit_fa2
                 ~foreign_agent:unit_fa ());
            List.for_all
              (fun d ->
                 clock := !clock + d;
                 let evicted = Mhrp.Regional.expire r ~now:(Time.of_us !clock) in
                 refresh ();
                 (not (List.mem_assoc unit_m evicted))
                 && Mhrp.Regional.find r unit_m = Some unit_fa)
              deltas))
  ]

let suite =
  [ ("hierarchy", tests);
    ("hierarchy.recovery", recovery_tests);
    ("hierarchy.regional", regional_unit_tests) ]
