(* Integration tests of the MHRP protocol engine on the Figure 1
   internetwork: the Section 6 worked examples, registration, discovery,
   cache maintenance. *)

module Time = Netsim.Time
module Addr = Ipv4.Addr
module Packet = Ipv4.Packet
module Node = Net.Node
module Topology = Net.Topology
module Agent = Mhrp.Agent
module TG = Workload.Topo_gen

let check = Alcotest.check
let addr_testable = Alcotest.testable Addr.pp Addr.equal

type env = {
  f : TG.figure1;
  metrics : Workload.Metrics.t;
  traffic : Workload.Traffic.t;
  m_addr : Addr.t;
}

let setup ?config ?snoop_routers () =
  let f = TG.figure1 ?config ?snoop_routers () in
  let metrics = Workload.Metrics.create f.TG.topo in
  let traffic =
    Workload.Traffic.create metrics (Topology.engine f.TG.topo)
  in
  Workload.Metrics.watch_receiver metrics f.TG.m;
  Workload.Metrics.watch_receiver metrics f.TG.s;
  { f; metrics; traffic; m_addr = Agent.address f.TG.m }

let at env sec f =
  Workload.Traffic.at env.traffic (Time.of_sec sec) f

let send env sec ~src =
  at env sec (fun () ->
      Workload.Traffic.send_udp env.traffic ~src ~dst:env.m_addr ())

let move env sec lan =
  Workload.Mobility.move_at env.f.TG.topo env.f.TG.m ~at:(Time.of_sec sec)
    lan

let run ?(until = 10.0) env =
  Topology.run ~until:(Time.of_sec until) env.f.TG.topo

let records env = Workload.Metrics.records env.metrics
let nth_record env n = List.nth (records env) n

let delivered r = r.Workload.Metrics.delivered_at <> None

let overhead r =
  r.Workload.Metrics.max_bytes - r.Workload.Metrics.sent_bytes

let mobile_phase env =
  match Agent.mobile env.f.TG.m with
  | Some mh -> mh.Mhrp.Mobile_host.phase
  | None -> Alcotest.fail "M is not mobile"

let basic_tests =
  [ Alcotest.test_case "at home: zero overhead, plain routing (E9)" `Quick
      (fun () ->
         let env = setup () in
         send env 0.1 ~src:env.f.TG.s;
         run env;
         let r = nth_record env 0 in
         check Alcotest.bool "delivered" true (delivered r);
         check Alcotest.int "no added bytes" 0 (overhead r);
         check Alcotest.int "S->R1->R2->M is 3 LAN hops" 3
           r.Workload.Metrics.hops;
         check Alcotest.int "no tunnels anywhere" 0
           ((Agent.counters env.f.TG.r2).Mhrp.Counters.tunnels_built));
    Alcotest.test_case "leaving home during the gratuitous-ARP burst"
      `Quick (fun () ->
          (* Back home, M re-announces its address three times, 100 ms
             apart; moving on 50 ms later retires the interface the
             burst was using. *)
          let env = setup () in
          let registered = ref [] in
          Agent.on_registered env.f.TG.m (fun fa ->
              registered := fa :: !registered);
          move env 1.0 env.f.TG.net_d;
          move env 2.0 env.f.TG.net_b;
          move env 2.05 env.f.TG.net_d;
          run env;
          let r4 = Addr.host 4 1 in
          check (Alcotest.list addr_testable) "away, home, away"
            [r4; Addr.zero; r4] (List.rev !registered);
          check Alcotest.bool "registered with R4" true
            (mobile_phase env = Mhrp.Mobile_host.Registered r4));
    Alcotest.test_case "registration sequence after a move (Section 3)"
      `Quick (fun () ->
          let env = setup () in
          let registered = ref [] in
          Agent.on_registered env.f.TG.m (fun fa ->
              registered := fa :: !registered);
          move env 1.0 env.f.TG.net_d;
          run env;
          check (Alcotest.list addr_testable) "registered with R4"
            [Addr.host 4 1] !registered;
          (match Agent.foreign_agent env.f.TG.r4 with
           | Some fa ->
             check Alcotest.bool "visitor listed" true
               (Mhrp.Foreign_agent.mem fa env.m_addr)
           | None -> Alcotest.fail "R4 should be a foreign agent");
          match Agent.home_agent env.f.TG.r2 with
          | Some ha ->
            check (Alcotest.option addr_testable) "HA database"
              (Some (Addr.host 4 1))
              (Mhrp.Home_agent.location ha env.m_addr)
          | None -> Alcotest.fail "R2 should be a home agent");
    Alcotest.test_case
      "first packet triangles via home agent with 12-byte overhead (6.1)"
      `Quick (fun () ->
          let env = setup () in
          move env 1.0 env.f.TG.net_d;
          send env 2.0 ~src:env.f.TG.s;
          run env;
          let r = nth_record env 0 in
          check Alcotest.bool "delivered" true (delivered r);
          check Alcotest.int "agent-built overhead" 12 (overhead r);
          check Alcotest.int "triangle: 5 LAN hops" 5
            r.Workload.Metrics.hops;
          check Alcotest.int "intercepted once" 1
            (Agent.counters env.f.TG.r2).Mhrp.Counters.intercepts);
    Alcotest.test_case
      "subsequent packets tunnel direct with 8-byte overhead (6.2)" `Quick
      (fun () ->
         let env = setup () in
         move env 1.0 env.f.TG.net_d;
         send env 2.0 ~src:env.f.TG.s;
         send env 3.0 ~src:env.f.TG.s;
         run env;
         let r = nth_record env 1 in
         check Alcotest.int "sender-built overhead" 8 (overhead r);
         check Alcotest.int "direct path: 4 LAN hops" 4
           r.Workload.Metrics.hops;
         check Alcotest.int "S tunneled it" 1
           (Agent.counters env.f.TG.s).Mhrp.Counters.tunnels_built;
         (* HA untouched the second time *)
         check Alcotest.int "one intercept only" 1
           (Agent.counters env.f.TG.r2).Mhrp.Counters.intercepts);
    Alcotest.test_case "location update populates the sender cache (4.3)"
      `Quick (fun () ->
          let env = setup () in
          let updates = ref [] in
          Agent.on_location_update env.f.TG.s
            (fun ~mobile ~foreign_agent ->
               updates := (mobile, foreign_agent) :: !updates);
          move env 1.0 env.f.TG.net_d;
          send env 2.0 ~src:env.f.TG.s;
          run env;
          check Alcotest.bool "cache entry" true
            (Mhrp.Location_cache.peek (Agent.cache env.f.TG.s) env.m_addr
             = Some (Addr.host 4 1));
          check Alcotest.bool "update received" true
            (List.exists
               (fun (m, fa) ->
                  Addr.equal m env.m_addr && Addr.equal fa (Addr.host 4 1))
               !updates));
    Alcotest.test_case
      "movement to a second cell: stale tunnel chases, caches heal (6.3)"
      `Quick (fun () ->
          (* add a second wireless cell E behind R3 *)
          let env = setup () in
          let net_e =
            Topology.add_lan env.f.TG.topo ~net:5 "netE"
          in
          let r5n =
            Topology.add_router env.f.TG.topo "R5"
              [(env.f.TG.net_c, 3); (net_e, 1)]
          in
          Topology.compute_routes env.f.TG.topo;
          let r5 = Agent.create r5n in
          Agent.enable_foreign_agent r5
            ~iface:(match Node.iface_to r5n (Net.Lan.prefix net_e) with
                | Some i -> i
                | None -> Alcotest.fail "iface");
          move env 1.0 env.f.TG.net_d;
          send env 2.0 ~src:env.f.TG.s; (* caches R4 *)
          move env 3.0 net_e;
          send env 4.0 ~src:env.f.TG.s; (* stale: S -> R4 -> ... -> M *)
          send env 5.0 ~src:env.f.TG.s; (* healed: direct to R5 *)
          run env;
          let r1 = nth_record env 1 and r2 = nth_record env 2 in
          check Alcotest.bool "stale packet still delivered" true
            (delivered r1);
          check Alcotest.bool "healed packet delivered" true (delivered r2);
          check Alcotest.bool "stale path longer" true
            (r1.Workload.Metrics.hops > r2.Workload.Metrics.hops);
          check (Alcotest.option addr_testable) "S now points at R5"
            (Some (Addr.host 5 1))
            (Mhrp.Location_cache.peek (Agent.cache env.f.TG.s) env.m_addr));
    Alcotest.test_case
      "forwarding pointer at the old FA shortcuts the chase (Section 2)"
      `Quick (fun () ->
          let env = setup () in
          let net_e = Topology.add_lan env.f.TG.topo ~net:5 "netE" in
          let r5n =
            Topology.add_router env.f.TG.topo "R5"
              [(env.f.TG.net_c, 3); (net_e, 1)]
          in
          Topology.compute_routes env.f.TG.topo;
          let r5 = Agent.create r5n in
          Agent.enable_foreign_agent r5
            ~iface:(Option.get (Node.iface_to r5n (Net.Lan.prefix net_e)));
          move env 1.0 env.f.TG.net_d;
          send env 2.0 ~src:env.f.TG.s;
          move env 3.0 net_e;
          send env 4.0 ~src:env.f.TG.s;
          run env;
          (* the old FA kept a pointer and re-tunneled directly: the home
             agent never saw the bounced packet *)
          check Alcotest.bool "old FA cached new location" true
            (Mhrp.Location_cache.peek (Agent.cache env.f.TG.r4) env.m_addr
             = Some (Addr.host 5 1));
          check Alcotest.int "R4 re-tunneled" 1
            (Agent.counters env.f.TG.r4).Mhrp.Counters.retunnels;
          check Alcotest.int "home agent bypassed" 1
            (Agent.counters env.f.TG.r2).Mhrp.Counters.intercepts);
    Alcotest.test_case
      "return home: stale tunnel reaches M, caches deleted, plain again (6.3)"
      `Quick (fun () ->
          let env = setup () in
          move env 1.0 env.f.TG.net_d;
          send env 2.0 ~src:env.f.TG.s;
          move env 3.0 env.f.TG.net_b;
          send env 4.0 ~src:env.f.TG.s; (* chased home *)
          send env 5.0 ~src:env.f.TG.s; (* plain *)
          run env;
          check Alcotest.bool "all delivered" true
            (List.for_all delivered (records env));
          check Alcotest.bool "at home" true
            (mobile_phase env = Mhrp.Mobile_host.At_home);
          check Alcotest.int "S cache emptied" 0
            (Mhrp.Location_cache.size (Agent.cache env.f.TG.s));
          let last = nth_record env 2 in
          check Alcotest.int "no overhead after return" 0 (overhead last);
          check Alcotest.int "3 hops again" 3 last.Workload.Metrics.hops);
    Alcotest.test_case "mobile host's own traffic flows out normally"
      `Quick (fun () ->
          let env = setup () in
          move env 1.0 env.f.TG.net_d;
          at env 2.0 (fun () ->
              Workload.Traffic.send_udp env.traffic ~src:env.f.TG.m
                ~dst:(Agent.address env.f.TG.s) ());
          run env;
          let r = nth_record env 0 in
          check Alcotest.bool "delivered to S" true (delivered r);
          check Alcotest.int "no tunneling outbound" 0 (overhead r));
    Alcotest.test_case "echo request to visiting mobile host is answered"
      `Quick (fun () ->
          let env = setup () in
          let replies = ref 0 in
          Agent.on_app_receive env.f.TG.s (fun pkt ->
              match Ipv4.Icmp.decode_opt pkt.Packet.payload with
              | Some (Ipv4.Icmp.Echo_reply _) -> incr replies
              | _ -> ());
          move env 1.0 env.f.TG.net_d;
          at env 2.0 (fun () ->
              Agent.send_ping env.f.TG.s ~id:9 ~dst:env.m_addr ());
          run env;
          check Alcotest.int "pong" 1 !replies);
    Alcotest.test_case "snooping router tunnels for non-MHRP hosts (6.2)"
      `Quick (fun () ->
          (* a plain host P on network A, no MHRP stack; R1 snoops and
             caches, then tunnels P's packets *)
          let env = setup () in
          let pn =
            Topology.add_host env.f.TG.topo "P" env.f.TG.net_a 11
          in
          Topology.compute_routes env.f.TG.topo;
          move env 1.0 env.f.TG.net_d;
          (* S's first packet makes R2 send a location update to S;
             R1 forwards that update and snoops it *)
          send env 2.0 ~src:env.f.TG.s;
          let got = ref 0 in
          Node.set_proto_handler pn Ipv4.Proto.udp (fun _ _ -> incr got);
          at env 3.0 (fun () ->
              let udp =
                Ipv4.Udp.make ~src_port:1 ~dst_port:2 (Bytes.create 32)
              in
              Node.send pn
                (Packet.make ~id:500 ~proto:Ipv4.Proto.udp
                   ~src:(Node.primary_addr pn) ~dst:env.m_addr
                   (Ipv4.Udp.encode udp)));
          run env;
          check Alcotest.bool "R1 learned the location" true
            (Mhrp.Location_cache.peek (Agent.cache env.f.TG.r1) env.m_addr
             <> None);
          check Alcotest.int "R1 tunneled for the plain host" 1
            (Agent.counters env.f.TG.r1).Mhrp.Counters.tunnels_built);
    Alcotest.test_case "non-MHRP hosts silently ignore location updates"
      `Quick (fun () ->
          let env = setup ~snoop_routers:false () in
          let pn =
            Topology.add_host env.f.TG.topo "P" env.f.TG.net_a 11
          in
          Topology.compute_routes env.f.TG.topo;
          move env 1.0 env.f.TG.net_d;
          let got = ref 0 in
          Node.set_proto_handler pn Ipv4.Proto.udp (fun _ _ -> incr got);
          at env 2.0 (fun () ->
              let udp =
                Ipv4.Udp.make ~src_port:1 ~dst_port:2 (Bytes.create 32)
              in
              Node.send pn
                (Packet.make ~id:501 ~proto:Ipv4.Proto.udp
                   ~src:(Node.primary_addr pn) ~dst:env.m_addr
                   (Ipv4.Udp.encode udp)));
          run env;
          (* P's packet triangles via the home agent every time, and the
             location updates R2 sends are dropped by P without error *)
          check Alcotest.int "delivered via HA" 1
            (Agent.counters env.f.TG.r2).Mhrp.Counters.intercepts;
          check Alcotest.int "P not crashed, no reply traffic" 0 !got);
    Alcotest.test_case "rate limiter caps repeated updates (4.3)" `Quick
      (fun () ->
         let env = setup () in
         move env 1.0 env.f.TG.net_d;
         (* burst of packets via the HA from a non-caching sender would
            trigger an update per packet; sender S caches after the first,
            so target the limiter directly instead *)
         at env 2.0 (fun () ->
             for _ = 1 to 5 do
               Agent.send_location_update env.f.TG.r2
                 ~dst:(Agent.address env.f.TG.s) ~mobile:env.m_addr
                 ~foreign_agent:(Addr.host 4 1)
             done);
         run env;
         check Alcotest.int "only one sent" 1
           (Mhrp.Rate_limiter.allowed (Agent.limiter env.f.TG.r2));
         check Alcotest.int "rest suppressed" 4
           (Mhrp.Rate_limiter.suppressed (Agent.limiter env.f.TG.r2)));
    Alcotest.test_case "explicit disconnect yields host-unreachable"
      `Quick (fun () ->
          let env = setup () in
          let errors = ref 0 in
          Agent.on_icmp_error env.f.TG.s (fun msg _ ->
              match msg with
              | Ipv4.Icmp.Dest_unreachable _ -> incr errors
              | _ -> ());
          move env 1.0 env.f.TG.net_d;
          at env 2.0 (fun () -> Agent.disconnect env.f.TG.m);
          send env 3.0 ~src:env.f.TG.s;
          run env;
          let r = nth_record env 0 in
          check Alcotest.bool "not delivered" true (not (delivered r));
          check Alcotest.int "sender told" 1 !errors);
    Alcotest.test_case
      "a recovered visitor's host route is added once (5.2)" `Quick
      (fun () ->
         (* R4 reboots, the home agent's update re-adds M without a MAC,
            and R4 delivers through a host route: rebuilding the table
            per packet would drop its compiled lookup every time *)
         let env = setup () in
         let r4 = Agent.node env.f.TG.r4 in
         move env 1.0 env.f.TG.net_d;
         send env 2.0 ~src:env.f.TG.s;
         at env 3.0 (fun () -> Node.reboot r4);
         send env 4.0 ~src:env.f.TG.s;  (* bounced: recovery *)
         send env 5.0 ~src:env.f.TG.s;  (* the host route is added *)
         let table = ref (Node.routes r4) in
         at env 5.5 (fun () -> table := Node.routes r4);
         for i = 1 to 9 do
           send env (5.5 +. (0.1 *. float_of_int i)) ~src:env.f.TG.s
         done;
         run env;
         check Alcotest.int "recovered" 1
           (Agent.counters env.f.TG.r4).Mhrp.Counters.recoveries;
         check Alcotest.int "all ten delivered after recovery" 10
           (List.length
              (List.filter delivered (List.filteri (fun i _ -> i >= 2)
                                        (records env))));
         check Alcotest.bool "host route present" true
           (Net.Route.host_target (Node.routes r4) env.m_addr <> None);
         check Alcotest.bool "table untouched after the first" true
           (Node.routes r4 == !table));
    Alcotest.test_case
      "a tunneled packet with an IP option reaches the visiting mobile"
      `Quick (fun () ->
          (* S source-routes a datagram for M through R1; R1 sees the
             route completed and M's home agent intercepts it.  The
             tunnel and its exit keep the option, through the record
             functions *)
          let env = setup ~snoop_routers:false () in
          move env 1.0 env.f.TG.net_d;
          let got = ref [] in
          Agent.on_app_receive env.f.TG.m (fun pkt -> got := pkt :: !got);
          let r1 = Addr.host 1 1 in
          at env 2.0 (fun () ->
              Node.send (Agent.node env.f.TG.s)
                (Packet.make ~id:42 ~proto:Ipv4.Proto.udp
                   ~options:[Ipv4.Ip_option.lsrr [env.m_addr]]
                   ~src:(Agent.address env.f.TG.s) ~dst:r1
                   (Ipv4.Udp.encode
                      (Ipv4.Udp.make ~src_port:1 ~dst_port:2
                         (Bytes.make 40 'o')))));
          run env;
          check Alcotest.int "intercepted" 1
            (Agent.counters env.f.TG.r2).Mhrp.Counters.intercepts;
          match !got with
          | [ pkt ] ->
            check Alcotest.int "id" 42 pkt.Packet.id;
            check Alcotest.bool "option kept" true (Packet.has_options pkt);
            check addr_testable "to M" env.m_addr pkt.Packet.dst
          | l -> Alcotest.failf "M got %d packets" (List.length l)) ]

(* --- allocation: sending on a location-cache hit --- *)

(* A sender-built tunnel of a 1 KiB datagram from S to M, sent to R4
   on net C twice, half a second apart: the words the second costs from
   its frame's arrival to the end of R4's handling (the first times the
   arrival), and the datagram's wire length. *)
let r4_tunnel_words f =
  let topo = f.TG.topo in
  let original =
    Packet.make ~proto:Ipv4.Proto.udp ~src:(Agent.address f.TG.s)
      ~dst:(Agent.address f.TG.m)
      (Ipv4.Udp.encode
         (Ipv4.Udp.make ~src_port:1 ~dst_port:2 (Bytes.make 1024 'x')))
  in
  let wire =
    Packet.encode
      (Mhrp.Encap.tunnel_by_sender ~foreign_agent:(Addr.host 4 1) original)
  in
  let r4 = Agent.node f.TG.r4 in
  let r4_mac =
    Node.iface_mac r4
      (Option.get (Node.iface_to r4 (Net.Lan.prefix f.TG.net_c)))
  in
  let injector = Net.Mac.of_int 999 in
  let arrival = ref Time.zero in
  Net.Lan.add_monitor f.TG.net_c (fun fr ->
      if Net.Mac.equal fr.Net.Frame.src injector then
        arrival := Topology.now topo);
  let tunnel_in () =
    let sent = Topology.now topo in
    Net.Lan.send f.TG.net_c
      (Net.Frame.ip ~src:injector ~dst:r4_mac (Bytes.copy wire));
    sent
  in
  let half_second_after sent =
    Topology.run ~until:(Time.add sent (Time.of_ms 500)) topo
  in
  let sent = tunnel_in () in
  half_second_after sent;
  let delay = Time.diff !arrival sent in
  let sent = tunnel_in () in
  let w0 = Gc.minor_words () in
  Topology.run ~until:(Time.add sent delay) topo;
  let words = Gc.minor_words () -. w0 in
  half_second_after sent;
  (words, Packet.total_length original)

let alloc_tests =
  [ Alcotest.test_case "untraced send_udp on a cache hit: <= 20 words"
      `Quick (fun () ->
        (* The sender-built tunnel traces its decision, and the node
           its transmission; with the trace off neither may cost
           anything.  An unguarded [tracef] still builds a closure per
           conversion of its format: 30 words per send for these two
           events, where rendering the detail would cost ~500.  The
           datagram is written straight into the tunnel's buffer, its
           header from the fields: a UDP record, its encoding and a
           packet record around it cost 19 words more, and a packet
           record behind the header, its copy for the tunnel and two
           boxed options 28. *)
        let f = TG.figure1 () in
        let topo = f.TG.topo in
        let dst = Agent.address f.TG.m in
        let prime () =
          Mhrp.Location_cache.update (Agent.cache f.TG.s) ~mobile:dst
            ~foreign_agent:(Agent.address f.TG.r4)
        in
        let data = Bytes.make 64 'x' in
        let n = 500 in
        let burst () =
          for _ = 1 to n do
            Agent.send_udp f.TG.s ~dst data
          done
        in
        (* the first burst grows the event queue to the burst's depth;
           its replies from the foreign agent flush the cache entry *)
        prime ();
        burst ();
        Topology.run ~until:(Time.of_sec 1.0) topo;
        prime ();
        let hits = Mhrp.Location_cache.hits (Agent.cache f.TG.s) in
        let w0 = Gc.minor_words () in
        burst ();
        let per_call = (Gc.minor_words () -. w0) /. float_of_int n in
        check Alcotest.int "every send hit the cache" (hits + n)
          (Mhrp.Location_cache.hits (Agent.cache f.TG.s));
        check Alcotest.bool
          (Printf.sprintf "%.0f words per send" per_call)
          true (per_call <= 20.0));
    Alcotest.test_case "an ignored advertisement: <= 8 words per receiver"
      `Quick (fun () ->
        (* Every station on the LAN receives an agent advertisement, and
           only a mobile host heeds one: the rest must skip it on the
           received bytes.  Decoding it into records costs ~50 words per
           receiver.  The slope between two LAN sizes leaves out the
           sender's fixed cost. *)
        let advert_words k =
          let topo = Topology.create () in
          let lan = Topology.add_lan topo ~net:1 "lan" in
          let agents =
            List.init k (fun i ->
                let r =
                  Topology.add_router topo (Printf.sprintf "R%d" i)
                    [(lan, i + 1)]
                in
                let a = Agent.create ~snoop:true r in
                Agent.enable_home_agent a;
                a)
          in
          let sender = List.hd agents in
          let advert_at sec =
            Agent.broadcast_advert sender;
            Topology.run ~until:(Time.of_sec sec) topo
          in
          (* the first advertisement builds the LAN's station order *)
          advert_at 1.0;
          let w0 = Gc.minor_words () in
          advert_at 2.0;
          Gc.minor_words () -. w0
        in
        let per_receiver = (advert_words 32 -. advert_words 8) /. 24.0 in
        check Alcotest.bool
          (Printf.sprintf "%.1f words per receiver" per_receiver)
          true (per_receiver <= 8.0));
    Alcotest.test_case "an untraced Figure-1 handoff: <= 380 words"
      `Quick (fun () ->
        (* The alloc experiment's handoff loop, shorter: M ping-pongs
           between R4's cell and home under a reliable control plane,
           each move a full solicitation, advertisement, connect and
           registration.  Every trace event on the way is guarded by
           [Node.tracing]; unguarded, their formats cost ~200 words more
           per handoff.  Compiling the mobile's new route table, sorting
           the cell's stations, scheduling closures and encoding each
           message into intermediate buffers cost ~450 more, and a
           packet record behind each originated header and a closure
           behind each retransmission-timer arm ~90 more. *)
        let f =
          TG.figure1 ~config:(Mhrp.Config.make ~reliable_control:true ()) ()
        in
        let topo = f.TG.topo in
        let completed = ref 0 in
        Agent.on_registered f.TG.m (fun _ -> incr completed);
        let moves ~from_ms n =
          for k = 0 to n - 1 do
            Workload.Mobility.move_at topo f.TG.m
              ~at:(Time.of_ms (from_ms + (k * 200)))
              (if k mod 2 = 0 then f.TG.net_d else f.TG.net_b)
          done
        in
        (* two untimed moves warm the ARP caches and the event queue *)
        moves ~from_ms:1000 2;
        Topology.run ~until:(Time.of_sec 2.0) topo;
        let warm = !completed in
        let n = 40 in
        moves ~from_ms:2000 n;
        let w0 = Gc.minor_words () in
        Topology.run ~until:(Time.of_ms (3000 + (n * 200))) topo;
        let words = Gc.minor_words () -. w0 in
        check Alcotest.int "every move completed" n (!completed - warm);
        let per_handoff = words /. float_of_int n in
        check Alcotest.bool
          (Printf.sprintf "%.1f words per handoff" per_handoff)
          true (per_handoff <= 380.0));
    Alcotest.test_case "an untraced send_control: <= 8 words" `Quick
      (fun () ->
        (* A registration request from M to its home agent: one packet
           buffer, its header written from the fields and the datagram
           and message written into it.  Encoding the header from a
           packet record costs 12 words more, and encoding the message,
           a UDP record, the datagram and the packet each on its own
           27. *)
        let f = TG.figure1 () in
        let m = f.TG.m in
        let ha = Agent.address f.TG.r2 in
        let msg =
          Mhrp.Control.Reg_request
            { mobile = Agent.address m; foreign_agent = Addr.host 4 1 }
        in
        let n = 500 in
        let burst () =
          for _ = 1 to n do
            Agent.send_control m ~dst:ha msg
          done
        in
        (* the first burst grows the event queue to the burst's depth *)
        burst ();
        Topology.run ~until:(Time.of_sec 1.0) f.TG.topo;
        let w0 = Gc.minor_words () in
        burst ();
        let per_call = (Gc.minor_words () -. w0) /. float_of_int n in
        check Alcotest.bool
          (Printf.sprintf "%.1f words per send_control" per_call)
          true (per_call <= 8.0));
    Alcotest.test_case
      "a tunnel exit allocates at most its output buffer plus 24 words"
      `Quick (fun () ->
        (* R4's exit of a sender-built tunnel carrying 1 KiB, from the
           frame's arrival to the scheduled last hop: the header is read
           in place and the transport copied once, into the output
           buffer.  Decoding into records copies it four times, about
           530 words more. *)
        let f = TG.figure1 () in
        Workload.Mobility.move_at f.TG.topo f.TG.m ~at:(Time.of_sec 0.5)
          f.TG.net_d;
        Topology.run ~until:(Time.of_sec 2.0) f.TG.topo;
        let received = ref 0 in
        Agent.on_app_receive f.TG.m (fun _ -> incr received);
        let words, len = r4_tunnel_words f in
        check Alcotest.int "both exits delivered" 2 !received;
        let output = (len / 8) + 2 in
        check Alcotest.bool
          (Printf.sprintf "%.0f words, output buffer %d" words output)
          true (words <= float_of_int (output + 24)));
    Alcotest.test_case
      "a stale foreign agent's re-tunnel allocates its output buffer plus \
       10 words"
      `Quick (fun () ->
        (* M visits R4's cell and comes home; S's cache still names R4.
           R4 re-tunnels S's packet toward M's home address (Section
           4.4), its MHRP header grown by one list entry: from the
           frame's arrival to the scheduled forward it allocates the
           output buffer, the header it decoded in place (6 words) and
           the verdict around the buffer (2); the run's own [~until]
           option is 2 more.  A closure for the regional dispatch's
           fallback cost 7 words more. *)
        let f = TG.figure1 () in
        let topo = f.TG.topo in
        Workload.Mobility.move_at topo f.TG.m ~at:(Time.of_sec 0.5)
          f.TG.net_d;
        Workload.Mobility.move_at topo f.TG.m ~at:(Time.of_sec 2.0)
          f.TG.net_b;
        Topology.run ~until:(Time.of_sec 3.0) topo;
        let received = ref 0 in
        Agent.on_app_receive f.TG.m (fun _ -> incr received);
        let retunnels () = (Agent.counters f.TG.r4).Mhrp.Counters.retunnels in
        let before = retunnels () in
        let words, len = r4_tunnel_words f in
        check Alcotest.int "both re-tunneled" (before + 2) (retunnels ());
        check Alcotest.int "both delivered at home" 2 !received;
        let output = ((len + 12) / 8) + 2 in
        check Alcotest.bool
          (Printf.sprintf "%.0f words, output buffer %d" words output)
          true (words <= float_of_int (output + 10))) ]

let suite =
  [ ("agent-figure1", basic_tests); ("agent-alloc", alloc_tests) ]
