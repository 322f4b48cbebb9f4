(* Tests for the five Section 7 comparison protocols: correct delivery on
   the shared substrate, exact per-packet overheads, and their
   characteristic staleness behaviours. *)

module Time = Netsim.Time
module Node = Net.Node
module Packet = Ipv4.Packet
module Addr = Ipv4.Addr
module TG = Workload.Topo_gen

let check = Alcotest.check

let mk_pkt ?(id = 1) ?(size = 64) ~src ~dst () =
  let udp = Ipv4.Udp.make ~src_port:4000 ~dst_port:4000 (Bytes.create size) in
  Packet.make ~id ~proto:Ipv4.Proto.udp ~src:(Node.primary_addr src) ~dst
    (Ipv4.Udp.encode udp)

let schedule p at f =
  ignore
    (Netsim.Engine.schedule (Net.Topology.engine p.TG.p_topo)
       ~at:(Time.of_sec at) f)

let run ?(until = 20.0) p =
  Net.Topology.run ~until:(Time.of_sec until) p.TG.p_topo

(* --- encapsulation codecs --- *)

let sample () =
  Packet.make ~id:9 ~proto:Ipv4.Proto.udp ~src:(Addr.host 1 10)
    ~dst:(Addr.host 2 10)
    (Ipv4.Udp.encode (Ipv4.Udp.make ~src_port:1 ~dst_port:2 (Bytes.create 64)))

let codec_tests =
  [ Alcotest.test_case "ipip adds exactly 24 bytes and roundtrips" `Quick
      (fun () ->
         let pkt = sample () in
         let e =
           Baselines.Ipip.encap ~outer_src:(Addr.host 3 1)
             ~outer_dst:(Addr.host 4 1) pkt
         in
         check Alcotest.int "overhead" Baselines.Ipip.overhead
           (Packet.total_length e - Packet.total_length pkt);
         check Alcotest.int "24" 24 Baselines.Ipip.overhead;
         match Baselines.Ipip.decap e with
         | Some inner ->
           check Alcotest.bool "identical" true
             (Packet.encode inner = Packet.encode pkt)
         | None -> Alcotest.fail "decap failed");
    Alcotest.test_case "vip header adds exactly 28 bytes and roundtrips"
      `Quick (fun () ->
          let pkt = sample () in
          let h =
            { Baselines.Viph.vip_src = Addr.host 1 10;
              vip_dst = Addr.host 2 10; hop_count = 3; timestamp = 77 }
          in
          let e = Baselines.Viph.add h pkt in
          check Alcotest.int "overhead" 28
            (Packet.total_length e - Packet.total_length pkt);
          match Baselines.Viph.strip e with
          | Some (h', inner) ->
            check Alcotest.bool "vip fields" true
              (Addr.equal h'.Baselines.Viph.vip_src (Addr.host 1 10)
               && h'.Baselines.Viph.timestamp = 77);
            check Alcotest.int "proto restored" Ipv4.Proto.udp
              inner.Packet.proto;
            check Alcotest.string "payload"
              (Bytes.to_string pkt.Packet.payload)
              (Bytes.to_string inner.Packet.payload)
          | None -> Alcotest.fail "strip failed");
    Alcotest.test_case "iptp adds exactly 40 bytes and roundtrips" `Quick
      (fun () ->
         let pkt = sample () in
         let e =
           Baselines.Iptp.encap ~outer_src:(Addr.host 3 1)
             ~outer_dst:(Addr.host 4 1) pkt
         in
         check Alcotest.int "overhead" 40
           (Packet.total_length e - Packet.total_length pkt);
         match Baselines.Iptp.decap e with
         | Some inner ->
           check Alcotest.bool "identical" true
             (Packet.encode inner = Packet.encode pkt)
         | None -> Alcotest.fail "decap failed");
    Alcotest.test_case "lsrr option overhead is 8 bytes" `Quick (fun () ->
        let pkt = sample () in
        let routed =
          { pkt with
            Packet.options = [Ipv4.Ip_option.lsrr [Addr.host 9 1]] }
        in
        check Alcotest.int "overhead" 8
          (Packet.total_length routed - Packet.total_length pkt);
        check Alcotest.int "declared" 8 Baselines.Ibm_lsrr.lsrr_overhead) ]

(* --- Sunshine-Postel --- *)

let sp_tests =
  [ Alcotest.test_case "query, source-route, deliver" `Quick (fun () ->
        let p = TG.figure1_plain () in
        let m_addr = Node.primary_addr p.TG.p_m in
        let db = Net.Topology.add_host p.TG.p_topo "DB" p.TG.p_backbone 20 in
        Net.Topology.compute_routes p.TG.p_topo;
        let sp = Baselines.Sunshine_postel.create p.TG.p_topo ~db_node:db in
        let fwd4 =
          Baselines.Sunshine_postel.add_forwarder sp p.TG.p_r4
            ~lan:p.TG.p_net_d
        in
        Baselines.Sunshine_postel.make_mobile sp p.TG.p_m;
        let received = ref 0 in
        Node.set_proto_handler p.TG.p_m Ipv4.Proto.udp (fun _ _ ->
            incr received);
        schedule p 1.0 (fun () ->
            Baselines.Sunshine_postel.move sp p.TG.p_m ~forwarder:fwd4
              p.TG.p_net_d);
        schedule p 2.0 (fun () ->
            Baselines.Sunshine_postel.send sp ~src:p.TG.p_s
              (mk_pkt ~id:1 ~src:p.TG.p_s ~dst:m_addr ()));
        schedule p 3.0 (fun () ->
            Baselines.Sunshine_postel.send sp ~src:p.TG.p_s
              (mk_pkt ~id:2 ~src:p.TG.p_s ~dst:m_addr ()));
        run p;
        check Alcotest.int "both delivered" 2 !received;
        (* one DB lookup: the second packet used the cached forwarder *)
        check Alcotest.int "one lookup" 1
          (Baselines.Sunshine_postel.db_lookups sp);
        check Alcotest.int "db holds one mobile" 8
          (Baselines.Sunshine_postel.db_state_bytes sp));
    Alcotest.test_case
      "staleness: old forwarder unreachable triggers re-query" `Quick
      (fun () ->
         let p = TG.figure1_plain () in
         let m_addr = Node.primary_addr p.TG.p_m in
         let db = Net.Topology.add_host p.TG.p_topo "DB" p.TG.p_backbone 20 in
         (* a second visitable network behind R3 *)
         let net_e = Net.Topology.add_lan p.TG.p_topo ~net:5 "netE" in
         let r5 =
           Net.Topology.add_router p.TG.p_topo "R5"
             [(p.TG.p_net_c, 3); (net_e, 1)]
         in
         Net.Topology.compute_routes p.TG.p_topo;
         let sp = Baselines.Sunshine_postel.create p.TG.p_topo ~db_node:db in
         let fwd4 =
           Baselines.Sunshine_postel.add_forwarder sp p.TG.p_r4
             ~lan:p.TG.p_net_d
         in
         let fwd5 =
           Baselines.Sunshine_postel.add_forwarder sp r5 ~lan:net_e
         in
         Baselines.Sunshine_postel.make_mobile sp p.TG.p_m;
         let received = ref 0 in
         Node.set_proto_handler p.TG.p_m Ipv4.Proto.udp (fun _ _ ->
             incr received);
         schedule p 1.0 (fun () ->
             Baselines.Sunshine_postel.move sp p.TG.p_m ~forwarder:fwd4
               p.TG.p_net_d);
         schedule p 2.0 (fun () ->
             Baselines.Sunshine_postel.send sp ~src:p.TG.p_s
               (mk_pkt ~id:1 ~src:p.TG.p_s ~dst:m_addr ()));
         (* move: S's cached forwarder is now stale *)
         schedule p 3.0 (fun () ->
             Baselines.Sunshine_postel.move sp p.TG.p_m ~forwarder:fwd5
               net_e);
         schedule p 4.0 (fun () ->
             Baselines.Sunshine_postel.send sp ~src:p.TG.p_s
               (mk_pkt ~id:2 ~src:p.TG.p_s ~dst:m_addr ()));
         run p;
         (* the stale packet dies at the old forwarder, the unreachable
            error triggers a re-query and retransmission: delivered *)
         check Alcotest.int "both delivered eventually" 2 !received;
         check Alcotest.int "two lookups (cold + staleness)" 2
           (Baselines.Sunshine_postel.db_lookups sp)) ]

(* --- Columbia --- *)

let columbia_setup () =
  let p = TG.figure1_plain () in
  let m_addr = Node.primary_addr p.TG.p_m in
  let co = Baselines.Columbia.create p.TG.p_topo in
  let msr_home = Baselines.Columbia.add_msr co p.TG.p_r2 ~cell:p.TG.p_net_b in
  let msr4 = Baselines.Columbia.add_msr co p.TG.p_r4 ~cell:p.TG.p_net_d in
  Baselines.Columbia.make_mobile co p.TG.p_m ~home:msr_home;
  let received = ref 0 in
  Node.set_proto_handler p.TG.p_m Ipv4.Proto.udp (fun _ _ -> incr received);
  (p, m_addr, co, msr_home, msr4, received)

let columbia_tests =
  [ Alcotest.test_case "who-has query resolves and delivers" `Quick
      (fun () ->
         let p, m_addr, co, msr_home, msr4, received = columbia_setup () in
         ignore msr_home;
         schedule p 1.0 (fun () ->
             Baselines.Columbia.move co p.TG.p_m ~to_msr:msr4);
         schedule p 2.0 (fun () ->
             Baselines.Columbia.send co ~src:p.TG.p_s
               (mk_pkt ~id:1 ~src:p.TG.p_s ~dst:m_addr ()));
         schedule p 3.0 (fun () ->
             Baselines.Columbia.send co ~src:p.TG.p_s
               (mk_pkt ~id:2 ~src:p.TG.p_s ~dst:m_addr ()));
         run p;
         check Alcotest.int "delivered" 2 !received;
         (* control cost includes the who-has (one per peer MSR) *)
         check Alcotest.bool "queries issued" true
           (Baselines.Columbia.control_messages co >= 3));
    Alcotest.test_case "every outside packet triangles via the home MSR"
      `Quick (fun () ->
          let p, m_addr, co, msr_home, msr4, received = columbia_setup () in
          ignore msr_home;
          let home_msr_fwd_before = Node.packets_forwarded p.TG.p_r2 in
          schedule p 1.0 (fun () ->
              Baselines.Columbia.move co p.TG.p_m ~to_msr:msr4);
          for k = 1 to 3 do
            schedule p (1.0 +. float_of_int k) (fun () ->
                Baselines.Columbia.send co ~src:p.TG.p_s
                  (mk_pkt ~id:k ~src:p.TG.p_s ~dst:m_addr ()))
          done;
          run p;
          check Alcotest.int "delivered" 3 !received;
          (* R2 (home MSR) handled every one of them: no route
             optimisation outside the campus *)
          check Alcotest.bool "all via home MSR" true
            (Node.packets_delivered p.TG.p_r2
             + Node.packets_forwarded p.TG.p_r2 - home_msr_fwd_before
             >= 3)) ]

(* --- Sony VIP --- *)

let sony_tests =
  [ Alcotest.test_case "resolution via home router, then snooped caches"
      `Quick (fun () ->
          let p = TG.figure1_plain () in
          let m_addr = Node.primary_addr p.TG.p_m in
          let sv = Baselines.Sony_vip.create p.TG.p_topo in
          List.iter (Baselines.Sony_vip.add_router sv)
            [p.TG.p_r1; p.TG.p_r2; p.TG.p_r3; p.TG.p_r4];
          Baselines.Sony_vip.make_host sv p.TG.p_m ~home_router:p.TG.p_r2;
          Baselines.Sony_vip.make_host sv p.TG.p_s ~home_router:p.TG.p_r1;
          let received = ref 0 in
          Baselines.Sony_vip.on_receive sv p.TG.p_m (fun _ -> incr received);
          let temp = Addr.Prefix.host (Net.Lan.prefix p.TG.p_net_d) 50 in
          schedule p 1.0 (fun () ->
              Baselines.Sony_vip.move sv p.TG.p_m ~lan:p.TG.p_net_d
                ~via_router:p.TG.p_r4 ~temp);
          schedule p 2.0 (fun () ->
              Baselines.Sony_vip.send sv ~src:p.TG.p_s
                (mk_pkt ~id:1 ~src:p.TG.p_s ~dst:m_addr ()));
          schedule p 3.0 (fun () ->
              Baselines.Sony_vip.send sv ~src:p.TG.p_s
                (mk_pkt ~id:2 ~src:p.TG.p_s ~dst:m_addr ()));
          (* the mobile host replies: routers in its path snoop the
             vip -> temporary-address mapping *)
          let s_addr = Node.primary_addr p.TG.p_s in
          schedule p 4.0 (fun () ->
              Baselines.Sony_vip.send sv ~src:p.TG.p_m
                (mk_pkt ~id:3 ~src:p.TG.p_m ~dst:s_addr ()));
          run p;
          check Alcotest.int "delivered" 2 !received;
          check Alcotest.bool "routers snooped mappings" true
            (Baselines.Sony_vip.router_cache_bytes sv > 0));
    Alcotest.test_case "imperfect flood leaves stale entries" `Quick
      (fun () ->
         let p = TG.figure1_plain () in
         let sv =
           Baselines.Sony_vip.create ~flood_reliability:0.0 p.TG.p_topo
         in
         List.iter (Baselines.Sony_vip.add_router sv)
           [p.TG.p_r1; p.TG.p_r2; p.TG.p_r3; p.TG.p_r4];
         Baselines.Sony_vip.make_host sv p.TG.p_m ~home_router:p.TG.p_r2;
         Baselines.Sony_vip.make_host sv p.TG.p_s ~home_router:p.TG.p_r1;
         let m_addr = Node.primary_addr p.TG.p_m in
         let received = ref 0 in
         Baselines.Sony_vip.on_receive sv p.TG.p_m (fun _ -> incr received);
         let temp = Addr.Prefix.host (Net.Lan.prefix p.TG.p_net_d) 50 in
         schedule p 1.0 (fun () ->
             Baselines.Sony_vip.move sv p.TG.p_m ~lan:p.TG.p_net_d
               ~via_router:p.TG.p_r4 ~temp);
         schedule p 2.0 (fun () ->
             Baselines.Sony_vip.send sv ~src:p.TG.p_s
               (mk_pkt ~id:1 ~src:p.TG.p_s ~dst:m_addr ()));
         (* the mobile replies so routers snoop its temp mapping *)
         let s_addr = Node.primary_addr p.TG.p_s in
         schedule p 2.5 (fun () ->
             Baselines.Sony_vip.send sv ~src:p.TG.p_m
               (mk_pkt ~id:5 ~src:p.TG.p_m ~dst:s_addr ()));
         (* second move with a useless flood: snooped entries go stale *)
         let temp2 = Addr.Prefix.host (Net.Lan.prefix p.TG.p_net_b) 60 in
         schedule p 3.0 (fun () ->
             Baselines.Sony_vip.move sv p.TG.p_m ~lan:p.TG.p_net_b
               ~via_router:p.TG.p_r2 ~temp:temp2);
         run p;
         check Alcotest.bool "stale entries remain" true
           (Baselines.Sony_vip.stale_entries sv > 0));
    Alcotest.test_case "moves cost one flood message per router" `Quick
      (fun () ->
         let p = TG.figure1_plain () in
         let sv = Baselines.Sony_vip.create p.TG.p_topo in
         List.iter (Baselines.Sony_vip.add_router sv)
           [p.TG.p_r1; p.TG.p_r2; p.TG.p_r3; p.TG.p_r4];
         Baselines.Sony_vip.make_host sv p.TG.p_m ~home_router:p.TG.p_r2;
         let temp = Addr.Prefix.host (Net.Lan.prefix p.TG.p_net_d) 50 in
         Baselines.Sony_vip.move sv p.TG.p_m ~lan:p.TG.p_net_d
           ~via_router:p.TG.p_r4 ~temp;
         (* 1 registration + 4 flood messages *)
         check Alcotest.int "ctrl" 5 (Baselines.Sony_vip.control_messages sv)) ]

(* --- Matsushita --- *)

let matsushita_tests =
  [ Alcotest.test_case "forwarding mode always goes through the PFS"
      `Quick (fun () ->
          let p = TG.figure1_plain () in
          let m_addr = Node.primary_addr p.TG.p_m in
          let ma =
            Baselines.Matsushita.create p.TG.p_topo
              Baselines.Matsushita.Forwarding
          in
          Baselines.Matsushita.add_pfs ma p.TG.p_r2;
          Baselines.Matsushita.make_mobile ma p.TG.p_m ~pfs:p.TG.p_r2;
          let received = ref 0 in
          Baselines.Matsushita.on_receive ma p.TG.p_m (fun _ ->
              incr received);
          let temp = Addr.Prefix.host (Net.Lan.prefix p.TG.p_net_d) 50 in
          schedule p 1.0 (fun () ->
              Baselines.Matsushita.move ma p.TG.p_m ~lan:p.TG.p_net_d
                ~via_router:p.TG.p_r4 ~temp);
          schedule p 2.0 (fun () ->
              Baselines.Matsushita.send ma ~src:p.TG.p_s
                (mk_pkt ~id:1 ~src:p.TG.p_s ~dst:m_addr ()));
          schedule p 3.0 (fun () ->
              Baselines.Matsushita.send ma ~src:p.TG.p_s
                (mk_pkt ~id:2 ~src:p.TG.p_s ~dst:m_addr ()));
          run p;
          check Alcotest.int "delivered" 2 !received);
    Alcotest.test_case
      "autonomous mode learns the binding and tunnels direct" `Quick
      (fun () ->
         let p = TG.figure1_plain () in
         let m_addr = Node.primary_addr p.TG.p_m in
         let ma =
           Baselines.Matsushita.create p.TG.p_topo
             Baselines.Matsushita.Autonomous
         in
         Baselines.Matsushita.add_pfs ma p.TG.p_r2;
         Baselines.Matsushita.make_mobile ma p.TG.p_m ~pfs:p.TG.p_r2;
         let received = ref 0 in
         Baselines.Matsushita.on_receive ma p.TG.p_m (fun _ ->
             incr received);
         let temp = Addr.Prefix.host (Net.Lan.prefix p.TG.p_net_d) 50 in
         schedule p 1.0 (fun () ->
             Baselines.Matsushita.move ma p.TG.p_m ~lan:p.TG.p_net_d
               ~via_router:p.TG.p_r4 ~temp);
         schedule p 2.0 (fun () ->
             Baselines.Matsushita.send ma ~src:p.TG.p_s
               (mk_pkt ~id:1 ~src:p.TG.p_s ~dst:m_addr ()));
         schedule p 3.0 (fun () ->
             Baselines.Matsushita.send ma ~src:p.TG.p_s
               (mk_pkt ~id:2 ~src:p.TG.p_s ~dst:m_addr ()));
         run p;
         check Alcotest.int "delivered" 2 !received;
         (* the second packet avoided the PFS: R2 only saw one *)
         check Alcotest.bool "binding notice was sent" true
           (Baselines.Matsushita.control_messages ma >= 2)) ]

(* --- IBM LSRR --- *)

let ibm_tests =
  [ Alcotest.test_case "reversed recorded routes carry replies" `Quick
      (fun () ->
         let p = TG.figure1_plain () in
         let m_addr = Node.primary_addr p.TG.p_m in
         let s_addr = Node.primary_addr p.TG.p_s in
         let ib = Baselines.Ibm_lsrr.create p.TG.p_topo in
         let home_base =
           Baselines.Ibm_lsrr.add_base ib p.TG.p_r2 ~lan:p.TG.p_net_b
         in
         let base4 =
           Baselines.Ibm_lsrr.add_base ib p.TG.p_r4 ~lan:p.TG.p_net_d
         in
         Baselines.Ibm_lsrr.make_mobile ib p.TG.p_m ~home_base;
         let m_received = ref 0 and s_received = ref 0 in
         Baselines.Ibm_lsrr.on_receive ib p.TG.p_m (fun _ ->
             incr m_received);
         Baselines.Ibm_lsrr.on_receive ib p.TG.p_s (fun _ ->
             incr s_received);
         schedule p 1.0 (fun () ->
             Baselines.Ibm_lsrr.move ib p.TG.p_m ~base:base4);
         (* initial contact goes via the home base *)
         schedule p 2.0 (fun () ->
             Baselines.Ibm_lsrr.send ib ~src:p.TG.p_s
               (mk_pkt ~id:1 ~src:p.TG.p_s ~dst:m_addr ()));
         (* the mobile's reply teaches S the reversed route *)
         schedule p 3.0 (fun () ->
             Baselines.Ibm_lsrr.send ib ~src:p.TG.p_m
               (mk_pkt ~id:2 ~src:p.TG.p_m ~dst:s_addr ()));
         schedule p 4.0 (fun () ->
             Baselines.Ibm_lsrr.send ib ~src:p.TG.p_s
               (mk_pkt ~id:3 ~src:p.TG.p_s ~dst:m_addr ()));
         run p;
         check Alcotest.int "mobile got both" 2 !m_received;
         check Alcotest.int "sender got reply" 1 !s_received);
    Alcotest.test_case
      "optioned packets pay the router slow path (Section 7)" `Quick
      (fun () ->
         (* identical payload with and without LSRR through two routers;
            the optioned one must be slower by the slow-path factor *)
         let p = TG.figure1_plain () in
         Net.Topology.compute_routes p.TG.p_topo;
         let b_addr = Node.primary_addr p.TG.p_m in
         let arrival = ref Time.zero and arrival_plain = ref Time.zero in
         Node.set_proto_handler p.TG.p_m Ipv4.Proto.udp (fun node v ->
             let pkt = Packet.View.decode v in
             ignore node;
             if pkt.Packet.options = [] then
               arrival_plain := Netsim.Engine.now (Node.engine p.TG.p_m)
             else arrival := Netsim.Engine.now (Node.engine p.TG.p_m));
         (* warm ARP with a plain packet, then measure *)
         schedule p 1.0 (fun () ->
             Node.send p.TG.p_s (mk_pkt ~id:1 ~src:p.TG.p_s ~dst:b_addr ()));
         schedule p 2.0 (fun () ->
             Node.send p.TG.p_s (mk_pkt ~id:2 ~src:p.TG.p_s ~dst:b_addr ()));
         schedule p 3.0 (fun () ->
             let pkt = mk_pkt ~id:3 ~src:p.TG.p_s ~dst:b_addr () in
             Node.send p.TG.p_s
               { pkt with
                 Packet.options =
                   [Ipv4.Ip_option.Nop; Ipv4.Ip_option.Nop;
                    Ipv4.Ip_option.Nop; Ipv4.Ip_option.Nop] });
         run p;
         let plain_latency =
           Time.to_us !arrival_plain - Time.to_us (Time.of_sec 2.0)
         in
         let optioned_latency =
           Time.to_us !arrival - Time.to_us (Time.of_sec 3.0)
         in
         check Alcotest.bool "slow path costs more" true
           (optioned_latency > plain_latency)) ]

let suite =
  [ ("baseline-codecs", codec_tests); ("sunshine-postel", sp_tests);
    ("columbia", columbia_tests); ("sony-vip", sony_tests);
    ("matsushita", matsushita_tests); ("ibm-lsrr", ibm_tests) ]
