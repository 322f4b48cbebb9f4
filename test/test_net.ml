(* Tests for the network substrate: link layer, LANs, routing tables,
   nodes, shortest-path computation, topology plumbing. *)

module Time = Netsim.Time
module Addr = Ipv4.Addr
module Packet = Ipv4.Packet
module Mac = Net.Mac
module Lan = Net.Lan
module Node = Net.Node
module Route = Net.Route
module Topology = Net.Topology
module TG = Workload.Topo_gen

let check = Alcotest.check
let addr_testable = Alcotest.testable Addr.pp Addr.equal
let mac_testable = Alcotest.testable Mac.pp Mac.equal

(* --- Mac --- *)

let mac_tests =
  [ Alcotest.test_case "formatting" `Quick (fun () ->
        check Alcotest.string "format" "02:00:00:00:00:2a"
          (Mac.to_string (Mac.of_int 0x0200_0000_002A)));
    Alcotest.test_case "broadcast is reserved" `Quick (fun () ->
        check Alcotest.bool "is broadcast" true
          (Mac.is_broadcast Mac.broadcast);
        Alcotest.check_raises "reserved"
          (Invalid_argument "Mac.of_int: broadcast reserved") (fun () ->
            ignore (Mac.of_int (Mac.to_int Mac.broadcast))));
    Alcotest.test_case "allocator yields distinct addresses" `Quick
      (fun () ->
         let alloc = Mac.Alloc.create () in
         let a = Mac.Alloc.fresh alloc and b = Mac.Alloc.fresh alloc in
         check Alcotest.bool "distinct" false (Mac.equal a b)) ]

(* --- Arp / Frame --- *)

let arp_tests =
  [ Alcotest.test_case "request has no target mac" `Quick (fun () ->
        let a =
          Net.Arp.request ~sender_mac:(Mac.of_int 1)
            ~sender_ip:(Addr.host 1 1) ~target_ip:(Addr.host 1 2)
        in
        check Alcotest.bool "none" true (a.Net.Arp.target_mac = None));
    Alcotest.test_case "gratuitous binds ip to mac on both fields" `Quick
      (fun () ->
         let g = Net.Arp.gratuitous ~mac:(Mac.of_int 2) ~ip:(Addr.host 1 5) in
         check addr_testable "sender" (Addr.host 1 5) g.Net.Arp.sender_ip;
         check addr_testable "target" (Addr.host 1 5) g.Net.Arp.target_ip;
         check mac_testable "mac" (Mac.of_int 2) g.Net.Arp.sender_mac);
    Alcotest.test_case "frame wire length includes ethernet overhead"
      `Quick (fun () ->
          let f =
            Net.Frame.ip ~src:(Mac.of_int 1) ~dst:(Mac.of_int 2)
              (Bytes.create 100)
          in
          check Alcotest.int "ip" 118 (Net.Frame.wire_length f);
          let g =
            Net.Frame.arp ~src:(Mac.of_int 1) ~dst:Mac.broadcast
              (Net.Arp.gratuitous ~mac:(Mac.of_int 1) ~ip:Addr.zero)
          in
          check Alcotest.int "arp" 46 (Net.Frame.wire_length g)) ]

(* --- Lan --- *)

let with_lan f =
  let engine = Netsim.Engine.create () in
  let lan = Lan.create ~engine ~name:"test" (Addr.net 1) in
  f engine lan

let lan_tests =
  [ Alcotest.test_case "unicast reaches only its target" `Quick (fun () ->
        with_lan (fun engine lan ->
            let got_a = ref 0 and got_b = ref 0 in
            Lan.attach lan (Mac.of_int 1) (fun _ -> incr got_a);
            Lan.attach lan (Mac.of_int 2) (fun _ -> incr got_b);
            Lan.send lan
              (Net.Frame.ip ~src:(Mac.of_int 1) ~dst:(Mac.of_int 2)
                 (Bytes.create 10));
            Netsim.Engine.run engine;
            check Alcotest.int "a" 0 !got_a;
            check Alcotest.int "b" 1 !got_b));
    Alcotest.test_case "broadcast reaches all but sender" `Quick (fun () ->
        with_lan (fun engine lan ->
            let got = ref [] in
            List.iter
              (fun i ->
                 Lan.attach lan (Mac.of_int i) (fun _ ->
                     got := i :: !got))
              [1; 2; 3];
            Lan.send lan
              (Net.Frame.ip ~src:(Mac.of_int 1) ~dst:Mac.broadcast
                 (Bytes.create 10));
            Netsim.Engine.run engine;
            check (Alcotest.list Alcotest.int) "receivers" [2; 3]
              (List.sort compare !got)));
    Alcotest.test_case "absent destination silently dropped" `Quick
      (fun () ->
         with_lan (fun engine lan ->
             Lan.attach lan (Mac.of_int 1) (fun _ -> ());
             Lan.send lan
               (Net.Frame.ip ~src:(Mac.of_int 1) ~dst:(Mac.of_int 9)
                  (Bytes.create 10));
             Netsim.Engine.run engine;
             check Alcotest.int "sent counted" 1 (Lan.frames_sent lan)));
    Alcotest.test_case "down LAN delivers nothing" `Quick (fun () ->
        with_lan (fun engine lan ->
            let got = ref 0 in
            Lan.attach lan (Mac.of_int 1) (fun _ -> incr got);
            Lan.set_up lan false;
            Lan.send lan
              (Net.Frame.ip ~src:(Mac.of_int 2) ~dst:(Mac.of_int 1)
                 (Bytes.create 10));
            Netsim.Engine.run engine;
            check Alcotest.int "nothing" 0 !got));
    Alcotest.test_case "latency and serialization delay apply" `Quick
      (fun () ->
         let engine = Netsim.Engine.create () in
         let lan =
           Lan.create ~engine ~name:"slow" ~latency:(Time.of_ms 10)
             ~bandwidth_bps:8_000 (Addr.net 1)
         in
         let at = ref Time.zero in
         Lan.attach lan (Mac.of_int 1) (fun _ ->
             at := Netsim.Engine.now engine);
         (* 100-byte payload + 18 ethernet = 118 bytes = 944 bits at
            8 kb/s = 118 ms serialization + 10 ms latency *)
         Lan.send lan
           (Net.Frame.ip ~src:(Mac.of_int 2) ~dst:(Mac.of_int 1)
              (Bytes.create 100));
         Netsim.Engine.run engine;
         check Alcotest.int "arrival time" 128_000 (Time.to_us !at));
    Alcotest.test_case "detach stops delivery, reattach allowed" `Quick
      (fun () ->
         with_lan (fun engine lan ->
             let got = ref 0 in
             Lan.attach lan (Mac.of_int 1) (fun _ -> incr got);
             Lan.detach lan (Mac.of_int 1);
             Lan.send lan
               (Net.Frame.ip ~src:(Mac.of_int 2) ~dst:(Mac.of_int 1)
                  (Bytes.create 4));
             Netsim.Engine.run engine;
             check Alcotest.int "after detach" 0 !got;
             Lan.attach lan (Mac.of_int 1) (fun _ -> incr got);
             check Alcotest.bool "attached" true
               (Lan.attached lan (Mac.of_int 1))));
    Alcotest.test_case "duplicate attach rejected" `Quick (fun () ->
        with_lan (fun _ lan ->
            Lan.attach lan (Mac.of_int 1) (fun _ -> ());
            check Alcotest.bool "raises" true
              (try
                 Lan.attach lan (Mac.of_int 1) (fun _ -> ());
                 false
               with Invalid_argument _ -> true)));
    Alcotest.test_case "stations list tracks attach and detach" `Quick
      (fun () ->
         (* The sorted station list is kept by attach and detach; every
            mutation must show in it: at the head, the middle and the
            tail, and not at all for an absent MAC. *)
         with_lan (fun _ lan ->
             let expect name l =
               check (Alcotest.list mac_testable) name (List.map Mac.of_int l)
                 (Lan.stations lan)
             in
             let attach i = Lan.attach lan (Mac.of_int i) (fun _ -> ()) in
             let detach i = Lan.detach lan (Mac.of_int i) in
             expect "empty" [];
             List.iter attach [3; 1; 2];
             expect "sorted" [1; 2; 3];
             detach 2;
             expect "after detach" [1; 3];
             attach 2;
             expect "after reattach" [1; 2; 3];
             List.iter attach [9; 0; 5];
             expect "head, middle and tail" [0; 1; 2; 3; 5; 9];
             detach 0;
             detach 9;
             expect "head and tail gone" [1; 2; 3; 5];
             detach 7;
             expect "absent MAC ignored" [1; 2; 3; 5];
             List.iter detach [1; 2; 3; 5];
             expect "all gone" [];
             attach 4;
             expect "reattached" [4]));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"stations = sorted membership after any attach/detach run"
         ~count:300
         QCheck.(small_list (pair bool (int_bound 23)))
         (fun ops ->
            with_lan (fun _ lan ->
                let members = Hashtbl.create 8 in
                List.iter
                  (fun (attach, i) ->
                     if attach && not (Hashtbl.mem members i) then begin
                       Lan.attach lan (Mac.of_int i) (fun _ -> ());
                       Hashtbl.replace members i ()
                     end
                     else if not attach then begin
                       Lan.detach lan (Mac.of_int i);
                       Hashtbl.remove members i
                     end)
                  ops;
                let sorted =
                  Hashtbl.fold (fun i () acc -> i :: acc) members []
                  |> List.sort Int.compare
                in
                List.map Mac.to_int (Lan.stations lan) = sorted
                && List.for_all
                     (fun i -> Lan.attached lan (Mac.of_int i))
                     sorted)));
    Alcotest.test_case "monitors fire in registration order" `Quick
      (fun () ->
         with_lan (fun engine lan ->
             let order = ref [] in
             Lan.attach lan (Mac.of_int 1) (fun _ -> ());
             Lan.attach lan (Mac.of_int 2) (fun _ -> ());
             List.iter
               (fun i -> Lan.add_monitor lan (fun _ -> order := i :: !order))
               [1; 2; 3];
             Lan.send lan
               (Net.Frame.ip ~src:(Mac.of_int 1) ~dst:(Mac.of_int 2)
                  (Bytes.create 4));
             Netsim.Engine.run engine;
             check (Alcotest.list Alcotest.int) "registration order"
               [1; 2; 3] (List.rev !order))) ]

(* --- Route --- *)

let route_tests =
  [ Alcotest.test_case "longest prefix wins" `Quick (fun () ->
        let t =
          Route.empty
          |> (fun t -> Route.add_default t (Route.Via (Addr.host 0 1)))
          |> (fun t ->
              Route.add t (Addr.net 5) (Route.Via (Addr.host 0 2)))
          |> fun t -> Route.add_host t (Addr.host 5 9) (Route.Direct 0)
        in
        check Alcotest.bool "host route" true
          (Route.lookup t (Addr.host 5 9) = Some (Route.Direct 0));
        check Alcotest.bool "net route" true
          (Route.lookup t (Addr.host 5 8)
           = Some (Route.Via (Addr.host 0 2)));
        check Alcotest.bool "default" true
          (Route.lookup t (Addr.host 9 1)
           = Some (Route.Via (Addr.host 0 1))));
    Alcotest.test_case "add replaces same prefix" `Quick (fun () ->
        let t = Route.add Route.empty (Addr.net 1) (Route.Direct 0) in
        let t = Route.add t (Addr.net 1) (Route.Direct 1) in
        check Alcotest.int "one entry" 1 (Route.size t);
        check Alcotest.bool "replaced" true
          (Route.lookup t (Addr.host 1 1) = Some (Route.Direct 1)));
    Alcotest.test_case "remove host route restores net route" `Quick
      (fun () ->
         let t = Route.add Route.empty (Addr.net 1) (Route.Direct 0) in
         let t = Route.add_host t (Addr.host 1 7) (Route.Direct 3) in
         let t = Route.remove_host t (Addr.host 1 7) in
         check Alcotest.bool "net again" true
           (Route.lookup t (Addr.host 1 7) = Some (Route.Direct 0)));
    Alcotest.test_case "empty table finds nothing" `Quick (fun () ->
        check Alcotest.bool "none" true
          (Route.lookup Route.empty (Addr.host 1 1) = None));
    Alcotest.test_case "bulk matches fold of add" `Quick (fun () ->
        (* Includes a duplicate prefix: the later binding must win and
           occupy the position the replacing [add] would have given it. *)
        let p32 a = Addr.Prefix.make a 32 in
        let pairs =
          [ (Addr.Prefix.make Addr.zero 0, Route.Via (Addr.host 0 1));
            (Addr.net 5, Route.Via (Addr.host 0 2));
            (p32 (Addr.host 5 9), Route.Direct 0);
            (Addr.net 7, Route.Via (Addr.host 0 3));
            (Addr.net 5, Route.Via (Addr.host 0 9));  (* replaces *)
            (p32 (Addr.host 7 1), Route.Via (Addr.host 0 4)) ]
        in
        let folded =
          List.fold_left
            (fun t (p, tg) -> Route.add t p tg)
            Route.empty pairs
        in
        let bulked = Route.bulk pairs in
        check Alcotest.int "same size" (Route.size folded)
          (Route.size bulked);
        List.iter2
          (fun (a : Route.entry) (b : Route.entry) ->
             check Alcotest.bool "same prefix" true
               (Addr.Prefix.equal a.Route.prefix b.Route.prefix);
             check Alcotest.bool "same target" true
               (a.Route.target = b.Route.target))
          (Route.entries folded) (Route.entries bulked));
    Alcotest.test_case "compiled lookup agrees across host-route churn"
      `Quick (fun () ->
         (* Many /32 routes exercise the hash fast path; net routes and the
            default exercise the prefix-scan fallback.  Tables are
            persistent, so a derived table must not see a stale compiled
            form and the original must keep answering as before. *)
         let t =
           Route.add_default Route.empty (Route.Via (Addr.host 0 1))
         in
         let t = Route.add t (Addr.net 3) (Route.Direct 1) in
         let t =
           List.fold_left
             (fun t k ->
                Route.add_host t (Addr.host 3 k) (Route.Via (Addr.host 0 k)))
             t
             (List.init 100 (fun k -> k + 1))
         in
         check Alcotest.bool "host hit" true
           (Route.lookup t (Addr.host 3 42)
            = Some (Route.Via (Addr.host 0 42)));
         check Alcotest.bool "net fallback" true
           (Route.lookup t (Addr.host 3 200) = Some (Route.Direct 1));
         check Alcotest.bool "default fallback" true
           (Route.lookup t (Addr.host 9 9)
            = Some (Route.Via (Addr.host 0 1)));
         let t' = Route.remove_host t (Addr.host 3 42) in
         check Alcotest.bool "removed falls to net" true
           (Route.lookup t' (Addr.host 3 42) = Some (Route.Direct 1));
         check Alcotest.bool "original unchanged" true
           (Route.lookup t (Addr.host 3 42)
            = Some (Route.Via (Addr.host 0 42)))) ]

(* --- Node + Topology integration --- *)

let two_hosts () =
  let topo = Topology.create () in
  let lan = Topology.add_lan topo ~net:1 "lan1" in
  let a = Topology.add_host topo "a" lan 1 in
  let b = Topology.add_host topo "b" lan 2 in
  Topology.compute_routes topo;
  (topo, lan, a, b)

let udp_to ~src ~dst_addr data =
  Packet.make ~proto:Ipv4.Proto.udp ~src:(Node.primary_addr src)
    ~dst:dst_addr
    (Ipv4.Udp.encode (Ipv4.Udp.make ~src_port:1 ~dst_port:2 data))

(* On Figure 1, with [script f ~at ~send] scheduling the events ([at
   sec g] runs [g] at [sec], [send ()] sends a datagram from M to host
   200 of its home net B): the times, in ms, of M's ARP requests for
   host 200 and of M's drops. *)
let arp_timeline script =
  let f = TG.figure1_plain () in
  let topo = f.TG.p_topo and m = f.TG.p_m in
  let target = Addr.host 2 200 in
  let ms () = Time.to_us (Topology.now topo) / 1000 in
  let asks = ref [] and drops = ref [] in
  Lan.add_monitor f.TG.p_net_b (fun fr ->
      match fr.Net.Frame.content with
      | Net.Frame.Arp { Net.Arp.op = Net.Arp.Request; sender_ip; target_ip; _ }
        when Addr.equal sender_ip (Node.primary_addr m)
             && Addr.equal target_ip target ->
        asks := ms () :: !asks
      | _ -> ());
  Node.on_drop m (fun _ reason _ -> drops := (reason, ms ()) :: !drops);
  let at sec g =
    ignore
      (Netsim.Engine.schedule (Topology.engine topo) ~at:(Time.of_sec sec) g)
  in
  let send () =
    Node.send m (udp_to ~src:m ~dst_addr:target (Bytes.make 8 'x'))
  in
  script f ~at ~send;
  Topology.run ~until:(Time.of_sec 4.0) topo;
  (List.rev !asks, List.rev !drops)

let check_arp_timeline (asks, drops) ~asks:expected ~dropped_at =
  check (Alcotest.list Alcotest.int) "M's requests (ms)" expected asks;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "drops (ms)" [("arp-timeout", dropped_at)] drops

let node_tests =
  [ Alcotest.test_case "same-LAN delivery with ARP resolution" `Quick
      (fun () ->
         let topo, _, a, b = two_hosts () in
         let got = ref 0 in
         Node.set_proto_handler b Ipv4.Proto.udp (fun _ _ -> incr got);
         Node.send a
           (udp_to ~src:a ~dst_addr:(Node.primary_addr b)
              (Bytes.of_string "hi"));
         Topology.run topo;
         check Alcotest.int "delivered" 1 !got;
         (* ARP cache warmed on both sides *)
         check Alcotest.bool "a knows b" true
           (Node.arp_cache_lookup a (Node.primary_addr b) <> None));
    Alcotest.test_case "multi-hop routed delivery" `Quick (fun () ->
        let topo = Topology.create () in
        let l1 = Topology.add_lan topo ~net:1 "l1" in
        let l2 = Topology.add_lan topo ~net:2 "l2" in
        let l3 = Topology.add_lan topo ~net:3 "l3" in
        let _r1 = Topology.add_router topo "r1" [(l1, 1); (l2, 1)] in
        let _r2 = Topology.add_router topo "r2" [(l2, 2); (l3, 1)] in
        let a = Topology.add_host topo "a" l1 10 in
        let b = Topology.add_host topo "b" l3 10 in
        Topology.compute_routes topo;
        let got_ttl = ref 0 in
        Node.set_proto_handler b Ipv4.Proto.udp (fun _ v ->
            let pkt = Packet.View.decode v in
            got_ttl := pkt.Packet.ttl);
        Node.send a
          (udp_to ~src:a ~dst_addr:(Node.primary_addr b)
             (Bytes.of_string "x"));
        Topology.run topo;
        check Alcotest.int "ttl decremented twice" 62 !got_ttl);
    Alcotest.test_case "ttl expiry generates time exceeded" `Quick
      (fun () ->
         let topo = Topology.create () in
         let l1 = Topology.add_lan topo ~net:1 "l1" in
         let l2 = Topology.add_lan topo ~net:2 "l2" in
         let _r = Topology.add_router topo "r" [(l1, 1); (l2, 1)] in
         let a = Topology.add_host topo "a" l1 10 in
         let b = Topology.add_host topo "b" l2 10 in
         Topology.compute_routes topo;
         let errors = ref [] in
         Node.set_proto_handler a Ipv4.Proto.icmp (fun _ v ->
             let pkt = Packet.View.decode v in
             match Ipv4.Icmp.decode_opt pkt.Packet.payload with
             | Some (Ipv4.Icmp.Time_exceeded _) ->
               errors := pkt.Packet.src :: !errors
             | _ -> ());
         let pkt =
           Packet.make ~ttl:1 ~proto:Ipv4.Proto.udp
             ~src:(Node.primary_addr a) ~dst:(Node.primary_addr b)
             (Ipv4.Udp.encode
                (Ipv4.Udp.make ~src_port:1 ~dst_port:2 Bytes.empty))
         in
         Node.send a pkt;
         Topology.run topo;
         check Alcotest.int "one error" 1 (List.length !errors));
    Alcotest.test_case "no route generates net unreachable" `Quick
      (fun () ->
         let topo, _, a, _ = two_hosts () in
         let got = ref 0 in
         Node.set_proto_handler a Ipv4.Proto.icmp (fun _ _ -> incr got);
         Node.send a (udp_to ~src:a ~dst_addr:(Addr.host 99 1) Bytes.empty);
         Topology.run topo;
         (* locally-originated packet with no route: dropped quietly, the
            sender is the source so no ICMP is self-addressed *)
         check Alcotest.int "dropped" 1 (Node.packets_dropped a));
    Alcotest.test_case "arp failure at router returns host unreachable"
      `Quick (fun () ->
          let topo = Topology.create () in
          let l1 = Topology.add_lan topo ~net:1 "l1" in
          let l2 = Topology.add_lan topo ~net:2 "l2" in
          let _r = Topology.add_router topo "r" [(l1, 1); (l2, 1)] in
          let a = Topology.add_host topo "a" l1 10 in
          Topology.compute_routes topo;
          let unreachable = ref 0 in
          Node.set_proto_handler a Ipv4.Proto.icmp (fun _ v ->
              let pkt = Packet.View.decode v in
              match Ipv4.Icmp.decode_opt pkt.Packet.payload with
              | Some (Ipv4.Icmp.Dest_unreachable { code = 1; _ }) ->
                incr unreachable
              | _ -> ());
          (* host 10.0.2.77 does not exist on l2 *)
          Node.send a (udp_to ~src:a ~dst_addr:(Addr.host 2 77) Bytes.empty);
          Topology.run topo;
          check Alcotest.int "unreachable" 1 !unreachable);
    Alcotest.test_case "gratuitous arp poisons neighbour caches" `Quick
      (fun () ->
         let topo, _, a, b = two_hosts () in
         (* warm a's cache with b's real mac *)
         let got = ref 0 in
         Node.set_proto_handler b Ipv4.Proto.udp (fun _ _ -> incr got);
         Node.send a
           (udp_to ~src:a ~dst_addr:(Node.primary_addr b) Bytes.empty);
         Topology.run topo;
         let real = Node.arp_cache_lookup a (Node.primary_addr b) in
         (* now b claims... rather, a third node c claims b's address *)
         let lan = Topology.lan topo "lan1" in
         let c = Topology.add_host topo "c" lan 3 in
         Node.gratuitous_arp c ~iface:0 (Node.primary_addr b);
         Topology.run topo;
         let poisoned = Node.arp_cache_lookup a (Node.primary_addr b) in
         check Alcotest.bool "changed" true (real <> poisoned));
    Alcotest.test_case "proxy arp answers for foreign address" `Quick
      (fun () ->
         let topo, _, a, b = two_hosts () in
         let ghost = Addr.host 1 99 in
         Node.set_arp_proxy b (fun addr -> Addr.equal addr ghost);
         Node.arp_probe a ~iface:0 ghost;
         Topology.run topo;
         check mac_testable "proxy mac" (Node.iface_mac b 0)
           (match Node.arp_cache_lookup a ghost with
            | Some m -> m
            | None -> Alcotest.fail "no answer"));
    Alcotest.test_case "accept_ip claims foreign packets" `Quick (fun () ->
        let topo, _, a, b = two_hosts () in
        let ghost = Addr.host 1 99 in
        let claimed = ref 0 in
        Node.set_accept_ip b (fun _ dst -> Addr.equal dst ghost);
        Node.set_arp_proxy b (fun addr -> Addr.equal addr ghost);
        Node.set_proto_handler b Ipv4.Proto.udp (fun _ v ->
            let pkt = Packet.View.decode v in
            if Addr.equal pkt.Packet.dst ghost then incr claimed);
        Node.send a (udp_to ~src:a ~dst_addr:ghost Bytes.empty);
        Topology.run topo;
        check Alcotest.int "claimed" 1 !claimed);
    Alcotest.test_case "rewrite_forward can replace packets" `Quick
      (fun () ->
         let topo = Topology.create () in
         let l1 = Topology.add_lan topo ~net:1 "l1" in
         let l2 = Topology.add_lan topo ~net:2 "l2" in
         let r = Topology.add_router topo "r" [(l1, 1); (l2, 1)] in
         let a = Topology.add_host topo "a" l1 10 in
         let b = Topology.add_host topo "b" l2 10 in
         let c = Topology.add_host topo "c" l2 11 in
         Topology.compute_routes topo;
         Node.set_rewrite_forward r (fun _ v ->
             if Addr.equal (Packet.View.dst v) (Node.primary_addr b) then
               Node.Replace
                 (Packet.encode
                    { (Packet.View.decode v) with
                      Packet.dst = Node.primary_addr c })
             else Node.Forward);
         let got_b = ref 0 and got_c = ref 0 in
         Node.set_proto_handler b Ipv4.Proto.udp (fun _ _ -> incr got_b);
         Node.set_proto_handler c Ipv4.Proto.udp (fun _ _ -> incr got_c);
         Node.send a
           (udp_to ~src:a ~dst_addr:(Node.primary_addr b) Bytes.empty);
         Topology.run topo;
         check Alcotest.int "b" 0 !got_b;
         check Alcotest.int "c" 1 !got_c);
    Alcotest.test_case "a sent header with options costs the slow path"
      `Quick (fun () ->
        (* the senders read the options from the encoded header: a
           host's 20 us processing delay becomes 8 x 20 us, and the
           4-byte option word adds 3-4 us of transmission *)
        let topo, _, a, b = two_hosts () in
        let arrivals = ref [] in
        Node.set_proto_handler b Ipv4.Proto.udp (fun _ _ ->
            arrivals := Topology.now topo :: !arrivals);
        let send_at sec options =
          ignore
            (Netsim.Engine.schedule (Topology.engine topo)
               ~at:(Time.of_sec sec) (fun () ->
                   Node.send a
                     { (udp_to ~src:a ~dst_addr:(Node.primary_addr b)
                          Bytes.empty)
                       with Packet.options }))
        in
        send_at 1.0 [];  (* warms the ARP cache *)
        send_at 2.0 [];
        send_at 3.0 [Ipv4.Ip_option.Nop];
        Topology.run topo;
        match List.rev_map Time.to_us !arrivals with
        | [_; plain; optioned] ->
          let extra = (optioned - 3_000_000) - (plain - 2_000_000) in
          check Alcotest.bool
            (Printf.sprintf "%d us slower" extra)
            true (extra >= 140 && extra <= 145)
        | l -> Alcotest.failf "%d arrivals" (List.length l));
    Alcotest.test_case "builtin echo responder" `Quick (fun () ->
        let topo, _, a, b = two_hosts () in
        let replies = ref 0 in
        Node.set_proto_handler a Ipv4.Proto.icmp (fun _ v ->
            let pkt = Packet.View.decode v in
            match Ipv4.Icmp.decode_opt pkt.Packet.payload with
            | Some (Ipv4.Icmp.Echo_reply _) -> incr replies
            | _ -> ());
        let ping =
          Packet.make ~proto:Ipv4.Proto.icmp ~src:(Node.primary_addr a)
            ~dst:(Node.primary_addr b)
            (Ipv4.Icmp.encode
               (Ipv4.Icmp.Echo_request
                  { ident = 1; seq = 1; data = Bytes.empty }))
        in
        Node.send a ping;
        Topology.run topo;
        check Alcotest.int "pong" 1 !replies);
    Alcotest.test_case "lsrr is followed and recorded" `Quick (fun () ->
        let topo = Topology.create () in
        let l1 = Topology.add_lan topo ~net:1 "l1" in
        let l2 = Topology.add_lan topo ~net:2 "l2" in
        let r = Topology.add_router topo "r" [(l1, 1); (l2, 1)] in
        let a = Topology.add_host topo "a" l1 10 in
        let b = Topology.add_host topo "b" l2 10 in
        Topology.compute_routes topo;
        let recorded = ref None in
        Node.set_proto_handler b Ipv4.Proto.udp (fun _ v ->
            let pkt = Packet.View.decode v in
            recorded := Some pkt.Packet.options);
        (* source-route a -> r (waypoint) -> b *)
        let pkt =
          Packet.make ~proto:Ipv4.Proto.udp ~src:(Node.primary_addr a)
            ~dst:(Node.primary_addr r)
            ~options:[Ipv4.Ip_option.lsrr [Node.primary_addr b]]
            (Ipv4.Udp.encode (Ipv4.Udp.make ~src_port:1 ~dst_port:2 Bytes.empty))
        in
        Node.send a pkt;
        Topology.run topo;
        match !recorded with
        | Some [Ipv4.Ip_option.Lsrr { route; _ }] ->
          check addr_testable "recorded waypoint" (Node.primary_addr r)
            route.(0)
        | _ -> Alcotest.fail "expected a recorded LSRR");
    Alcotest.test_case "node down drops traffic; crash_for recovers" `Quick
      (fun () ->
         let topo, _, a, b = two_hosts () in
         let got = ref 0 in
         Node.set_proto_handler b Ipv4.Proto.udp (fun _ _ -> incr got);
         Node.set_up b false;
         Node.send a
           (udp_to ~src:a ~dst_addr:(Node.primary_addr b) Bytes.empty);
         Topology.run topo;
         check Alcotest.int "down: nothing" 0 !got;
         Node.set_up b true;
         Node.send a
           (udp_to ~src:a ~dst_addr:(Node.primary_addr b) Bytes.empty);
         Topology.run topo;
         check Alcotest.int "up again" 1 !got);
    Alcotest.test_case "arp entries age out and are re-resolved" `Quick
      (fun () ->
         let topo = Topology.create () in
         let lan = Topology.add_lan topo ~net:1 "lan1" in
         let a = Topology.add_host topo "a" lan 1 in
         let b = Topology.add_host topo "b" lan 2 in
         Topology.compute_routes topo;
         let got = ref 0 in
         Node.set_proto_handler b Ipv4.Proto.udp (fun _ _ -> incr got);
         Node.send a
           (udp_to ~src:a ~dst_addr:(Node.primary_addr b) Bytes.empty);
         Topology.run topo;
         check Alcotest.bool "resolved" true
           (Node.arp_cache_lookup a (Node.primary_addr b) <> None);
         (* default TTL is 60 s: advance past it *)
         ignore
           (Netsim.Engine.schedule (Topology.engine topo)
              ~at:(Time.of_sec 61.0) (fun () -> ()));
         Topology.run topo;
         check Alcotest.bool "aged out" true
           (Node.arp_cache_lookup a (Node.primary_addr b) = None);
         (* traffic still flows: a re-ARPs *)
         Node.send a
           (udp_to ~src:a ~dst_addr:(Node.primary_addr b) Bytes.empty);
         Topology.run topo;
         check Alcotest.int "redelivered" 2 !got);
    Alcotest.test_case "reboot clears arp and fires hooks" `Quick
      (fun () ->
         let topo, _, a, b = two_hosts () in
         let rebooted = ref false in
         Node.on_reboot b (fun _ -> rebooted := true);
         Node.set_proto_handler b Ipv4.Proto.udp (fun _ _ -> ());
         Node.send a
           (udp_to ~src:a ~dst_addr:(Node.primary_addr b) Bytes.empty);
         Topology.run topo;
         check Alcotest.bool "cache warm" true (Node.arp_cache_size b > 0);
         Node.reboot b;
         check Alcotest.bool "hook ran" true !rebooted;
         check Alcotest.int "cache cold" 0 (Node.arp_cache_size b));
    Alcotest.test_case "reboot keeps the routing table" `Quick (fun () ->
        let topo = Topology.create () in
        let l1 = Topology.add_lan topo ~net:1 "l1" in
        let l2 = Topology.add_lan topo ~net:2 "l2" in
        let r = Topology.add_router topo "r" [(l1, 1); (l2, 1)] in
        let a = Topology.add_host topo "a" l1 10 in
        let b = Topology.add_host topo "b" l2 10 in
        Topology.compute_routes topo;
        let before = Route.lookup (Node.routes r) (Node.primary_addr b) in
        check Alcotest.bool "route exists" true (before <> None);
        Node.reboot r;
        check Alcotest.bool "route survives the reboot" true
          (Route.lookup (Node.routes r) (Node.primary_addr b) = before);
        (* and it still forwards: a's datagram crosses the rebooted router *)
        let got = ref 0 in
        Node.set_proto_handler b Ipv4.Proto.udp (fun _ _ -> incr got);
        Node.send a (udp_to ~src:a ~dst_addr:(Node.primary_addr b) Bytes.empty);
        Topology.run topo;
        check Alcotest.int "forwarded after reboot" 1 !got);
    Alcotest.test_case "an ARP retry on a retired interface drops iface-down"
      `Quick (fun () ->
        (* Figure 1: M sends to host 200 of its home net B, which never
           answers, and moves to net D before the first retry at 1.5 s.
           The retry's interface is gone, so the packet waiting on it
           is dropped — once — and the run goes on. *)
        let f = TG.figure1_plain () in
        let topo = f.TG.p_topo and m = f.TG.p_m in
        let drops = ref [] in
        Node.on_drop m (fun _ reason _ -> drops := reason :: !drops);
        let at sec f =
          ignore
            (Netsim.Engine.schedule (Topology.engine topo)
               ~at:(Time.of_sec sec) f)
        in
        at 1.0 (fun () ->
            Node.send m
              (udp_to ~src:m ~dst_addr:(Addr.host 2 200) (Bytes.make 8 'x')));
        at 1.1 (fun () -> Topology.move_host topo m f.TG.p_net_d);
        Topology.run ~until:(Time.of_sec 3.0) topo;
        check (Alcotest.list Alcotest.string) "drops" ["iface-down"] !drops);
    Alcotest.test_case "a host back on its LAN keeps its ARP wait" `Quick
      (fun () ->
        (* As above, but M comes back to net B at 1.2 s and sends to
           host 200 again at 1.3 s: the second packet joins the wait on
           the new interface and sends no request.  Host 200 appears
           at 1.4 s.  The retry at 1.5 s drops only the packet on the
           retired interface, asks on the live one, and the second
           packet is delivered. *)
        let f = TG.figure1_plain () in
        let topo = f.TG.p_topo and m = f.TG.p_m and net_b = f.TG.p_net_b in
        let home = Node.primary_addr m in
        let drops = ref [] and got = ref 0 in
        Node.on_drop m (fun _ reason _ -> drops := reason :: !drops);
        let at sec f =
          ignore
            (Netsim.Engine.schedule (Topology.engine topo)
               ~at:(Time.of_sec sec) f)
        in
        let send () =
          Node.send m
            (udp_to ~src:m ~dst_addr:(Addr.host 2 200) (Bytes.make 8 'x'))
        in
        at 1.0 send;
        at 1.1 (fun () -> Topology.move_host topo m f.TG.p_net_d);
        at 1.2 (fun () ->
            List.iter (fun (i, _, _) -> Node.detach m i) (Node.ifaces m);
            let i = Node.attach m ~addr:home net_b in
            Node.update_routes m (fun r ->
                Route.add r (Lan.prefix net_b) (Route.Direct i)));
        at 1.3 send;
        at 1.4 (fun () ->
            let x = Topology.add_host topo "X" net_b 200 in
            Node.set_proto_handler x Ipv4.Proto.udp (fun _ _ -> incr got));
        Topology.run ~until:(Time.of_sec 3.0) topo;
        check (Alcotest.list Alcotest.string) "drops" ["iface-down"] !drops;
        check Alcotest.int "the second packet delivered" 1 !got);
    Alcotest.test_case "an answered ARP wait's timer leaves the next wait alone"
      `Quick (fun () ->
        (* M sends to host 200 at 1.0 s, and host 200 answers.  At 1.1 s
           host 200 goes down, a probe drops M's entry, and M sends
           again: a new wait, whose retries are due at 1.6 s and 2.1 s
           and whose drop at 2.6 s.  The first wait's timer, due at
           1.5 s, is not its own: acting on it re-asked at 1.5 s and
           dropped the packet at 2.0 s. *)
        check_arp_timeline
          (arp_timeline (fun f ~at ~send ->
               let x = Topology.add_host f.TG.p_topo "X" f.TG.p_net_b 200 in
               Node.set_proto_handler x Ipv4.Proto.udp (fun _ _ -> ());
               at 1.0 send;
               at 1.1 (fun () ->
                   Node.set_up x false;
                   let i, _, _ = List.hd (Node.ifaces f.TG.p_m) in
                   Node.arp_probe f.TG.p_m ~iface:i (Node.primary_addr x);
                   send ())))
          ~asks:[1000; 1100; 1100; 1600; 2100] ~dropped_at:2600);
    Alcotest.test_case "a rebooted node's ARP timers leave its next wait alone"
      `Quick (fun () ->
        (* As above, but host 200 never answers and M reboots at 1.2 s,
           clearing its wait, then sends again at 1.3 s: retries at
           1.8 s and 2.3 s, the drop at 2.8 s.  The cleared wait's
           timer, due at 1.5 s, re-asked then and dropped the packet at
           2.0 s. *)
        check_arp_timeline
          (arp_timeline (fun f ~at ~send ->
               at 1.0 send;
               at 1.2 (fun () -> Node.reboot f.TG.p_m);
               at 1.3 send))
          ~asks:[1000; 1300; 1800; 2300] ~dropped_at:2800);
    Alcotest.test_case "a send to a MAC, then a move, drops iface-down"
      `Quick (fun () ->
        (* M hands R2 a packet for its MAC and leaves net B in the same
           event: when the processing delay ends, the interface is
           gone. *)
        let f = TG.figure1_plain () in
        let topo = f.TG.p_topo and m = f.TG.p_m and r2 = f.TG.p_r2 in
        let drops = ref [] in
        Node.on_drop m (fun _ reason _ -> drops := reason :: !drops);
        let r2_mac =
          Node.iface_mac r2
            (Option.get (Node.iface_to r2 (Lan.prefix f.TG.p_net_b)))
        in
        ignore
          (Netsim.Engine.schedule (Topology.engine topo)
             ~at:(Time.of_sec 1.0) (fun () ->
               let i, _, _ = List.hd (Node.ifaces m) in
               Node.send_wire_to_mac m ~iface:i ~dst_mac:r2_mac
                 (Packet.encode
                    (udp_to ~src:m ~dst_addr:(Node.primary_addr r2)
                       (Bytes.make 8 'x')));
               Topology.move_host topo m f.TG.p_net_d));
        Topology.run ~until:(Time.of_sec 2.0) topo;
        check (Alcotest.list Alcotest.string) "drops" ["iface-down"] !drops) ]

(* --- Routing computation --- *)

let routing_tests =
  [ Alcotest.test_case "hosts get routes to all reachable nets" `Quick
      (fun () ->
         let topo = Topology.create () in
         let l1 = Topology.add_lan topo ~net:1 "l1" in
         let l2 = Topology.add_lan topo ~net:2 "l2" in
         let l3 = Topology.add_lan topo ~net:3 "l3" in
         let _r1 = Topology.add_router topo "r1" [(l1, 1); (l2, 1)] in
         let _r2 = Topology.add_router topo "r2" [(l2, 2); (l3, 1)] in
         let a = Topology.add_host topo "a" l1 10 in
         Topology.compute_routes topo;
         check Alcotest.bool "direct l1" true
           (Route.lookup (Node.routes a) (Addr.host 1 5)
            = Some (Route.Direct 0));
         check Alcotest.bool "l2 via r1" true
           (Route.lookup (Node.routes a) (Addr.host 2 9)
            = Some (Route.Via (Addr.host 1 1)));
         check Alcotest.bool "l3 via r1 too" true
           (Route.lookup (Node.routes a) (Addr.host 3 9)
            = Some (Route.Via (Addr.host 1 1))));
    Alcotest.test_case "unreachable networks get no route" `Quick
      (fun () ->
         let topo = Topology.create () in
         let l1 = Topology.add_lan topo ~net:1 "l1" in
         let l9 = Topology.add_lan topo ~net:9 "l9" in
         let a = Topology.add_host topo "a" l1 10 in
         let _b = Topology.add_host topo "b" l9 10 in
         Topology.compute_routes topo;
         check Alcotest.bool "none" true
           (Route.lookup (Node.routes a) (Addr.host 9 10) = None));
    Alcotest.test_case "hosts are not transit" `Quick (fun () ->
        (* a - l1 - h(two ifaces, not router) - l2 - b : no path *)
        let topo = Topology.create () in
        let l1 = Topology.add_lan topo ~net:1 "l1" in
        let l2 = Topology.add_lan topo ~net:2 "l2" in
        let h = Topology.add_host topo "h" l1 5 in
        ignore (Node.attach h ~addr:(Addr.host 2 5) l2);
        let a = Topology.add_host topo "a" l1 10 in
        Topology.compute_routes topo;
        check Alcotest.bool "no route through host" true
          (Route.lookup (Node.routes a) (Addr.host 2 9) = None));
    Alcotest.test_case "path_length measures LAN traversals" `Quick
      (fun () ->
         let topo = Topology.create () in
         let l1 = Topology.add_lan topo ~net:1 "l1" in
         let l2 = Topology.add_lan topo ~net:2 "l2" in
         let l3 = Topology.add_lan topo ~net:3 "l3" in
         let _r1 = Topology.add_router topo "r1" [(l1, 1); (l2, 1)] in
         let _r2 = Topology.add_router topo "r2" [(l2, 2); (l3, 1)] in
         let a = Topology.add_host topo "a" l1 10 in
         Topology.compute_routes topo;
         check (Alcotest.option Alcotest.int) "to own lan" (Some 1)
           (Net.Routing.path_length ~nodes:(Topology.nodes topo) ~src:a
              ~dst_lan:l1);
         check (Alcotest.option Alcotest.int) "two routers away" (Some 3)
           (Net.Routing.path_length ~nodes:(Topology.nodes topo) ~src:a
              ~dst_lan:l3));
    Alcotest.test_case "move_host rewires attachment" `Quick (fun () ->
        let topo = Topology.create () in
        let l1 = Topology.add_lan topo ~net:1 "l1" in
        let l2 = Topology.add_lan topo ~net:2 "l2" in
        let m = Topology.add_host topo "m" l1 10 in
        Topology.compute_routes topo;
        let home = Node.primary_addr m in
        Node.add_address m home;
        Topology.move_host topo m l2;
        (match Node.ifaces m with
         | [(_, lan, addr)] ->
           check Alcotest.string "on l2" "l2" (Lan.name lan);
           check Alcotest.bool "no foreign addr" true (addr = None)
         | _ -> Alcotest.fail "expected one interface");
        Topology.move_host topo m l1;
        match Node.ifaces m with
        | [(_, lan, addr)] ->
          check Alcotest.string "back home" "l1" (Lan.name lan);
          check (Alcotest.option addr_testable) "home addr restored"
            (Some home) addr
        | _ -> Alcotest.fail "expected one interface");
    Alcotest.test_case "prebuilt graph answers like one-shot queries"
      `Quick (fun () ->
         let topo = Topology.create () in
         let l1 = Topology.add_lan topo ~net:1 "l1" in
         let l2 = Topology.add_lan topo ~net:2 "l2" in
         let l3 = Topology.add_lan topo ~net:3 "l3" in
         let _r1 = Topology.add_router topo "r1" [(l1, 1); (l2, 1)] in
         let _r2 = Topology.add_router topo "r2" [(l2, 2); (l3, 1)] in
         let a = Topology.add_host topo "a" l1 10 in
         let nodes = Topology.nodes topo in
         let g = Net.Routing.graph_of_nodes nodes in
         List.iter
           (fun dst_lan ->
              check (Alcotest.option Alcotest.int) (Lan.name dst_lan)
                (Net.Routing.path_length ~nodes ~src:a ~dst_lan)
                (Net.Routing.path_length_graph g ~src:a ~dst_lan))
           [l1; l2; l3]);
    Alcotest.test_case "compute_graph fills the same tables as compute"
      `Quick (fun () ->
         let build () =
           let topo = Topology.create () in
           let l1 = Topology.add_lan topo ~net:1 "l1" in
           let l2 = Topology.add_lan topo ~net:2 "l2" in
           let l3 = Topology.add_lan topo ~net:3 "l3" in
           let _ = Topology.add_router topo "r1" [(l1, 1); (l2, 1)] in
           let _ = Topology.add_router topo "r2" [(l2, 2); (l3, 1)] in
           let _ = Topology.add_host topo "a" l1 10 in
           topo
         in
         let t1 = build () and t2 = build () in
         Topology.compute_routes t1;  (* Routing.compute *)
         Net.Routing.compute_graph
           (Net.Routing.build ~nodes:(Topology.nodes t2)
              ~lans:(Topology.lans t2));
         List.iter2
           (fun n1 n2 ->
              let e1 = Route.entries (Node.routes n1)
              and e2 = Route.entries (Node.routes n2) in
              check Alcotest.int (Node.name n1 ^ " size")
                (List.length e1) (List.length e2);
              List.iter2
                (fun (a : Route.entry) (b : Route.entry) ->
                   check Alcotest.bool "entry" true
                     (Addr.Prefix.equal a.Route.prefix b.Route.prefix
                      && a.Route.target = b.Route.target))
                e1 e2)
           (Topology.nodes t1) (Topology.nodes t2)) ]

(* --- the route computation against its clique reference --- *)

(* [Routing.compute] as it was before it expanded each LAN once per
   source: one BFS per node over the LAN-adjacency clique, neighbours
   sorted by (node index, LAN name), and each table assembled by
   [Route.bulk].  The incidence search and its one-pass table writing
   must reproduce these tables entry for entry, order included. *)
module Clique_reference = struct
  let tables ~nodes ~lans =
    let nodes =
      List.sort (fun a b -> String.compare (Node.name a) (Node.name b)) nodes
      |> Array.of_list
    in
    let n = Array.length nodes in
    let seen = Hashtbl.create 16 in
    let uniq_lans =
      List.filter
        (fun lan ->
           if Hashtbl.mem seen (Lan.id lan) then false
           else begin
             Hashtbl.replace seen (Lan.id lan) ();
             true
           end)
        lans
    in
    let members_rev = Hashtbl.create 64 in
    Array.iteri
      (fun i node ->
         let seen_lans = ref [] in
         List.iter
           (fun (_, lan, _) ->
              let id = Lan.id lan in
              if not (List.mem id !seen_lans) then begin
                seen_lans := id :: !seen_lans;
                let prev =
                  Option.value ~default:[] (Hashtbl.find_opt members_rev id)
                in
                Hashtbl.replace members_rev id (i :: prev)
              end)
           (Node.ifaces node))
      nodes;
    let members lan =
      match Hashtbl.find_opt members_rev (Lan.id lan) with
      | Some l -> List.rev l
      | None -> []
    in
    let adj = Array.make n [] in
    List.iter
      (fun lan ->
         if Lan.is_up lan then begin
           let ms = members lan in
           List.iter
             (fun u ->
                List.iter
                  (fun v -> if u <> v then adj.(u) <- (v, lan) :: adj.(u))
                  ms)
             ms
         end)
      uniq_lans;
    Array.iteri
      (fun i l ->
         adj.(i) <-
           List.sort
             (fun (a, la) (b, lb) ->
                match Int.compare a b with
                | 0 -> String.compare (Lan.name la) (Lan.name lb)
                | c -> c)
             l)
      adj;
    let routers_on lan =
      List.filter (fun i -> Node.is_router nodes.(i)) (members lan)
    in
    let bfs s =
      let dist = Array.make n max_int and prev = Array.make n (-1)
      and via_lan = Array.make n None in
      dist.(s) <- 0;
      let q = Queue.create () in
      Queue.push s q;
      while not (Queue.is_empty q) do
        let u = Queue.pop q in
        if u = s || Node.is_router nodes.(u) then
          List.iter
            (fun (v, lan) ->
               if dist.(v) = max_int then begin
                 dist.(v) <- dist.(u) + 1;
                 prev.(v) <- u;
                 via_lan.(v) <- Some lan;
                 Queue.push v q
               end)
            adj.(u)
      done;
      (dist, prev, via_lan)
    in
    let addr_on node lan =
      List.find_map
        (fun (_, l, addr) -> if l == lan then addr else None)
        (Node.ifaces node)
    in
    let iface_on node lan =
      List.find_map
        (fun (i, l, _) -> if l == lan then Some i else None)
        (Node.ifaces node)
    in
    let first_hop prev s target =
      let rec walk v = if prev.(v) = s then v else walk prev.(v) in
      if prev.(target) = -1 then None
      else if target = s then None
      else Some (walk target)
    in
    Array.to_list
      (Array.mapi
         (fun s node ->
            let dist, prev, via_lan = bfs s in
            let pairs = ref [] in
            let add prefix target = pairs := (prefix, target) :: !pairs in
            List.iter
              (fun lan ->
                 if Lan.is_up lan then begin
                   let prefix = Lan.prefix lan in
                   match iface_on node lan with
                   | Some i -> add prefix (Route.Direct i)
                   | None ->
                     let best =
                       List.fold_left
                         (fun acc r ->
                            if dist.(r) = max_int then acc
                            else
                              match acc with
                              | None -> Some r
                              | Some b ->
                                if dist.(r) < dist.(b) then Some r else acc)
                         None (routers_on lan)
                     in
                     match best with
                     | None -> ()
                     | Some egress ->
                       let hop =
                         match first_hop prev s egress with
                         | Some h -> h
                         | None -> egress
                       in
                       let connecting =
                         if prev.(hop) = s then via_lan.(hop) else None
                       in
                       let connecting =
                         match connecting with
                         | Some l -> Some l
                         | None ->
                           List.find_map
                             (fun (v, l) -> if v = hop then Some l else None)
                             adj.(s)
                       in
                       match connecting with
                       | None -> ()
                       | Some l ->
                         match addr_on nodes.(hop) l with
                         | None -> ()
                         | Some gw -> add prefix (Route.Via gw)
                 end)
              lans;
            (node, Route.entries (Route.bulk (List.rev !pairs))))
         nodes)
end

(* Every node of [tables] holds, after [compute], exactly the
   reference's entries, in the reference's order. *)
let same_tables reference =
  List.for_all
    (fun (node, expected) ->
       let got = Route.entries (Node.routes node) in
       List.length got = List.length expected
       && List.for_all2
            (fun (a : Route.entry) (b : Route.entry) ->
               Addr.Prefix.equal a.Route.prefix b.Route.prefix
               && a.Route.target = b.Route.target)
            got expected)
    reference

let check_against_reference name ~nodes ~lans compute =
  let reference = Clique_reference.tables ~nodes ~lans in
  compute ();
  check Alcotest.bool name true (same_tables reference)

(* A random internetwork with the corners of the search and the table
   order: multi-homed routers (twice on one LAN, or once without an
   address), hosts made routers and hosts on a second LAN (with or
   without an address), LANs set down, duplicate nets, /16s among /24s,
   and LANs outside the topology whose names repeat its own.  Returns
   the topology and every LAN, those outside it included. *)
let random_world rs =
  let int n = Random.State.int rs n in
  let topo = Topology.create () in
  let pick a = a.(int (Array.length a)) in
  let lans =
    Array.init (1 + int 10) (fun i ->
        let name = "l" ^ string_of_int i in
        if int 5 = 0 then
          Topology.add_lan topo ~prefix_len:16 ~net:(0x100 * (1 + int 2)) name
        else Topology.add_lan topo ~net:(pick [| 1; 2; 3; 4; 5; 0x100; 0x101 |])
            name)
  in
  let outside =
    Array.init (int 3) (fun _ ->
        Lan.create ~engine:(Topology.engine topo)
          ~name:(Lan.name (pick lans))
          (Addr.net (pick [| 1; 2; 6; 0x100 |])))
  in
  let all = Array.append lans outside in
  let next_id = ref 0 in
  let fresh () = incr next_id; !next_id in
  for i = 0 to int 7 do
    let attachments =
      List.init (1 + int 3) (fun _ -> (pick all, fresh ()))
    in
    let r = Topology.add_router topo ("r" ^ string_of_int i) attachments in
    if int 6 = 0 then ignore (Node.attach r (pick all))
  done;
  for i = 0 to int 8 do
    let lan = pick all in
    let h =
      Topology.add_host topo ~router:(int 4 = 0) ("h" ^ string_of_int i) lan
        (fresh ())
    in
    if int 3 = 0 then begin
      let lan2 = pick all in
      let addr =
        if int 2 = 0 then None
        else Some (Addr.Prefix.host (Lan.prefix lan2) (fresh ()))
      in
      ignore (Node.attach h ?addr lan2)
    end
  done;
  Array.iter (fun lan -> if int 6 = 0 then Lan.set_up lan false) all;
  (topo, Array.to_list all)

let arb_world_seed =
  QCheck.(make ~print:string_of_int Gen.(int_bound 1_000_000))

let routing_reference_tests =
  [ QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:300
         ~name:"compute_routes = clique reference on random worlds"
         arb_world_seed (fun seed ->
             let rs = Random.State.make [| seed |] in
             let topo, _ = random_world rs in
             let nodes = Topology.nodes topo and lans = Topology.lans topo in
             let reference = Clique_reference.tables ~nodes ~lans in
             Topology.compute_routes topo;
             same_tables reference));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:300
         ~name:"compute = clique reference on LAN lists with repeats"
         arb_world_seed (fun seed ->
             (* Some of the nodes, and a LAN list that repeats LANs (as
                [graph_of_nodes] collects it from interfaces) and names
                LANs outside the topology. *)
             let rs = Random.State.make [| seed |] in
             let topo, all = random_world rs in
             let nodes =
               List.filter (fun _ -> Random.State.int rs 4 > 0)
                 (Topology.nodes topo)
             in
             let lans =
               List.concat_map
                 (fun n -> List.map (fun (_, l, _) -> l) (Node.ifaces n))
                 nodes
               @ List.filter (fun _ -> Random.State.bool rs) all
               @ List.filter (fun _ -> Random.State.bool rs) all
             in
             let reference = Clique_reference.tables ~nodes ~lans in
             Net.Routing.compute ~nodes ~lans;
             same_tables reference));
    Alcotest.test_case "campuses (/16 backbone) = clique reference" `Quick
      (fun () ->
         let w =
           TG.campuses ~backbone_prefix_len:16 ~campuses:256
             ~mobiles_per_campus:1 ~correspondents:3 ()
         in
         let topo = w.TG.c_topo in
         check_against_reference "campuses" ~nodes:(Topology.nodes topo)
           ~lans:(Topology.lans topo) (fun () -> Topology.compute_routes topo));
    Alcotest.test_case "regions with backups = clique reference" `Quick
      (fun () ->
         let w =
           TG.regions ~backups:true ~regions:3 ~cells:2 ~mobiles_per_region:2
             ~correspondents:2 ()
         in
         let topo = w.TG.rg_topo in
         check_against_reference "regions" ~nodes:(Topology.nodes topo)
           ~lans:(Topology.lans topo) (fun () -> Topology.compute_routes topo));
    Alcotest.test_case "figure1 = clique reference" `Quick (fun () ->
        let topo = (TG.figure1 ()).TG.topo in
        check_against_reference "figure1" ~nodes:(Topology.nodes topo)
          ~lans:(Topology.lans topo) (fun () -> Topology.compute_routes topo)) ]

(* --- Topology registration cost --- *)

let topology_tests =
  [ Alcotest.test_case "1000 registrations cost O(1) each" `Quick
      (fun () ->
         (* Regression guard for the list-append registration path: the
            operation counter must grow by exactly one per add (hashtable
            probe + cons), not by a list-length scan.  Counting ops keeps
            the test deterministic where a wall-clock budget would flake
            in CI. *)
         let topo = Topology.create () in
         let bb = Topology.add_lan topo ~net:0xFF00 ~prefix_len:16 "bb" in
         for i = 1 to 1000 do
           ignore (Topology.add_host topo ("h" ^ string_of_int i) bb i)
         done;
         check Alcotest.int "one op per registration" 1001
           (Topology.registration_ops topo);
         check Alcotest.int "all registered" 1000
           (List.length (Topology.nodes topo));
         (* creation-order accessor and name index agree *)
         check Alcotest.string "creation order" "h1"
           (Node.name (List.nth (Topology.nodes topo) 0));
         check Alcotest.string "index lookup" "h500"
           (Node.name (Topology.node topo "h500")));
    Alcotest.test_case "wide backbone prefix addresses 1000 hosts" `Quick
      (fun () ->
         let topo = Topology.create () in
         let bb = Topology.add_lan topo ~net:0xFF00 ~prefix_len:16 "bb" in
         let h = Topology.add_host topo "h" bb 999 in
         check Alcotest.bool "host id above /24 range" true
           (Ipv4.Addr.Prefix.mem (Node.primary_addr h) (Lan.prefix bb));
         check Alcotest.bool "duplicate name rejected" true
           (try
              ignore (Topology.add_host topo "h" bb 1);
              false
            with Invalid_argument _ -> true)) ]

(* --- allocation: lookups every received or routed packet runs --- *)

let node_alloc_tests =
  [ Alcotest.test_case "address and next-hop interface lookups allocate 0"
      `Quick (fun () ->
        let topo = Topology.create () in
        let lans =
          List.init 4 (fun k ->
              Topology.add_lan topo ~net:(k + 1) (Printf.sprintf "l%d" k))
        in
        let r =
          Topology.add_router topo "r" (List.map (fun l -> (l, 1)) lans)
        in
        Node.add_address r (Addr.host 9 1);
        Node.add_address r (Addr.host 9 2);
        (* on the last interface, the last extra address, nobody's *)
        let addrs = [| Addr.host 4 1; Addr.host 9 2; Addr.host 4 2 |] in
        let hops = [| Addr.host 4 7; Addr.host 1 7; Addr.host 8 7 |] in
        let words =
          let w0 = Gc.minor_words () in
          for i = 0 to 2999 do
            ignore (Sys.opaque_identity (Node.has_address r addrs.(i mod 3)));
            ignore
              (Sys.opaque_identity (Node.iface_for_next_hop r hops.(i mod 3)))
          done;
          Gc.minor_words () -. w0
        in
        check (Alcotest.float 0.0) "minor words" 0.0 words;
        check (Alcotest.list Alcotest.bool) "has_address" [true; true; false]
          (List.map (Node.has_address r) (Array.to_list addrs));
        check (Alcotest.list Alcotest.int) "next-hop interface" [3; 0; -1]
          (List.map (Node.iface_for_next_hop r) (Array.to_list hops)));
    Alcotest.test_case "interface and address lists allocate 0 after 100 moves"
      `Quick (fun () ->
        (* A mobile host keeps its home address as an extra address and
           gains an interface per move; asking for its lists must not
           walk the retired ones. *)
        let topo = Topology.create () in
        let home = Topology.add_lan topo ~net:1 "home" in
        let away = Topology.add_lan topo ~net:2 "away" in
        let h = Topology.add_host topo "h" home 10 in
        let home_addr = Node.primary_addr h in
        Node.add_address h home_addr;
        for k = 1 to 100 do
          Topology.move_host topo h (if k mod 2 = 1 then away else home)
        done;
        let words =
          let w0 = Gc.minor_words () in
          for _ = 1 to 1000 do
            ignore (Sys.opaque_identity (Node.ifaces h));
            ignore (Sys.opaque_identity (Node.addresses h));
            ignore (Sys.opaque_identity (Node.primary_addr h));
            ignore (Sys.opaque_identity (Node.has_address h home_addr))
          done;
          Gc.minor_words () -. w0
        in
        check (Alcotest.float 0.0) "minor words" 0.0 words;
        (match Node.ifaces h with
         | [(i, lan, addr)] ->
           check Alcotest.int "newest interface" 100 i;
           check Alcotest.string "on the home LAN" "home" (Lan.name lan);
           check Alcotest.bool "home address on the interface" true
             (addr = Some home_addr)
         | l ->
           Alcotest.failf "%d active interfaces, expected 1" (List.length l));
        check Alcotest.bool "home address first" true
          (match Node.addresses h with
           | a :: _ -> Addr.equal a home_addr
           | [] -> false);
        check Alcotest.bool "primary" true
          (Addr.equal (Node.primary_addr h) home_addr);
        check Alcotest.bool "has home address" true
          (Node.has_address h home_addr);
        check Alcotest.bool "not an away address" false
          (Node.has_address h (Addr.host 2 10)));
    Alcotest.test_case "an extra forwarded hop allocates only its frame"
      `Quick (fun () ->
        (* S sends a burst of datagrams to D across [k] plain routers.
           Between chains of 8 and 16 routers, each datagram makes 8
           more hops and everything else is the same, so the difference
           in words is the cost of those hops: the 6-word frame a hop
           puts on its LAN, and nothing for its delivery and
           processing-delay events, its view or its route lookup. *)
        let packets = 2000 in
        let chain_words k =
          let topo = Topology.create ~seed:11 () in
          let lans =
            Array.init (k + 1) (fun j ->
                Topology.add_lan topo ~net:(j + 1) (Printf.sprintf "n%d" j))
          in
          for j = 0 to k - 1 do
            ignore
              (Topology.add_router topo (Printf.sprintf "r%d" j)
                 [(lans.(j), 2); (lans.(j + 1), 1)])
          done;
          let s = Topology.add_host topo "s" lans.(0) 10 in
          let d = Topology.add_host topo "d" lans.(k) 10 in
          Topology.compute_routes topo;
          let received = ref 0 in
          Node.set_proto_handler d Ipv4.Proto.udp (fun _ _ -> incr received);
          let pkt =
            Packet.make ~proto:Ipv4.Proto.udp ~src:(Node.primary_addr s)
              ~dst:(Node.primary_addr d) (Bytes.make 44 'x')
          in
          (* one datagram warms every ARP cache on the path *)
          Node.send s pkt;
          Topology.run ~until:(Time.of_sec 0.5) topo;
          let w0 = Gc.minor_words () in
          for _ = 1 to packets do Node.send s pkt done;
          Topology.run ~until:(Time.of_sec 5.0) topo;
          let words = Gc.minor_words () -. w0 in
          check Alcotest.int
            (Printf.sprintf "delivered across %d routers" k)
            (packets + 1) !received;
          words
        in
        let per_hop =
          (chain_words 16 -. chain_words 8) /. float_of_int (8 * packets)
        in
        check Alcotest.bool
          (Printf.sprintf "%.2f words per extra hop" per_hop)
          true (per_hop <= 6.0));
    Alcotest.test_case
      "a detach, an attach and a broadcast on a 32-station LAN sort nothing"
      `Quick (fun () ->
        (* Fan-out walks the MAC-ordered station list that attach and
           detach keep.  Re-attaching the 16th station copies the 15
           list cells before it twice and adds its own (3 words each),
           plus one hashtable cell (4 words); the broadcast after it
           allocates nothing.  Re-sorting the membership instead costs
           about 700 words on the first broadcast after every change. *)
        let engine = Netsim.Engine.create () in
        let lan = Lan.create ~engine ~name:"cell" (Addr.net 1) in
        let heard = ref 0 in
        let station _ = incr heard in
        for k = 1 to 32 do
          Lan.attach lan (Mac.of_int (2 * k)) station
        done;
        let frame =
          Net.Frame.ip ~src:(Mac.of_int 1) ~dst:Mac.broadcast
            (Bytes.create 28)
        in
        Lan.send lan frame;
        Netsim.Engine.run engine;
        let mid = Mac.of_int 32 in
        let w0 = Gc.minor_words () in
        Lan.detach lan mid;
        Lan.attach lan mid station;
        let w1 = Gc.minor_words () in
        Lan.send lan frame;
        Netsim.Engine.run engine;
        let w2 = Gc.minor_words () in
        check Alcotest.int "every station heard both" 64 !heard;
        check (Alcotest.list Alcotest.int) "MAC order"
          (List.init 32 (fun k -> 2 * (k + 1)))
          (List.map Mac.to_int (Lan.stations lan));
        check (Alcotest.float 0.0) "broadcast words" 0.0 (w2 -. w1);
        check Alcotest.bool
          (Printf.sprintf "%.0f words for the detach and attach" (w1 -. w0))
          true
          (w1 -. w0 <= float_of_int ((3 * ((2 * 15) + 1)) + 4)));
    Alcotest.test_case
      "a host's moves 1,001-1,100 cost what its moves 11-110 do" `Quick
      (fun () ->
        (* Words put on the major heap count too: a table of every
           interface the host ever had, copied at each attach, costs
           its 1,000th move over 1,000 words there. *)
        let topo = Topology.create () in
        let home = Topology.add_lan topo ~net:1 "home" in
        let away = Topology.add_lan topo ~net:2 "away" in
        let h = Topology.add_host topo "h" home 10 in
        Node.add_address h (Node.primary_addr h);
        let move k =
          Topology.move_host topo h (if k mod 2 = 1 then away else home)
        in
        let allocated () =
          let _, promoted, major = Gc.counters () in
          Gc.minor_words () +. major -. promoted
        in
        let per_move first last =
          let w0 = allocated () in
          for k = first to last do move k done;
          (allocated () -. w0) /. float_of_int (last - first + 1)
        in
        for k = 1 to 10 do move k done;
        let early = per_move 11 110 in
        for k = 111 to 1000 do move k done;
        let late = per_move 1001 1100 in
        check Alcotest.bool
          (Printf.sprintf "%.1f words per late move, %.1f per early one" late
             early)
          true (late <= early +. 2.0);
        check Alcotest.int "one interface" 1 (List.length (Node.ifaces h)));
    Alcotest.test_case "send_wire_to_mac and broadcast_ip allocate their frame"
      `Quick (fun () ->
        (* Each builds its 6-word frame at the call, and the
           processing-delay event is the call of a top-level function
           on the interface and the frame.  Scheduling a closure that
           builds the frame when it fires costs 13 words per send.  The
           frames go to a MAC nobody holds, or out on an otherwise empty
           LAN, so delivery costs nothing. *)
        let topo = Topology.create () in
        let lan = Topology.add_lan topo ~net:1 "l" in
        let h = Topology.add_host topo "h" lan 1 in
        let i, _, _ = List.hd (Node.ifaces h) in
        let wire =
          Packet.encode
            (udp_to ~src:h ~dst_addr:(Addr.host 1 2) (Bytes.make 8 'x'))
        in
        let nobody = Mac.of_int 0x777 in
        let n = 1000 in
        let per_send f =
          let w0 = Gc.minor_words () in
          for _ = 1 to n do f () done;
          Topology.run topo;
          (Gc.minor_words () -. w0) /. float_of_int n
        in
        let unicast () =
          Node.send_wire_to_mac h ~iface:i ~dst_mac:nobody wire
        in
        let broadcast () = Node.broadcast_ip h ~iface:i wire in
        (* the first rounds grow the event queue to the burst's depth *)
        ignore (per_send unicast);
        ignore (per_send broadcast);
        let unicast_words = per_send unicast in
        let broadcast_words = per_send broadcast in
        check Alcotest.int "frames" (4 * n) (Lan.frames_sent lan);
        check Alcotest.bool
          (Printf.sprintf "%.1f words per send_wire_to_mac" unicast_words)
          true (unicast_words <= 6.0);
        check Alcotest.bool
          (Printf.sprintf "%.1f words per broadcast_ip" broadcast_words)
          true (broadcast_words <= 6.0)) ]

let suite =
  [ ("mac", mac_tests); ("arp-frame", arp_tests); ("lan", lan_tests);
    ("route", route_tests); ("node", node_tests);
    ("node-alloc", node_alloc_tests);
    ("routing", routing_tests);
    ("routing-reference", routing_reference_tests);
    ("topology", topology_tests) ]
