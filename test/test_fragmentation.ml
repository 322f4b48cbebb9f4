(* Tests for IP fragmentation and reassembly, and its interaction with
   tunneling: encapsulation overhead can push a packet past a link MTU,
   which is part of why the paper stresses MHRP's "significant savings in
   space overhead". *)

module Time = Netsim.Time
module Addr = Ipv4.Addr
module Packet = Ipv4.Packet
module Node = Net.Node
module Topology = Net.Topology
module Agent = Mhrp.Agent
module TG = Workload.Topo_gen

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let mk ?(id = 1) ?dont_fragment ~size () =
  Packet.make ~id ?dont_fragment ~proto:Ipv4.Proto.udp ~src:(Addr.host 1 1)
    ~dst:(Addr.host 2 2)
    (Bytes.init size (fun i -> Char.chr (i land 0xFF)))

let unit_tests =
  [ Alcotest.test_case "small packets pass through unchanged" `Quick
      (fun () ->
         let pkt = mk ~size:100 () in
         check Alcotest.int "one piece" 1
           (List.length (Packet.fragment pkt ~mtu:1500)));
    Alcotest.test_case "fragments fit the mtu and cover the payload"
      `Quick (fun () ->
          let pkt = mk ~size:1000 () in
          let frags = Packet.fragment pkt ~mtu:300 in
          check Alcotest.bool "several" true (List.length frags > 1);
          List.iter
            (fun f ->
               check Alcotest.bool "fits" true
                 (Packet.total_length f <= 300))
            frags;
          let covered =
            List.fold_left
              (fun acc f -> acc + Bytes.length f.Packet.payload)
              0 frags
          in
          check Alcotest.int "every byte present" 1000 covered;
          (* only the last fragment clears more_fragments *)
          let rec last = function
            | [] -> Alcotest.fail "empty"
            | [x] -> x
            | _ :: rest -> last rest
          in
          check Alcotest.bool "last clears MF" false
            (last frags).Packet.more_fragments;
          check Alcotest.bool "others set MF" true
            (List.for_all
               (fun f -> f.Packet.more_fragments)
               (List.filteri
                  (fun i _ -> i < List.length frags - 1)
                  frags)));
    Alcotest.test_case "df refuses to fragment" `Quick (fun () ->
        let pkt = mk ~dont_fragment:true ~size:1000 () in
        Alcotest.check_raises "df"
          (Invalid_argument "Packet.fragment: dont_fragment set") (fun () ->
            ignore (Packet.fragment pkt ~mtu:300)));
    Alcotest.test_case "fragment wire roundtrip keeps flags" `Quick
      (fun () ->
         let pkt = mk ~size:600 () in
         let frags = Packet.fragment pkt ~mtu:300 in
         List.iter
           (fun f ->
              let d = Packet.decode (Packet.encode f) in
              check Alcotest.int "offset" f.Packet.frag_offset
                d.Packet.frag_offset;
              check Alcotest.bool "mf" f.Packet.more_fragments
                d.Packet.more_fragments)
           frags);
    Alcotest.test_case "reassembly restores the original payload" `Quick
      (fun () ->
         let pkt = mk ~size:777 () in
         let frags = Packet.fragment pkt ~mtu:256 in
         let r = Packet.Reassembly.create () in
         let result =
           List.fold_left
             (fun acc f ->
                match Packet.Reassembly.add r ~now:0 f with
                | Some whole -> Some whole
                | None -> acc)
             None frags
         in
         match result with
         | Some whole ->
           check Alcotest.string "payload"
             (Bytes.to_string pkt.Packet.payload)
             (Bytes.to_string whole.Packet.payload);
           check Alcotest.bool "not a fragment" false
             (Packet.is_fragment whole)
         | None -> Alcotest.fail "never completed");
    Alcotest.test_case "reassembly works out of order" `Quick (fun () ->
        let pkt = mk ~size:777 () in
        let frags = List.rev (Packet.fragment pkt ~mtu:256) in
        let r = Packet.Reassembly.create () in
        let result =
          List.fold_left
            (fun acc f ->
               match Packet.Reassembly.add r ~now:0 f with
               | Some whole -> Some whole
               | None -> acc)
            None frags
        in
        check Alcotest.bool "completed" true (result <> None));
    Alcotest.test_case "incomplete buffers expire" `Quick (fun () ->
        let pkt = mk ~size:777 () in
        let frags = Packet.fragment pkt ~mtu:256 in
        let r = Packet.Reassembly.create () in
        (match frags with
         | first :: _ ->
           ignore (Packet.Reassembly.add r ~now:0 first)
         | [] -> Alcotest.fail "no fragments");
        check Alcotest.int "pending" 1 (Packet.Reassembly.pending r);
        let dropped =
          Packet.Reassembly.expire r ~now:31_000_000
            ~older_than_us:30_000_000
        in
        check Alcotest.int "expired" 1 dropped;
        check Alcotest.int "cleared" 0 (Packet.Reassembly.pending r));
    Alcotest.test_case "duplicated fragments are harmless" `Quick
      (fun () ->
         let pkt = mk ~size:700 () in
         let frags = Packet.fragment pkt ~mtu:256 in
         let r = Packet.Reassembly.create () in
         (* feed every fragment twice, interleaved *)
         let result =
           List.fold_left
             (fun acc f ->
                let first = Packet.Reassembly.add r ~now:0 f in
                let second = Packet.Reassembly.add r ~now:0 f in
                match first, second, acc with
                | Some w, _, _ | _, Some w, _ -> Some w
                | _, _, old -> old)
             None frags
         in
         match result with
         | Some whole ->
           check Alcotest.string "payload"
             (Bytes.to_string pkt.Packet.payload)
             (Bytes.to_string whole.Packet.payload)
         | None -> Alcotest.fail "never completed");
    qtest
      (QCheck.Test.make
         ~name:"fragment/reassemble identity (random sizes and MTUs)"
         ~count:200
         QCheck.(pair (int_range 1 4000) (int_range 96 1500))
         (fun (size, mtu) ->
            let pkt = mk ~size () in
            let frags = Packet.fragment pkt ~mtu in
            let r = Packet.Reassembly.create () in
            let result =
              List.fold_left
                (fun acc f ->
                   match Packet.Reassembly.add r ~now:0 f with
                   | Some whole -> Some whole
                   | None -> acc)
                None frags
            in
            match result with
            | Some whole ->
              Bytes.equal whole.Packet.payload pkt.Packet.payload
            | None -> false)) ]

let e2e_tests =
  [ Alcotest.test_case
      "large datagram crosses a small-MTU link and reassembles" `Quick
      (fun () ->
         let topo = Topology.create () in
         let l1 = Topology.add_lan topo ~net:1 "l1" in
         let l2 = Topology.add_lan topo ~net:2 ~mtu:300 "l2-narrow" in
         let _r = Topology.add_router topo "r" [(l1, 1); (l2, 1)] in
         let a = Topology.add_host topo "a" l1 10 in
         let b = Topology.add_host topo "b" l2 10 in
         Topology.compute_routes topo;
         let got = ref None in
         Node.set_proto_handler b Ipv4.Proto.udp (fun _ v ->
             let pkt = Packet.View.decode v in
             got := Some pkt);
         let data = Bytes.init 900 (fun i -> Char.chr (i land 0xFF)) in
         Node.send a
           (Packet.make ~id:9 ~proto:Ipv4.Proto.udp
              ~src:(Node.primary_addr a) ~dst:(Node.primary_addr b)
              (Ipv4.Udp.encode
                 (Ipv4.Udp.make ~src_port:1 ~dst_port:2 data)));
         Topology.run topo;
         match !got with
         | Some pkt ->
           let udp = Ipv4.Udp.decode pkt.Packet.payload in
           check Alcotest.string "payload intact" (Bytes.to_string data)
             (Bytes.to_string udp.Ipv4.Udp.data)
         | None -> Alcotest.fail "not delivered");
    Alcotest.test_case
      "fragments that reassemble past 65535 bytes are dropped" `Quick
      (fun () ->
         (* each fragment is a legal packet, but the whole has no wire
            form to hand the handler *)
         let topo = Topology.create () in
         let l = Topology.add_lan topo ~net:1 "l" in
         let b = Topology.add_host topo "b" l 10 in
         let got = ref 0 in
         Node.set_proto_handler b Ipv4.Proto.udp (fun _ _ -> incr got);
         let fragment ~frag_offset ~more_fragments size =
           Packet.make ~id:3 ~more_fragments ~frag_offset
             ~proto:Ipv4.Proto.udp ~src:(Addr.host 1 1)
             ~dst:(Node.primary_addr b) (Bytes.make size 'x')
         in
         Node.inject_local b
           (fragment ~frag_offset:0 ~more_fragments:true 65512);
         Node.inject_local b
           (fragment ~frag_offset:65512 ~more_fragments:false 24);
         check Alcotest.int "not delivered" 0 !got;
         check Alcotest.int "dropped" 1 (Node.packets_dropped b));
    Alcotest.test_case
      "tunnel overhead alone pushes a full-MTU packet into fragmentation"
      `Quick (fun () ->
          (* wireless cell with the same 1500 MTU: a 1500-byte datagram
             fits plain but fragments once the 12-byte MHRP header is
             added *)
          let f = TG.figure1 () in
          let topo = f.TG.topo in
          let metrics = Workload.Metrics.create topo in
          let traffic =
            Workload.Traffic.create metrics (Topology.engine topo)
          in
          Workload.Metrics.watch_receiver metrics f.TG.m;
          let m_addr = Agent.address f.TG.m in
          let payload = 1500 - 20 - 8 in (* exactly MTU-sized datagram *)
          Workload.Traffic.at traffic (Time.of_sec 0.5) (fun () ->
              Workload.Traffic.send_udp traffic ~src:f.TG.s ~dst:m_addr
                ~size:payload ());
          Workload.Mobility.move_at topo f.TG.m ~at:(Time.of_sec 1.0)
            f.TG.net_d;
          Workload.Traffic.at traffic (Time.of_sec 2.0) (fun () ->
              Workload.Traffic.send_udp traffic ~src:f.TG.s ~dst:m_addr
                ~size:payload ());
          Topology.run ~until:(Time.of_sec 4.0) topo;
          let rs = Workload.Metrics.records metrics in
          check Alcotest.bool "at home: delivered unfragmented" true
            ((List.nth rs 0).Workload.Metrics.delivered_at <> None);
          check Alcotest.bool "away: delivered via fragmentation" true
            ((List.nth rs 1).Workload.Metrics.delivered_at <> None);
          (* the tunneled one crossed more frames than LAN hops: its
             tunnel leg was fragmented *)
          check Alcotest.bool "extra frames observed" true
            ((List.nth rs 1).Workload.Metrics.hops
             > (List.nth rs 0).Workload.Metrics.hops)) ]

let suite =
  [ ("fragmentation", unit_tests); ("fragmentation-e2e", e2e_tests) ]
