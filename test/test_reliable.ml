(* Tests for the reliable-transfer workload: the "transparent above IP"
   demonstration.  A window/retransmission transport — unmodified, unaware
   of mobility — must complete across hand-offs, home-agent triangles,
   returns home, and even a foreign-agent crash. *)

module Time = Netsim.Time
module Topology = Net.Topology
module Node = Net.Node
module Agent = Mhrp.Agent
module TG = Workload.Topo_gen

let check = Alcotest.check

let setup () = TG.figure1 ()

let reliable_tests =
  [ Alcotest.test_case "transfer to a stationary mobile host" `Quick
      (fun () ->
         let f = setup () in
         let xfer =
           Workload.Reliable.start ~sender:f.TG.s ~receiver:f.TG.m
             ~bytes:8192 ~at:(Time.of_sec 0.5) ()
         in
         Topology.run ~until:(Time.of_sec 10.0) f.TG.topo;
         check Alcotest.bool "complete" true (Workload.Reliable.complete xfer);
         check Alcotest.bool "intact" true
           (Workload.Reliable.received_ok xfer);
         let s = Workload.Reliable.stats xfer in
         check Alcotest.int "no retransmissions at home" 0
           s.Workload.Reliable.retransmissions);
    Alcotest.test_case "transfer survives a hand-off mid-stream" `Quick
      (fun () ->
         let f = setup () in
         let xfer =
           Workload.Reliable.start ~sender:f.TG.s ~receiver:f.TG.m
             ~bytes:65536 ~window:4 ~at:(Time.of_sec 0.5) ()
         in
         (* move while the window is in flight *)
         Workload.Mobility.move_at f.TG.topo f.TG.m ~at:(Time.of_sec 0.6)
           f.TG.net_d;
         Topology.run ~until:(Time.of_sec 30.0) f.TG.topo;
         check Alcotest.bool "complete" true (Workload.Reliable.complete xfer);
         check Alcotest.bool "intact" true
           (Workload.Reliable.received_ok xfer);
         (* the hand-off cost at most retransmissions, never the
            connection: above-IP software needed no change (Section 1) *)
         let s = Workload.Reliable.stats xfer in
         check Alcotest.bool "needed some retransmissions" true
           (s.Workload.Reliable.retransmissions > 0));
    Alcotest.test_case "transfer survives moving away AND returning home"
      `Quick (fun () ->
          let f = setup () in
          let xfer =
            Workload.Reliable.start ~sender:f.TG.s ~receiver:f.TG.m
              ~bytes:131072 ~window:4 ~at:(Time.of_sec 0.5) ()
          in
          Workload.Mobility.itinerary f.TG.topo f.TG.m
            [ (Time.of_sec 1.0, f.TG.net_d);
              (Time.of_sec 3.0, f.TG.net_b) ];
          Topology.run ~until:(Time.of_sec 60.0) f.TG.topo;
          check Alcotest.bool "complete" true
            (Workload.Reliable.complete xfer);
          check Alcotest.bool "intact" true
            (Workload.Reliable.received_ok xfer));
    Alcotest.test_case "transfer survives a foreign-agent crash" `Quick
      (fun () ->
         let f = setup () in
         Workload.Mobility.move_at f.TG.topo f.TG.m ~at:(Time.of_sec 0.5)
           f.TG.net_d;
         let xfer =
           Workload.Reliable.start ~sender:f.TG.s ~receiver:f.TG.m
             ~bytes:32768 ~window:4 ~at:(Time.of_sec 1.0) ()
         in
         ignore
           (Netsim.Engine.schedule (Topology.engine f.TG.topo)
              ~at:(Time.of_sec 1.5) (fun () ->
                  Node.crash_for (Agent.node f.TG.r4) (Time.of_sec 1.0)));
         Topology.run ~until:(Time.of_sec 60.0) f.TG.topo;
         check Alcotest.bool "complete" true (Workload.Reliable.complete xfer);
         check Alcotest.bool "intact" true
           (Workload.Reliable.received_ok xfer));
    Alcotest.test_case "fragmented transfer: fresh IP ID per transmission"
      `Quick (fun () ->
          (* Chunks larger than the 1500-byte MTU fragment on every hop, so
             reassembly keys (src, id, proto) are load-bearing.  Regression:
             IDs derived from the chunk number made every go-back-N
             retransmission reuse its original transmission's ID while
             fragments of that transmission could still sit in reassembly
             buffers.  Each transmission must carry a distinct ID. *)
          let f = setup () in
          Workload.Mobility.move_at f.TG.topo f.TG.m ~at:(Time.of_sec 0.5)
            f.TG.net_d;
          let xfer =
            Workload.Reliable.start ~sender:f.TG.s ~receiver:f.TG.m
              ~chunk:2048 ~window:4 ~bytes:32768 ~at:(Time.of_sec 1.0) ()
          in
          (* crash the serving foreign agent while the first window is in
             flight, forcing go-back-N retransmissions *)
          ignore
            (Netsim.Engine.schedule (Topology.engine f.TG.topo)
               ~at:(Time.of_ms 1001) (fun () ->
                   Node.crash_for (Agent.node f.TG.r4) (Time.of_sec 1.0)));
          let ids = ref [] and frags = ref 0 in
          (* sender-built tunnels keep the inner ID but carry proto mhrp *)
          Node.on_transmit (Agent.node f.TG.s) (fun _ pkt ->
              if pkt.Ipv4.Packet.proto = Ipv4.Proto.tcp
                 || pkt.Ipv4.Packet.proto = Ipv4.Proto.mhrp
              then begin
                if Ipv4.Packet.is_fragment pkt then incr frags;
                (* the offset-0 fragment marks one transmission *)
                if pkt.Ipv4.Packet.frag_offset = 0 then
                  ids := pkt.Ipv4.Packet.id :: !ids
              end);
          Topology.run ~until:(Time.of_sec 30.0) f.TG.topo;
          check Alcotest.bool "complete" true (Workload.Reliable.complete xfer);
          check Alcotest.bool "intact" true
            (Workload.Reliable.received_ok xfer);
          let s = Workload.Reliable.stats xfer in
          check Alcotest.bool "needed some retransmissions" true
            (s.Workload.Reliable.retransmissions > 0);
          check Alcotest.bool "chunks actually fragmented" true (!frags > 0);
          check Alcotest.int "one distinct IP ID per transmission"
            (List.length !ids)
            (List.length (List.sort_uniq compare !ids)));
    Alcotest.test_case "mobile-to-mobile transfer, both away" `Quick
      (fun () ->
         let c =
           TG.campuses ~campuses:2 ~mobiles_per_campus:1 ~correspondents:0
             ()
         in
         let m0 = c.TG.c_mobiles.(0) and m1 = c.TG.c_mobiles.(1) in
         Workload.Mobility.move_at c.TG.c_topo m0 ~at:(Time.of_sec 0.5)
           c.TG.c_cells.(1);
         Workload.Mobility.move_at c.TG.c_topo m1 ~at:(Time.of_sec 0.5)
           c.TG.c_cells.(0);
         let xfer =
           Workload.Reliable.start ~sender:m0 ~receiver:m1 ~bytes:16384
             ~at:(Time.of_sec 2.0) ()
         in
         Topology.run ~until:(Time.of_sec 30.0) c.TG.c_topo;
         check Alcotest.bool "complete" true (Workload.Reliable.complete xfer);
         check Alcotest.bool "intact" true
           (Workload.Reliable.received_ok xfer)) ]

let suite = [ ("reliable-transfer", reliable_tests) ]
