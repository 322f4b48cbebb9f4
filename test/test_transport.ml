(* Tests for the connection-oriented transport: the socket state machine
   (handshake, sliding window, RTO recovery, teardown), the datagram
   endpoint, and the segment codec's totality — including the headline
   property that a stream delivers exactly its bytes, in order, without
   duplicates, under seeded link loss. *)

module Time = Netsim.Time
module Engine = Netsim.Engine
module Topology = Net.Topology
module Agent = Mhrp.Agent
module TG = Workload.Topo_gen
module Stack = Transport.Stack
module Socket = Transport.Socket
module Tcp = Ipv4.Tcp_lite

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let setup () =
  let f = TG.figure1 () in
  Netsim.Trace.set_enabled (Topology.trace f.TG.topo) false;
  f

let at topo sec f =
  ignore (Engine.schedule (Topology.engine topo) ~at:(Time.of_sec sec) f)

(* --- socket basics --- *)

let socket_tests =
  [ Alcotest.test_case "handshake, echo stream, orderly close" `Quick
      (fun () ->
         let f = setup () in
         let server = Stack.create f.TG.m in
         let client = Stack.create f.TG.s in
         (* server echoes everything back *)
         ignore
           (Socket.listen server ~port:7 (fun sock ->
                Socket.recv_cb sock (fun b -> Socket.send sock b);
                Socket.on_peer_close sock (fun () -> Socket.close sock)));
         let echoed = Buffer.create 64 in
         let established = ref false in
         let closed = ref false in
         at f.TG.topo 1.0 (fun () ->
             let sock =
               Socket.connect client ~dst:(Agent.address f.TG.m) ~dst_port:7
                 ()
             in
             Socket.on_established sock (fun () -> established := true);
             Socket.recv_cb sock (fun b -> Buffer.add_bytes echoed b);
             Socket.on_closed sock (fun () -> closed := true);
             Socket.send sock (Bytes.of_string "hello through MHRP");
             Socket.on_drained sock (fun () -> Socket.close sock));
         Topology.run ~until:(Time.of_sec 10.0) f.TG.topo;
         check Alcotest.bool "established" true !established;
         check Alcotest.string "echo" "hello through MHRP"
           (Buffer.contents echoed);
         check Alcotest.bool "closed" true !closed;
         let c = Stack.counters client in
         check Alcotest.int "no retransmissions at home" 0
           c.Transport.Counters.retransmissions;
         check Alcotest.int "client opened one" 1
           c.Transport.Counters.conns_opened;
         check Alcotest.int "client orderly close" 1
           c.Transport.Counters.conns_closed;
         check Alcotest.int "server accepted one" 1
           (Stack.counters server).Transport.Counters.conns_accepted);
    Alcotest.test_case "connect to a dead port is reset" `Quick (fun () ->
        let f = setup () in
        (* the server stack listens on 7 only; 9 has nobody *)
        let server = Stack.create f.TG.m in
        ignore (Socket.listen server ~port:7 (fun _ -> ()));
        let client = Stack.create f.TG.s in
        let error = ref "" in
        at f.TG.topo 1.0 (fun () ->
            let sock =
              Socket.connect client ~dst:(Agent.address f.TG.m) ~dst_port:9 ()
            in
            Socket.on_error sock (fun e -> error := e));
        Topology.run ~until:(Time.of_sec 5.0) f.TG.topo;
        check Alcotest.string "refused" "connection reset by peer" !error;
        check Alcotest.int "one failed conn" 1
          (Stack.counters client).Transport.Counters.conns_failed;
        check Alcotest.int "server sent a reset" 1
          (Stack.counters server).Transport.Counters.resets_sent);
    Alcotest.test_case "stream survives a hand-off mid-window" `Quick
      (fun () ->
         let f = setup () in
         let server = Stack.create f.TG.m in
         let received = Buffer.create 4096 in
         ignore
           (Socket.listen server ~port:7 (fun sock ->
                Socket.recv_cb sock (fun b -> Buffer.add_bytes received b)));
         let client = Stack.create f.TG.s in
         let data = Bytes.init 100_000 (fun i -> Char.chr (i land 0xFF)) in
         at f.TG.topo 0.5 (fun () ->
             let sock =
               Socket.connect client ~window:1024
                 ~dst:(Agent.address f.TG.m) ~dst_port:7 ()
             in
             Socket.send sock data);
         (* move while the window is in flight *)
         Workload.Mobility.move_at f.TG.topo f.TG.m ~at:(Time.of_sec 0.6)
           f.TG.net_d;
         Topology.run ~until:(Time.of_sec 30.0) f.TG.topo;
         check Alcotest.int "all bytes" 100_000 (Buffer.length received);
         check Alcotest.bool "intact" true
           (Bytes.equal data (Buffer.to_bytes received));
         check Alcotest.bool "hand-off cost retransmissions" true
           ((Stack.counters client).Transport.Counters.retransmissions > 0));
    Alcotest.test_case "bytes stay queued until acknowledged" `Quick
      (fun () ->
         let f = setup () in
         let server = Stack.create f.TG.m in
         ignore (Socket.listen server ~port:7 (fun _ -> ()));
         let client = Stack.create f.TG.s in
         let sock = ref None in
         let queued_at_send = ref (-1) and queued_at_drain = ref (-1) in
         at f.TG.topo 1.0 (fun () ->
             let s =
               Socket.connect client ~dst:(Agent.address f.TG.m) ~dst_port:7
                 ()
             in
             sock := Some s;
             Socket.send s (Bytes.make 3000 'q');
             queued_at_send := Socket.bytes_queued s;
             Socket.on_drained s (fun () ->
                 queued_at_drain := Socket.bytes_queued s;
                 Socket.close s));
         Topology.run ~until:(Time.of_sec 5.0) f.TG.topo;
         check Alcotest.int "all queued before the handshake" 3000
           !queued_at_send;
         check Alcotest.int "none once drained" 0 !queued_at_drain;
         check Alcotest.int "none after the FIN is acked" 0
           (Socket.bytes_queued (Option.get !sock)));
    Alcotest.test_case "abort resets the peer at once" `Quick (fun () ->
        let f = setup () in
        let server = Stack.create f.TG.m in
        let server_error = ref "" in
        ignore
          (Socket.listen server ~port:7 (fun sock ->
               Socket.on_error sock (fun e -> server_error := e)));
        let client = Stack.create f.TG.s in
        let closed = ref false in
        at f.TG.topo 1.0 (fun () ->
            let sock =
              Socket.connect client ~dst:(Agent.address f.TG.m) ~dst_port:7 ()
            in
            Socket.on_closed sock (fun () -> closed := true);
            Socket.on_established sock (fun () ->
                Socket.abort sock;
                check Alcotest.bool "closed locally" true
                  (Socket.is_closed sock)));
        Topology.run ~until:(Time.of_sec 5.0) f.TG.topo;
        check Alcotest.bool "closed callback" true !closed;
        check Alcotest.string "peer reset" "connection reset by peer"
          !server_error;
        check Alcotest.int "one reset sent" 1
          (Stack.counters client).Transport.Counters.resets_sent);
    Alcotest.test_case "a closed listener refuses new connections" `Quick
      (fun () ->
         let f = setup () in
         let server = Stack.create f.TG.m in
         let accepted = ref 0 in
         let l = Socket.listen server ~port:7 (fun _ -> incr accepted) in
         let client = Stack.create f.TG.s in
         let errors = ref [] in
         let connect_at sec =
           at f.TG.topo sec (fun () ->
               let sock =
                 Socket.connect client ~dst:(Agent.address f.TG.m)
                   ~dst_port:7 ()
               in
               Socket.on_error sock (fun e -> errors := e :: !errors))
         in
         connect_at 1.0;
         at f.TG.topo 2.0 (fun () -> Socket.close_listener l);
         connect_at 3.0;
         Topology.run ~until:(Time.of_sec 6.0) f.TG.topo;
         check Alcotest.int "accepted before closing" 1 !accepted;
         check (Alcotest.list Alcotest.string) "refused after"
           [ "connection reset by peer" ] !errors);
    Alcotest.test_case "chat room relays each message to the others"
      `Quick (fun () ->
        let f = setup () in
        let room =
          Workload.Apps.Chat.room (Stack.create f.TG.s) ~port:9000
            ~msg_bytes:16
        in
        let join agent =
          Workload.Apps.Chat.join (Stack.create agent)
            ~server:(Agent.address f.TG.s) ~port:9000 ~msg_bytes:16
            ~at:(Time.of_sec 1.0) ()
        in
        let a = join f.TG.m and b = join f.TG.r1 and c = join f.TG.r3 in
        Workload.Apps.Chat.say a ~at:(Time.of_sec 2.0);
        Topology.run ~until:(Time.of_sec 5.0) f.TG.topo;
        check Alcotest.int "three members" 3
          (Workload.Apps.Chat.members room);
        check Alcotest.int "relayed to both others" 2
          (Workload.Apps.Chat.relayed room);
        check (Alcotest.list Alcotest.int) "received"
          [ 0; 1; 1 ]
          (List.map Workload.Apps.Chat.received [ a; b; c ]));
    Alcotest.test_case "datagram endpoint roundtrip" `Quick (fun () ->
        let f = setup () in
        let sender = Stack.create f.TG.s in
        let receiver = Stack.create f.TG.m in
        let got = ref [] in
        let d_in = Socket.Dgram.create receiver ~port:4000 in
        Socket.Dgram.on_recv d_in (fun ~src:_ ~src_port b ->
            got := (src_port, Bytes.to_string b) :: !got);
        let d_out = Socket.Dgram.create sender ~port:4099 in
        at f.TG.topo 1.0 (fun () ->
            Socket.Dgram.sendto d_out ~dst:(Agent.address f.TG.m)
              ~dst_port:4000 (Bytes.of_string "dgram"));
        Topology.run ~until:(Time.of_sec 3.0) f.TG.topo;
        check
          (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string))
          "delivered once" [ (4099, "dgram") ] !got) ]

(* --- codec properties --- *)

let arb_flags =
  QCheck.(
    list_of_size Gen.(0 -- 6)
      (oneofl Tcp.[ Fin; Syn; Rst; Psh; Ack; Urg ]))

let canonical flags =
  List.filter (fun f -> List.mem f flags) Tcp.[ Fin; Syn; Rst; Psh; Ack; Urg ]

let codec_tests =
  [ qtest
      (QCheck.Test.make ~name:"tcp roundtrip incl. flag-set ordering"
         ~count:300
         QCheck.(
           pair
             (pair (pair (int_bound 0xFFFF) (int_bound 0xFFFF))
                (pair (int_bound 0xFFFFFF) (int_bound 0xFFFFFF)))
             (pair arb_flags (string_of_size Gen.(0 -- 64))))
         (fun (((sp, dp), (seq, ack)), (flags, data)) ->
           let seg =
             Tcp.make ~seq ~ack ~flags ~src_port:sp ~dst_port:dp
               (Bytes.of_string data)
           in
           let d = Tcp.decode_exn (Tcp.encode seg) in
           d.Tcp.src_port = sp && d.Tcp.dst_port = dp && d.Tcp.seq = seq
           && d.Tcp.ack = ack
           && d.Tcp.flags = canonical flags
           && Bytes.to_string d.Tcp.data = data));
    qtest
      (QCheck.Test.make ~name:"flag order does not change the wire bytes"
         ~count:100 arb_flags (fun flags ->
           let mk fl =
             Tcp.encode (Tcp.make ~flags:fl ~src_port:1 ~dst_port:2
                           (Bytes.of_string "x"))
           in
           Bytes.equal (mk flags) (mk (List.rev flags))));
    qtest
      (QCheck.Test.make ~name:"decode is total over hostile bytes"
         ~count:500
         QCheck.(string_of_size Gen.(0 -- 64))
         (fun junk ->
           match Tcp.decode (Bytes.of_string junk) with
           | Some _ | None -> true));
    qtest
      (QCheck.Test.make ~name:"decode rejects any single flipped bit"
         ~count:100
         QCheck.(pair (int_bound 239) (int_bound 7))
         (fun (byte, bit) ->
           let seg =
             Tcp.make ~seq:7 ~ack:9 ~flags:[ Tcp.Psh; Tcp.Ack ] ~src_port:80
               ~dst_port:5001 (Bytes.make 220 'q')
           in
           let wire = Tcp.encode seg in
           Bytes.set wire byte
             (Char.chr (Char.code (Bytes.get wire byte) lxor (1 lsl bit)));
           Tcp.decode wire = None)) ]

(* --- the sliding-window property under seeded loss --- *)

let run_lossy_transfer ~bytes ~window ~flaps =
  let f = setup () in
  let topo = f.TG.topo in
  let server = Stack.create f.TG.m in
  let received = Buffer.create bytes in
  ignore
    (Socket.listen server ~port:4321 ~max_retries:1000 (fun sock ->
         Socket.recv_cb sock (fun b -> Buffer.add_bytes received b)));
  let client = Stack.create f.TG.s in
  let data = Bytes.init bytes (fun i -> Char.chr (i * 7 land 0xFF)) in
  at topo 0.2 (fun () ->
      let sock =
        Socket.connect client ~window:(window * 512) ~max_retries:1000
          ~dst:(Agent.address f.TG.m) ~dst_port:4321 ()
      in
      Socket.send sock data);
  if flaps <> [] then begin
    let inj = Fault.Injector.create ~seed:77 topo in
    Fault.Injector.inject inj
      (List.map
         (fun (at_s, dur_s) ->
           Fault.Schedule.Lan_down
             { lan = "netB"; at = Time.of_sec at_s;
               duration = Time.of_sec dur_s })
         flaps)
  end;
  Topology.run ~until:(Time.of_sec 90.0) topo;
  Buffer.length received = bytes
  && Bytes.equal data (Buffer.to_bytes received)

let window_tests =
  [ qtest
      (QCheck.Test.make
         ~name:
           "delivered = sent, in order, no duplicates, under link loss"
         ~count:8
         QCheck.(
           pair
             (pair (int_range 1 20000) (int_range 1 16))
             (list_of_size Gen.(0 -- 3)
                (pair (int_range 0 40) (int_range 1 20))))
         (fun ((bytes, window), raw_flaps) ->
           (* flaps land in [0.3s, 4.3s) with durations up to 2s, on the
              receiver's home LAN — every segment crossing it dies *)
           let flaps =
             List.mapi
               (fun i (at_ds, dur_ds) ->
                 ( 0.3 +. (float_of_int i *. 4.0)
                   +. (float_of_int at_ds /. 10.),
                   float_of_int dur_ds /. 10. ))
               raw_flaps
           in
           run_lossy_transfer ~bytes ~window ~flaps)) ]

let suite =
  [ ("transport.socket", socket_tests);
    ("transport.codec", codec_tests);
    ("transport.window", window_tests) ]
