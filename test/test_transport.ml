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
module Send_queue = Transport.Send_queue

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let setup () = TG.figure1 ()

let at topo sec f =
  ignore (Engine.schedule (Topology.engine topo) ~at:(Time.of_sec sec) f)

(* A received packet from [src] carrying [seg], as the agent's tap gets
   it. *)
let segment_view ~src ~dst seg =
  Ipv4.Packet.View.make
    (Ipv4.Packet.encode
       (Ipv4.Packet.make ~proto:Ipv4.Proto.tcp ~src ~dst (Tcp.encode seg)))

(* --- socket basics --- *)

(* The connection table against the tuple-keyed [Hashtbl] it replaced:
   random registrations, removals, listeners and received segments on
   one stack.  Ports and addresses come from small pools holding the
   extremes, so 4-tuples collide and several local ports share a remote
   endpoint. *)
type demux_op =
  | Register of (int * int * int)  (* local port, remote, remote port *)
  | Unregister of (int * int * int)
  | Listen of int
  | Unlisten of int
  | Segment of (int * int * int)

let demux_remotes =
  Ipv4.Addr.
    [| zero; broadcast; of_string "10.0.0.1"; of_string "10.0.0.2";
       of_string "192.168.255.254" |]

let demux_model =
  let open QCheck in
  let local = Gen.oneofl [ 0; 1; 7; 80; 49152; 49153; 65535 ] in
  let remote = Gen.int_bound (Array.length demux_remotes - 1) in
  let remote_port = Gen.oneofl [ 0; 1; 7; 1234; 65535 ] in
  let tuple = Gen.triple local remote remote_port in
  let op =
    Gen.frequency
      [ (4, Gen.map (fun k -> Register k) tuple);
        (2, Gen.map (fun k -> Unregister k) tuple);
        (1, Gen.map (fun p -> Listen p) local);
        (1, Gen.map (fun p -> Unlisten p) local);
        (5, Gen.map (fun k -> Segment k) tuple) ]
  in
  let pp = function
    | Register (l, r, p) -> Printf.sprintf "register %d %d %d" l r p
    | Unregister (l, r, p) -> Printf.sprintf "unregister %d %d %d" l r p
    | Listen l -> Printf.sprintf "listen %d" l
    | Unlisten l -> Printf.sprintf "unlisten %d" l
    | Segment (l, r, p) -> Printf.sprintf "segment %d %d %d" l r p
  in
  let world = lazy (setup ()) in
  Test.make
    ~name:"the connection table demultiplexes as a tuple-keyed Hashtbl"
    ~count:300
    (make ~print:(Print.list pp) Gen.(list_size (1 -- 120) op))
    (fun ops ->
      let f = Lazy.force world in
      let stack = Stack.create f.TG.m in
      let model = Hashtbl.create 16 and listeners = Hashtbl.create 4 in
      let reached = ref "" in
      let next_id = ref 0 in
      let rx name ~src:_ _ ~off:_ ~len:_ = reached := name in
      List.for_all
        (fun op ->
          (match op with
           | Register ((l, r, p) as k) ->
             let name = Printf.sprintf "conn %d" !next_id in
             incr next_id;
             let registered =
               match
                 Stack.register_conn stack ~local_port:l
                   ~remote:demux_remotes.(r) ~remote_port:p (rx name)
               with
               | () -> true
               | exception Invalid_argument msg ->
                 check Alcotest.string "the duplicate's error"
                   "Transport.Stack: connection already registered" msg;
                 false
             in
             if registered = Hashtbl.mem model k then
               Alcotest.failf "%s: raised %b" (pp op) (not registered);
             if registered then Hashtbl.replace model k name
           | Unregister ((l, r, p) as k) ->
             Stack.unregister_conn stack ~local_port:l
               ~remote:demux_remotes.(r) ~remote_port:p;
             Hashtbl.remove model k
           | Listen l ->
             if not (Hashtbl.mem listeners l) then begin
               Stack.register_listener stack ~port:l
                 (rx (Printf.sprintf "listener %d" l));
               Hashtbl.replace listeners l ()
             end
           | Unlisten l ->
             Stack.unregister_listener stack ~port:l;
             Hashtbl.remove listeners l
           | Segment ((l, r, p) as k) ->
             let resets () =
               (Stack.counters stack).Transport.Counters.resets_sent
             in
             let before = resets () in
             reached := "";
             let seg =
               Tcp.encode
                 (Tcp.make ~seq:5 ~ack:9 ~flags:[ Tcp.Ack ] ~src_port:p
                    ~dst_port:l Bytes.empty)
             in
             Stack.handle_view stack
               (Ipv4.Packet.View.make
                  (Ipv4.Packet.encode
                     (Ipv4.Packet.make ~proto:Ipv4.Proto.tcp
                        ~src:demux_remotes.(r) ~dst:(Agent.address f.TG.m)
                        seg)));
             let expected =
               match Hashtbl.find_opt model k with
               | Some name -> name
               | None ->
                 if Hashtbl.mem listeners l then Printf.sprintf "listener %d" l
                 else "reset"
             in
             let got = if resets () > before then "reset" else !reached in
             if got <> expected then
               Alcotest.failf "%s reached %S, not %S" (pp op) got expected);
          Stack.connections stack = Hashtbl.length model)
        ops)

let socket_tests =
  [ Alcotest.test_case "handshake, echo stream, orderly close" `Quick
      (fun () ->
         let f = setup () in
         let server = Stack.create f.TG.m in
         let client = Stack.create f.TG.s in
         (* server echoes everything back *)
         ignore
           (Socket.listen server ~port:7 (fun sock ->
                Socket.recv_cb sock (fun buf off len ->
                    Socket.send sock (Bytes.sub buf off len));
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
             Socket.recv_cb sock (Buffer.add_subbytes echoed);
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
                Socket.recv_cb sock (Buffer.add_subbytes received)));
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
        Socket.Dgram.on_recv d_in (fun ~src:_ ~src_port buf off len ->
            got := (src_port, Bytes.sub_string buf off len) :: !got);
        let d_out = Socket.Dgram.create sender ~port:4099 in
        at f.TG.topo 1.0 (fun () ->
            Socket.Dgram.sendto d_out ~dst:(Agent.address f.TG.m)
              ~dst_port:4000 (Bytes.of_string "dgram"));
        Topology.run ~until:(Time.of_sec 3.0) f.TG.topo;
        check
          (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string))
          "delivered once" [ (4099, "dgram") ] !got);
    Alcotest.test_case
      "5,000 connections on one stack: the ISS wraps below 2^31" `Quick
      (fun () ->
        let f = setup () in
        let isn = Stack.create f.TG.r1 in
        let isses = List.init 2149 (fun _ -> Stack.fresh_iss isn) in
        check Alcotest.int "first" 1000 (List.hd isses);
        check Alcotest.int "last below 2^31" 2_147_001_000
          (List.nth isses 2147);
        check Alcotest.int "then the first again" 1000 (List.nth isses 2148);
        (* each connect sends its SYN at once: a seq past 2^32 raises *)
        let client = Stack.create f.TG.s in
        let dst = Agent.address f.TG.m in
        for _ = 1 to 5000 do
          Socket.abort (Socket.connect client ~dst ~dst_port:7 ())
        done;
        check Alcotest.int "all opened" 5000
          (Stack.counters client).Transport.Counters.conns_opened;
        check Alcotest.int "none left registered" 0
          (Stack.connections client));
    Alcotest.test_case "ephemeral ports wrap past a port still in use"
      `Quick (fun () ->
        let f = setup () in
        let client = Stack.create f.TG.s in
        let dst = Agent.address f.TG.m in
        let connect dst_port = Socket.connect client ~dst ~dst_port () in
        let held = connect 7 in
        check Alcotest.int "the first ephemeral port" 49152
          (Socket.local_port held);
        for _ = 1 to 16_383 do
          Socket.close (connect 7)
        done;
        (* the 16,385th connect comes round to 49152, still [held]'s *)
        check Alcotest.int "the port in use is skipped" 49153
          (Socket.local_port (connect 7));
        for _ = 1 to 16_382 do
          ignore (connect 7)
        done;
        check Alcotest.int "every port bound to the server" 16_384
          (Stack.connections client);
        check Alcotest.bool "none is left for it" true
          (match connect 7 with
           | _ -> false
           | exception Failure _ -> true);
        check Alcotest.int "another endpoint takes the next in turn" 49152
          (Socket.local_port (connect 9));
        check Alcotest.int "opened" (1 + 16_383 + 1 + 16_382 + 1)
          (Stack.counters client).Transport.Counters.conns_opened);
    Alcotest.test_case
      "odd-sized sends survive a lost segment: go-back-N from inside a chunk"
      `Quick (fun () ->
        (* four sends queued before the handshake, so the 512-byte
           segments cut across them: bytes 0-511 are the first two
           chunks, 512-1023 most of the third, and 1024-1535 the third's
           last byte and the fourth's first 511.  That third segment is
           lost; the resend starts at its first byte, inside a chunk. *)
        let f = setup () in
        let server = Stack.create f.TG.m in
        let received = Buffer.create 2048 in
        ignore
          (Socket.listen server ~port:7 (fun sock ->
               Socket.recv_cb sock (Buffer.add_subbytes received)));
        let client = Stack.create f.TG.s in
        let sizes = [ 1; 511; 513; 700 ] in
        let total = List.fold_left ( + ) 0 sizes in
        let stream = Bytes.init total (fun i -> Char.chr (i * 13 land 0xFF)) in
        let lost_seq = 1001 + 1024 in
        let lost = ref 0 in
        Net.Node.set_fault_filter (Agent.node f.TG.s)
          (Some
             (fun _ pkt ->
               match Tcp.decode pkt.Ipv4.Packet.payload with
               | Some seg
                 when pkt.Ipv4.Packet.proto = Ipv4.Proto.tcp && !lost = 0
                      && seg.Tcp.seq = lost_seq
                      && Bytes.length seg.Tcp.data > 0 ->
                 incr lost;
                 false
               | _ -> true));
        let sock = ref None in
        at f.TG.topo 1.0 (fun () ->
            let s =
              Socket.connect client ~dst:(Agent.address f.TG.m) ~dst_port:7 ()
            in
            sock := Some s;
            ignore
              (List.fold_left
                 (fun pos n ->
                   Socket.send s (Bytes.sub stream pos n);
                   pos + n)
                 0 sizes));
        Topology.run ~until:(Time.of_sec 10.0) f.TG.topo;
        check Alcotest.int "the third segment was lost once" 1 !lost;
        check Alcotest.bool "resent" true
          ((Stack.counters client).Transport.Counters.retransmissions > 0);
        check Alcotest.string "delivered byte-exact" (Bytes.to_string stream)
          (Buffer.contents received);
        check Alcotest.int "all acknowledged" 0
          (Socket.bytes_queued (Option.get !sock)));
    Alcotest.test_case "a segment past the advertised window is acked, not kept"
      `Quick (fun () ->
        let f = setup () in
        let server = Stack.create f.TG.m in
        let accepted = ref None in
        ignore (Socket.listen server ~port:7 (fun s -> accepted := Some s));
        let client = Stack.create f.TG.s in
        let src = Agent.address f.TG.s and dst = Agent.address f.TG.m in
        let sock = Socket.connect client ~dst ~dst_port:7 () in
        Topology.run ~until:(Time.of_sec 1.0) f.TG.topo;
        let peer = Option.get !accepted in
        check Alcotest.bool "established" true (Socket.is_established peer);
        let c = Socket.counters peer in
        let sent = c.Transport.Counters.segs_sent in
        (* the client's next byte is 1001: 70,000 bytes on is past the
           65,535 the server advertises, where no sender starts a
           segment *)
        Stack.handle_view server
          (segment_view ~src ~dst
             (Tcp.make ~seq:(1001 + 70_000) ~ack:1001
                ~flags:[ Tcp.Psh; Tcp.Ack ] ~src_port:(Socket.local_port sock)
                ~dst_port:7 (Bytes.of_string "far ahead")));
        check Alcotest.int "acked" (sent + 1) c.Transport.Counters.segs_sent;
        check Alcotest.int "not kept" 0 c.Transport.Counters.out_of_order);
    qtest demux_model ]

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
         Socket.recv_cb sock (Buffer.add_subbytes received)));
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


(* --- segments on wire bytes --- *)

(* A random segment: every field over its whole range, 0-1460 data
   bytes, a fifth of them pure control segments with none. *)
let arb_segment =
  let open QCheck.Gen in
  let seg =
    map
      (fun ((src_port, dst_port), (seq, ack), (flags, window), data) ->
        Tcp.make ~seq ~ack ~flags ~window ~src_port ~dst_port
          (Bytes.of_string data))
      (quad
         (pair (int_bound 0xFFFF) (int_bound 0xFFFF))
         (pair (int_bound 0xFFFF_FFFF) (int_bound 0xFFFF_FFFF))
         (pair
            (list_size (0 -- 6) (oneofl Tcp.[ Fin; Syn; Rst; Psh; Ack; Urg ]))
            (int_bound 0xFFFF))
         (frequency [ (1, return ""); (4, string_size (0 -- 1460)) ]))
  in
  QCheck.make ~print:(Format.asprintf "%a" Tcp.pp) seg

let flag_byte flags = List.fold_left (fun b f -> b lor Tcp.flag_bit f) 0 flags

(* [seg] written in place at [off] of a larger buffer: data first, then
   the header around it, as the socket writes it. *)
let written ~off (seg : Tcp.t) =
  let len = Tcp.header_length + Bytes.length seg.Tcp.data in
  let buf = Bytes.make (off + len + 7) '\xAA' in
  Bytes.blit seg.Tcp.data 0 buf (off + Tcp.header_length)
    (Bytes.length seg.Tcp.data);
  Tcp.write buf ~off ~src_port:seg.Tcp.src_port ~dst_port:seg.Tcp.dst_port
    ~seq:seg.Tcp.seq ~ack:seg.Tcp.ack ~flags:(flag_byte seg.Tcp.flags)
    ~window:seg.Tcp.window ~len;
  (buf, len)

(* [valid_at] answers what [decode] answers on a copy of the window,
   and [false] on a window outside the buffer. *)
let valid_at_agrees buf ~off ~len =
  let v = Tcp.valid_at buf ~off ~len in
  if off < 0 || len < 0 || off + len > Bytes.length buf then not v
  else v = Option.is_some (Tcp.decode (Bytes.sub buf off len))

let reseal buf = Ipv4.Checksum.set buf ~at:16 ~off:0 ~len:(Bytes.length buf)

(* A segment that asked for a 24-byte header: 4 option bytes the codec
   never writes, then [data]. *)
let with_option ~src_port ~dst_port ~seq ~ack ~flags data =
  let base =
    Tcp.encode
      (Tcp.make ~seq ~ack ~flags ~window:0xFFFF ~src_port ~dst_port
         (Bytes.cat (Bytes.of_string "\x01\x01\x01\x00") data))
  in
  Bytes.set_uint8 base 12 (6 lsl 4);
  reseal base;
  base

(* S on net A sends through one fresh stack to M, the foreign agent R4
   in its location cache or nothing; the frames S puts on net A are
   captured. *)
type wire_world = {
  w : TG.figure1;
  stack : Stack.t;
  frames : bytes list ref;
}

let wire_world () =
  let f = setup () in
  let s_node = Agent.node f.TG.s in
  let s_mac =
    match Net.Node.ifaces s_node with
    | (i, _, _) :: _ -> Net.Node.iface_mac s_node i
    | [] -> Alcotest.fail "S has no interface"
  in
  let frames = ref [] in
  Net.Lan.add_monitor f.TG.net_a (fun fr ->
      match fr.Net.Frame.content with
      | Net.Frame.Ip b when Net.Mac.equal fr.Net.Frame.src s_mac ->
        frames := Bytes.copy b :: !frames
      | _ -> ());
  Topology.run ~until:(Time.of_sec 0.5) f.TG.topo;
  { w = f; stack = Stack.create f.TG.s; frames }

let route_via ww ~tunneled =
  let cache = Agent.cache ww.w.TG.s in
  Mhrp.Location_cache.clear cache;
  if tunneled then
    Mhrp.Location_cache.update cache ~mobile:(Agent.address ww.w.TG.m)
      ~foreign_agent:(Agent.address ww.w.TG.r4)

(* The segment's data sits in a send queue behind a 14-byte prefix,
   split across two chunks at its middle (a 1-byte segment starts at
   the second chunk's first byte), with a suffix after it. *)
let send_segment ww (seg : Tcp.t) =
  let d = seg.Tcp.data in
  let n = Bytes.length d and half = Bytes.length d / 2 in
  let queue = Send_queue.create ~seq:(seg.Tcp.seq - 14) in
  Send_queue.push queue
    (Bytes.cat (Bytes.of_string "stream prefix/") (Bytes.sub d 0 half));
  Send_queue.push queue
    (Bytes.cat (Bytes.sub d half (n - half)) (Bytes.of_string "/suffix"));
  Stack.send_segment ww.stack ~dst:(Agent.address ww.w.TG.m)
    ~src_port:seg.Tcp.src_port ~dst_port:seg.Tcp.dst_port ~seq:seg.Tcp.seq
    ~ack:seg.Tcp.ack ~flags:(flag_byte seg.Tcp.flags) ~window:seg.Tcp.window
    queue ~len:n

let tunnels ww = (Agent.counters ww.w.TG.s).Mhrp.Counters.tunnels_built

let drain ww =
  let topo = ww.w.TG.topo in
  Topology.run ~until:(Time.add (Topology.now topo) (Time.of_ms 20)) topo

(* A send queue against the stream it was pushed: chunks of 0-700
   bytes, releases at random acknowledged points, and gathers of random
   held ranges, compared with the same bytes of the whole stream. *)
let send_queue_model =
  let open QCheck in
  let op =
    Gen.(
      frequency
        [ (3, map (fun n -> `Push n) (int_bound 700));
          (1, map (fun k -> `Release k) (int_bound 1000));
          (3, map2 (fun a b -> `Blit (a, b)) (int_bound 1000) (int_bound 1000)) ])
  in
  Test.make ~name:"a send queue gathers what was pushed, across chunks"
    ~count:300
    (make Gen.(list_size (1 -- 80) op))
    (fun ops ->
      let first = 1001 in
      let q = Send_queue.create ~seq:first in
      let whole = Buffer.create 4096 in
      let acked = ref first in
      List.for_all
        (fun op ->
          let end_seq = first + Buffer.length whole in
          match op with
          | `Push n ->
            let chunk =
              Bytes.init n (fun i -> Char.chr ((end_seq + i) * 7 land 0xFF))
            in
            Send_queue.push q chunk;
            Buffer.add_bytes whole chunk;
            Send_queue.end_seq q = end_seq + n
          | `Release k ->
            acked := !acked + (k * (end_seq - !acked) / 1000);
            Send_queue.release q ~upto:!acked;
            true
          | `Blit (a, b) ->
            let held = end_seq - !acked in
            let seq = !acked + (a * held / 1000) in
            let len = b * (end_seq - seq) / 1000 in
            let dst = Bytes.make (len + 2) '.' in
            Send_queue.blit q ~seq dst ~off:1 ~len;
            Bytes.sub_string dst 1 len
            = Buffer.sub whole (seq - first) len
            && Bytes.get dst 0 = '.'
            && Bytes.get dst (len + 1) = '.')
        ops
      && (Send_queue.clear q;
          Send_queue.end_seq q = first + Buffer.length whole))

let wire_tests =
  [ qtest send_queue_model;
    Alcotest.test_case "a send queue gathers only the bytes it holds" `Quick
      (fun () ->
        let q = Send_queue.create ~seq:100 in
        Send_queue.push q (Bytes.of_string "abcd");
        Send_queue.push q Bytes.empty;
        Send_queue.push q (Bytes.of_string "efgh");
        let gather seq len =
          let dst = Bytes.create len in
          match Send_queue.blit q ~seq dst ~off:0 ~len with
          | () -> Bytes.to_string dst
          | exception Invalid_argument _ -> "raised"
        in
        check Alcotest.string "across the chunks" "cdef" (gather 102 4);
        check Alcotest.string "past the end" "raised" (gather 106 3);
        Send_queue.release q ~upto:105;
        check Alcotest.string "the second chunk only" "fgh" (gather 105 3);
        check Alcotest.string "a released chunk" "raised" (gather 103 3);
        Send_queue.clear q;
        check Alcotest.int "end kept" 108 (Send_queue.end_seq q);
        check Alcotest.string "nothing after clear" "raised" (gather 107 1));
    qtest
      (QCheck.Test.make ~name:"in-place readers and writer agree with the codec"
         ~count:300
         (QCheck.pair arb_segment QCheck.(int_bound 40))
         (fun (seg, off) ->
           let buf, len = written ~off seg in
           let wire = Tcp.encode seg in
           let d = Tcp.decode_exn wire in
           let doff = Tcp.data_offset_at buf ~off in
           Bytes.equal (Bytes.sub buf off len) wire
           && Tcp.valid_at buf ~off ~len
           && Tcp.src_port_at buf ~off = d.Tcp.src_port
           && Tcp.dst_port_at buf ~off = d.Tcp.dst_port
           && Tcp.seq_at buf ~off = d.Tcp.seq
           && Tcp.ack_at buf ~off = d.Tcp.ack
           && Tcp.window_at buf ~off = d.Tcp.window
           && Tcp.flags_at buf ~off = flag_byte d.Tcp.flags
           && Bytes.equal
                (Bytes.sub buf (off + doff) (len - doff))
                d.Tcp.data));
    qtest
      (QCheck.Test.make ~name:"valid_at accepts exactly what decode accepts"
         ~count:1000
         QCheck.(
           triple arb_segment
             (pair (string_of_size Gen.(0 -- 64)) (int_bound 5))
             (triple (int_bound 2000) (int_bound 15) (int_range (-3) 3)))
         (fun (seg, (junk, mode), (pos, nibble, slack)) ->
           let wire = Tcp.encode seg in
           let n = Bytes.length wire in
           let junk = Bytes.of_string junk in
           let in_junk off =
             valid_at_agrees junk ~off ~len:(Bytes.length junk - off)
           in
           match mode with
           | 0 ->
             (* hostile bytes, every window *)
             List.for_all in_junk
               (List.init (Bytes.length junk + 3) (fun i -> i - 1))
             && valid_at_agrees junk ~off:0 ~len:(Bytes.length junk + slack)
           | 1 ->
             (* one flipped bit *)
             let i = pos mod n in
             Bytes.set_uint8 wire i
               (Bytes.get_uint8 wire i lxor (1 lsl (pos mod 8)));
             valid_at_agrees wire ~off:0 ~len:n
             && not (Tcp.valid_at wire ~off:0 ~len:n)
           | 2 ->
             (* any data offset, checksum made good again *)
             Bytes.set_uint8 wire 12 (nibble lsl 4);
             reseal wire;
             valid_at_agrees wire ~off:0 ~len:n
             && Tcp.valid_at wire ~off:0 ~len:n
                = (nibble * 4 >= Tcp.header_length && nibble * 4 <= n)
           | 3 ->
             (* the unused flag bits 0x40 and 0x80 *)
             Bytes.set_uint8 wire 13
               (Bytes.get_uint8 wire 13 lor (0x40 lsl (pos mod 2)));
             reseal wire;
             valid_at_agrees wire ~off:0 ~len:n
             && Tcp.valid_at wire ~off:0 ~len:n
             && Tcp.flags_at wire ~off:0 land 0x3F = flag_byte seg.Tcp.flags
           | 4 ->
             (* truncated or over-long windows onto a good segment *)
             valid_at_agrees wire ~off:0 ~len:(min n (pos mod (n + 1)))
             && valid_at_agrees wire ~off:(slack mod 2) ~len:(n + slack)
           | _ ->
             (* a good segment framed by junk *)
             let buf = Bytes.cat junk (Bytes.cat wire junk) in
             let off = Bytes.length junk in
             Tcp.valid_at buf ~off ~len:n
             && valid_at_agrees buf ~off ~len:(n + slack)
             && valid_at_agrees buf ~off:(off + slack) ~len:n));
    Alcotest.test_case
      "the wire send writes the codec's packet, plain or tunneled" `Quick
      (fun () ->
        let ww = wire_world () in
        let rng = Netsim.Rng.of_int 19 in
        let src = Agent.address ww.w.TG.s and dst = Agent.address ww.w.TG.m in
        let fa = Agent.address ww.w.TG.r4 in
        for k = 1 to 40 do
          let seg =
            QCheck.Gen.generate1 ~rand:(Random.State.make [| k |])
              (QCheck.gen arb_segment)
          in
          (* one frame: a tunneled segment fits net A's 1500-byte MTU *)
          let d = seg.Tcp.data in
          let seg =
            { seg with Tcp.data = Bytes.sub d 0 (min 1400 (Bytes.length d)) }
          in
          let tunneled = Netsim.Rng.int rng 2 = 0 in
          route_via ww ~tunneled;
          ww.frames := [];
          let built = tunnels ww in
          send_segment ww seg;
          drain ww;
          let record =
            Ipv4.Packet.make ~id:k ~proto:Ipv4.Proto.tcp ~src ~dst
              (Tcp.encode seg)
          in
          let expected =
            if tunneled then
              Mhrp.Encap.tunnel_by_sender_into ~foreign_agent:fa record
            else Ipv4.Packet.encode record
          in
          check Alcotest.int "tunnels built"
            (built + if tunneled then 1 else 0) (tunnels ww);
          match !(ww.frames) with
          | [ wire ] ->
            check Alcotest.bool
              (Printf.sprintf "segment %d (%s) on the wire" k
                 (if tunneled then "tunneled" else "plain"))
              true (Bytes.equal wire expected)
          | l ->
            Alcotest.failf "segment %d: %d frames from S" k (List.length l)
        done);
    Alcotest.test_case "an out-of-range field raises before anything is sent"
      `Quick (fun () ->
        let ww = wire_world () in
        let seg =
          Tcp.make ~seq:1 ~ack:2 ~flags:[ Tcp.Ack ] ~src_port:80 ~dst_port:81
            (Bytes.of_string "payload")
        in
        List.iter
          (fun (field, (bad : Tcp.t)) ->
            List.iter
              (fun tunneled ->
                route_via ww ~tunneled;
                ww.frames := [];
                let built = tunnels ww in
                let expected =
                  match Tcp.encode bad with
                  | _ -> Alcotest.failf "encode accepted a bad %s" field
                  | exception Invalid_argument msg -> msg
                in
                (match send_segment ww bad with
                 | () -> Alcotest.failf "bad %s was sent" field
                 | exception Invalid_argument msg ->
                   check Alcotest.string field expected msg);
                drain ww;
                check Alcotest.int (field ^ ": no tunnel counted") built
                  (tunnels ww);
                check Alcotest.int (field ^ ": nothing on the wire") 0
                  (List.length !(ww.frames)))
              [ false; true ])
          [ ("seq", { seg with Tcp.seq = 1 lsl 32 });
            ("ack", { seg with Tcp.ack = -1 });
            ("src_port", { seg with Tcp.src_port = 0x10000 });
            ("dst_port", { seg with Tcp.dst_port = -5 });
            ("window", { seg with Tcp.window = 0x10000 }) ]);
    Alcotest.test_case "a 24-byte header is delivered without its options"
      `Quick (fun () ->
        let f = setup () in
        let server = Stack.create f.TG.m in
        let got = Buffer.create 16 in
        ignore
          (Socket.listen server ~port:7 (fun sock ->
               Socket.recv_cb sock (Buffer.add_subbytes got)));
        let client = Stack.create f.TG.s in
        let sock = ref None in
        at f.TG.topo 0.5 (fun () ->
            sock :=
              Some
                (Socket.connect client ~dst:(Agent.address f.TG.m)
                   ~dst_port:7 ()));
        Topology.run ~until:(Time.of_sec 1.0) f.TG.topo;
        let sock = Option.get !sock in
        check Alcotest.bool "established" true (Socket.is_established sock);
        (* the client's first data byte is iss + 1 = 1001, and the
           server's first ISS is 1000 too *)
        let seg =
          with_option ~src_port:(Socket.local_port sock) ~dst_port:7 ~seq:1001
            ~ack:1001 ~flags:[ Tcp.Psh; Tcp.Ack ] (Bytes.of_string "options?")
        in
        check Alcotest.string "the codec skips the options" "options?"
          (Bytes.to_string (Tcp.decode_exn seg).Tcp.data);
        Agent.send f.TG.s
          (Ipv4.Packet.make ~proto:Ipv4.Proto.tcp ~src:(Agent.address f.TG.s)
             ~dst:(Agent.address f.TG.m) seg);
        Topology.run ~until:(Time.of_sec 2.0) f.TG.topo;
        check Alcotest.string "delivered" "options?" (Buffer.contents got)) ]

(* --- allocation --- *)

(* The quiet Figure 1 world of the alloc experiment's transport part:
   one connection from S to M, established, and the count of stream
   bytes M has received. *)
let quiet_connection () =
  let f = setup () in
  let server = Stack.create f.TG.m in
  let client = Stack.create f.TG.s in
  let received = ref 0 in
  ignore
    (Socket.listen server ~port:7 (fun sock ->
         Socket.recv_cb sock (fun _ _ len -> received := !received + len)));
  let sock =
    Socket.connect client ~dst:(Agent.address f.TG.m) ~dst_port:7 ()
  in
  Topology.run ~until:(Time.of_sec 1.0) f.TG.topo;
  (f.TG.topo, client, sock, received)

let alloc_tests =
  [ Alcotest.test_case
      "a 256-byte send-and-ack round trip allocates at most 100 words" `Quick
      (fun () ->
        (* each op queues 256 bytes and runs until the ack is back: the
           data segment and the ack, each written straight into its
           packet buffer, and their frames.  A writer closure behind
           each segment's send cost 14 words, a tuple key and its
           [Some] behind each demultiplexed segment 6, a counter closure
           capturing a length 4 at each end, and the copy of the 256
           bytes [recv_cb] got 34. *)
        let topo, client, sock, received = quiet_connection () in
        let chunk = Bytes.create 256 in
        let send_op () =
          Socket.send sock chunk;
          Topology.run ~until:(Time.add (Topology.now topo) (Time.of_ms 50))
            topo
        in
        send_op ();
        let ops = 200 in
        let (), alloc =
          Obs.Alloc.measure (fun () -> for _ = 1 to ops do send_op () done)
        in
        let words = (Obs.Alloc.per alloc ops).Obs.Alloc.minor_words in
        check Alcotest.int "every byte delivered" ((ops + 1) * 256) !received;
        check Alcotest.int "no retransmissions" 0
          (Stack.counters client).Transport.Counters.retransmissions;
        check Alcotest.bool
          (Printf.sprintf "%.0f words per round trip" words)
          true (words <= 100.0));
    Alcotest.test_case
      "demultiplexing a segment to its connection allocates 0 words" `Quick
      (fun () ->
        (* a table of 64 connections, several on each remote endpoint;
           the segment checked in place and looked up by its 4-tuple *)
        let f = setup () in
        let stack = Stack.create f.TG.m in
        let src = Agent.address f.TG.s and dst = Agent.address f.TG.m in
        let hits = ref 0 in
        for k = 0 to 63 do
          Stack.register_conn stack ~local_port:(7 + (k mod 4)) ~remote:src
            ~remote_port:(49152 + (k / 4))
            (fun ~src:_ _ ~off:_ ~len:_ -> incr hits)
        done;
        let v =
          segment_view ~src ~dst
            (Tcp.make ~seq:1001 ~ack:1001 ~flags:[ Tcp.Ack ] ~src_port:49160
               ~dst_port:9 Bytes.empty)
        in
        let w0 = Gc.minor_words () in
        for _ = 1 to 100 do
          Stack.handle_view stack v
        done;
        let words = Gc.minor_words () -. w0 in
        check Alcotest.int "every segment reached it" 100 !hits;
        check (Alcotest.float 0.0) "minor words" 0.0 words);
    Alcotest.test_case "an in-order data segment reaches recv_cb with no copy"
      `Quick (fun () ->
        let f = setup () in
        let server = Stack.create f.TG.m in
        let got = ref [] in
        ignore
          (Socket.listen server ~port:7 (fun sock ->
               Socket.recv_cb sock (fun buf off len ->
                   got := (buf, off, Bytes.sub_string buf off len) :: !got)));
        let client = Stack.create f.TG.s in
        let src = Agent.address f.TG.s and dst = Agent.address f.TG.m in
        let sock = Socket.connect client ~dst ~dst_port:7 () in
        Topology.run ~until:(Time.of_sec 1.0) f.TG.topo;
        check Alcotest.bool "established" true (Socket.is_established sock);
        (* the client's first data byte is iss + 1 = 1001, and the
           server's first ISS is 1000 too *)
        let v =
          segment_view ~src ~dst
            (Tcp.make ~seq:1001 ~ack:1001 ~flags:[ Tcp.Psh; Tcp.Ack ]
               ~src_port:(Socket.local_port sock) ~dst_port:7
               (Bytes.of_string "in place"))
        in
        Stack.handle_view server v;
        match !got with
        | [ (buf, off, data) ] ->
          check Alcotest.bool "the received packet's own bytes" true
            (buf == Ipv4.Packet.View.buffer v);
          check Alcotest.int "after the IP and TCP headers" 40 off;
          check Alcotest.string "the data" "in place" data
        | l -> Alcotest.failf "%d deliveries" (List.length l));
    Alcotest.test_case "arming the retransmission timer allocates nothing"
      `Quick (fun () ->
        (* Two equal sends back to back, each round: the first arms the
           timer, the second finds it armed, so the words between them
           are the arm's.  The timer is the call of a top-level
           function; a closure and its [Some] cost 7 words an arm. *)
        let topo, client, sock, received = quiet_connection () in
        let run_for ms =
          Topology.run ~until:(Time.add (Topology.now topo) (Time.of_ms ms))
            topo
        in
        (* the send queue's ring of chunks grows here, enough for every
           later round's two: growing it costs an array *)
        Socket.send sock (Bytes.create 8200);
        run_for 500;
        let chunk = Bytes.create 64 in
        let rounds = 50 in
        let arming = ref 0.0 and armed = ref 0.0 in
        for _ = 1 to rounds do
          let w0 = Gc.minor_words () in
          Socket.send sock chunk;
          let w1 = Gc.minor_words () in
          Socket.send sock chunk;
          let w2 = Gc.minor_words () in
          arming := !arming +. (w1 -. w0);
          armed := !armed +. (w2 -. w1);
          run_for 50
        done;
        check Alcotest.int "every byte delivered" (8200 + (rounds * 128))
          !received;
        check Alcotest.int "no retransmissions" 0
          (Stack.counters client).Transport.Counters.retransmissions;
        check (Alcotest.float 0.0) "words per arm" 0.0
          ((!arming -. !armed) /. float_of_int rounds));
    Alcotest.test_case "an acknowledged stream is not kept" `Quick (fun () ->
        (* the peer acknowledges a 1 MiB stream and the connection stays
           open: a socket that kept its stream would hold all of it *)
        let topo, _, sock, received = quiet_connection () in
        let stream = 1 lsl 20 in
        let stream_words = stream / (Sys.word_size / 8) in
        Gc.full_major ();
        let live0 = (Gc.stat ()).Gc.live_words in
        Socket.send sock (Bytes.make stream 's');
        Topology.run ~until:(Time.add (Topology.now topo) (Time.of_sec 30.0))
          topo;
        Gc.full_major ();
        let grown = (Gc.stat ()).Gc.live_words - live0 in
        check Alcotest.int "every byte delivered" stream !received;
        check Alcotest.int "every byte acknowledged" 0
          (Socket.bytes_queued sock);
        check Alcotest.bool "still open" true (Socket.is_established sock);
        check Alcotest.bool
          (Printf.sprintf "%d live words more, for a %d-word stream" grown
             stream_words)
          true
          (grown < stream_words / 8)) ]

let suite =
  [ ("transport.socket", socket_tests);
    ("transport.codec", codec_tests);
    ("transport.wire", wire_tests);
    ("transport.window", window_tests);
    ("transport.alloc", alloc_tests) ]
