(* Tests for the wire-level IP substrate: addresses, checksums, options,
   packet/transport/ICMP codecs. *)

module Addr = Ipv4.Addr
module Packet = Ipv4.Packet
module Icmp = Ipv4.Icmp

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let addr_testable = Alcotest.testable Addr.pp Addr.equal

let arb_addr =
  QCheck.map
    (fun n -> Addr.of_int (n land 0xFFFF_FFFF))
    QCheck.(int_bound 0x3FFFFFFF)

(* --- Addr --- *)

let addr_tests =
  [ Alcotest.test_case "parse and print" `Quick (fun () ->
        check Alcotest.string "print" "10.1.2.3"
          (Addr.to_string (Addr.of_string "10.1.2.3"));
        check addr_testable "octets"
          (Addr.of_octets 192 168 0 1)
          (Addr.of_string "192.168.0.1"));
    Alcotest.test_case "malformed strings rejected" `Quick (fun () ->
        List.iter
          (fun s ->
             check (Alcotest.option addr_testable) s None
               (Addr.of_string_opt s))
          ["1.2.3"; "1.2.3.4.5"; "256.1.1.1"; "a.b.c.d"; "1..2.3"; "";
           "1.2.3.-4"; "01x.2.3.4"]);
    Alcotest.test_case "range checks" `Quick (fun () ->
        Alcotest.check_raises "of_int"
          (Invalid_argument "Addr.of_int: out of range") (fun () ->
            ignore (Addr.of_int (-1)));
        Alcotest.check_raises "octets" (Invalid_argument "Addr.of_octets")
          (fun () -> ignore (Addr.of_octets 300 0 0 0)));
    Alcotest.test_case "prefix membership" `Quick (fun () ->
        let p = Addr.Prefix.of_string "10.0.5.0/24" in
        check Alcotest.bool "in" true
          (Addr.Prefix.mem (Addr.of_string "10.0.5.200") p);
        check Alcotest.bool "out" false
          (Addr.Prefix.mem (Addr.of_string "10.0.6.1") p);
        check Alcotest.bool "zero-length matches all" true
          (Addr.Prefix.mem (Addr.of_string "1.2.3.4")
             (Addr.Prefix.make Addr.zero 0)));
    Alcotest.test_case "prefix host addressing" `Quick (fun () ->
        let p = Addr.net 3 in
        check Alcotest.string "net" "10.0.3.0/24" (Addr.Prefix.to_string p);
        check addr_testable "host" (Addr.of_string "10.0.3.17")
          (Addr.Prefix.host p 17);
        Alcotest.check_raises "overflow"
          (Invalid_argument "Prefix.host: host number out of range")
          (fun () -> ignore (Addr.Prefix.host p 256)));
    Alcotest.test_case "net_of recovers network id" `Quick (fun () ->
        check (Alcotest.option Alcotest.int) "id" (Some 600)
          (Addr.net_of (Addr.host 600 9));
        check (Alcotest.option Alcotest.int) "foreign" None
          (Addr.net_of (Addr.of_string "11.0.0.1")));
    Alcotest.test_case "wire codec is network byte order" `Quick (fun () ->
        let buf = Bytes.make 4 '\000' in
        Addr.set buf 0 (Addr.of_string "10.1.2.3");
        check Alcotest.string "set" "\x0a\x01\x02\x03" (Bytes.to_string buf);
        check addr_testable "get" (Addr.of_string "10.1.2.3") (Addr.get buf 0);
        check addr_testable "top bit set" (Addr.of_string "255.254.128.1")
          (Addr.get (Bytes.of_string "\xff\xfe\x80\x01") 0));
    Alcotest.test_case "wire codec raises outside the buffer" `Quick
      (fun () ->
         let buf = Bytes.make 8 '\000' in
         let raises f =
           match f () with
           | () -> false
           | exception Invalid_argument _ -> true
         in
         List.iter
           (fun i ->
              check Alcotest.bool (Printf.sprintf "get at %d" i) true
                (raises (fun () -> ignore (Addr.get buf i)));
              check Alcotest.bool (Printf.sprintf "set at %d" i) true
                (raises (fun () -> Addr.set buf i Addr.broadcast)))
           [-4; -1; 5; 7; 8]);
    qtest
      (QCheck.Test.make ~name:"wire codec round-trips at every offset"
         ~count:300
         QCheck.(map (fun n -> Addr.of_int (n land 0xFFFF_FFFF)) int)
         (fun a ->
            let n = 11 in
            List.for_all
              (fun off ->
                 let buf = Bytes.make n 'z' in
                 Addr.set buf off a;
                 Addr.equal (Addr.get buf off) a
                 && Bytes.sub_string buf 0 off = String.make off 'z'
                 && Bytes.sub_string buf (off + 4) (n - off - 4)
                    = String.make (n - off - 4) 'z')
              (List.init (n - 3) Fun.id)));
    qtest
      (QCheck.Test.make ~name:"addr string roundtrip" ~count:300 arb_addr
         (fun a -> Addr.equal a (Addr.of_string (Addr.to_string a))));
    qtest
      (QCheck.Test.make ~name:"prefix masking idempotent" ~count:300
         QCheck.(pair arb_addr (int_range 0 32))
         (fun (a, len) ->
            let p = Addr.Prefix.make a len in
            Addr.Prefix.equal p (Addr.Prefix.make (p.Addr.Prefix.base) len))) ]

(* --- Checksum --- *)

let checksum_tests =
  [ Alcotest.test_case "known vector" `Quick (fun () ->
        (* classic RFC 1071 example *)
        let buf =
          Bytes.of_string "\x00\x01\xf2\x03\xf4\xf5\xf6\xf7"
        in
        check Alcotest.int "sum" (lnot 0xddf2 land 0xFFFF)
          (Ipv4.Checksum.of_bytes buf));
    Alcotest.test_case "set then valid" `Quick (fun () ->
        let buf = Bytes.of_string "abcdefgh\x00\x00ijkl" in
        Ipv4.Checksum.set buf ~at:8 ~off:0 ~len:(Bytes.length buf);
        check Alcotest.bool "valid" true (Ipv4.Checksum.valid buf));
    Alcotest.test_case "corruption detected" `Quick (fun () ->
        let buf = Bytes.of_string "abcdefgh\x00\x00ijkl" in
        Ipv4.Checksum.set buf ~at:8 ~off:0 ~len:(Bytes.length buf);
        Bytes.set buf 0 'X';
        check Alcotest.bool "invalid" false (Ipv4.Checksum.valid buf));
    qtest
      (QCheck.Test.make ~name:"set always validates (any bytes, odd too)"
         ~count:300
         QCheck.(string_of_size Gen.(int_range 2 100))
         (fun s ->
            let buf = Bytes.of_string s in
            Ipv4.Checksum.set buf ~at:0 ~off:0 ~len:(Bytes.length buf);
            Ipv4.Checksum.valid buf));
    Alcotest.test_case "odd length pads the final byte with zero" `Quick
      (fun () ->
         (* the RFC 1071 virtual trailing zero byte: an odd buffer and
            its explicitly zero-padded twin must checksum identically *)
         let odd = Bytes.of_string "\x12\x34\x56\x78\x9a" in
         let padded = Bytes.of_string "\x12\x34\x56\x78\x9a\x00" in
         check Alcotest.int "same sum" (Ipv4.Checksum.of_bytes padded)
           (Ipv4.Checksum.of_bytes odd));
    Alcotest.test_case "set/valid round-trip at alignments 0-3" `Quick
      (fun () ->
         (* the word loop must not assume the region starts on an even
            index: slide an 11-byte (odd) and a 12-byte (even) region
            across offsets 0..3 *)
         List.iter
           (fun off ->
              List.iter
                (fun len ->
                   let buf = Bytes.create (off + len + 2) in
                   Bytes.iteri
                     (fun i _ ->
                        Bytes.set buf i (Char.chr ((i * 37 + 11) land 0xFF)))
                     buf;
                   Ipv4.Checksum.set buf ~at:off ~off ~len;
                   check Alcotest.bool
                     (Printf.sprintf "valid off=%d len=%d" off len) true
                     (Ipv4.Checksum.valid ~off ~len buf))
                [10; 11; 12; 13])
           [0; 1; 2; 3]) ]

(* --- IP options (LSRR) --- *)

let option_tests =
  [ Alcotest.test_case "lsrr encode/decode roundtrip" `Quick (fun () ->
        let o =
          Ipv4.Ip_option.lsrr
            [Addr.of_string "10.0.1.1"; Addr.of_string "10.0.2.1"]
        in
        let bytes = Ipv4.Ip_option.encode_all [o] in
        check Alcotest.int "padded to 4" 0 (Bytes.length bytes mod 4);
        match Ipv4.Ip_option.decode_all bytes with
        | [Ipv4.Ip_option.Lsrr { pointer; route }] ->
          check Alcotest.int "pointer" 4 pointer;
          check Alcotest.int "entries" 2 (Array.length route);
          check addr_testable "first" (Addr.of_string "10.0.1.1") route.(0)
        | _ -> Alcotest.fail "wrong decode");
    Alcotest.test_case "lsrr_next walks and exhausts" `Quick (fun () ->
        let o = Ipv4.Ip_option.lsrr [Addr.of_string "1.1.1.1"] in
        (match Ipv4.Ip_option.lsrr_next o with
         | Some (hop, o') ->
           check addr_testable "hop" (Addr.of_string "1.1.1.1") hop;
           check Alcotest.bool "exhausted" true
             (Ipv4.Ip_option.lsrr_exhausted o');
           check (Alcotest.option Alcotest.unit) "no more" None
             (Option.map (fun _ -> ()) (Ipv4.Ip_option.lsrr_next o'))
         | None -> Alcotest.fail "expected a hop"));
    Alcotest.test_case "nop and padding" `Quick (fun () ->
        let bytes =
          Ipv4.Ip_option.encode_all
            [Ipv4.Ip_option.Nop; Ipv4.Ip_option.Nop]
        in
        check Alcotest.int "padded" 4 (Bytes.length bytes);
        check Alcotest.int "decoded" 2
          (List.length (Ipv4.Ip_option.decode_all bytes)));
    Alcotest.test_case "oversized options rejected" `Quick (fun () ->
        let addrs = List.init 12 (fun i -> Addr.host 1 i) in
        Alcotest.check_raises "too long"
          (Invalid_argument "Ip_option.encode_all: options too long")
          (fun () ->
             ignore (Ipv4.Ip_option.encode_all [Ipv4.Ip_option.lsrr addrs]))) ]

(* --- Packet --- *)

let arb_payload = QCheck.(string_of_size Gen.(int_range 0 200))

let packet_tests =
  [ Alcotest.test_case "encode/decode roundtrip" `Quick (fun () ->
        let pkt =
          Packet.make ~tos:7 ~id:1234 ~ttl:17 ~proto:Ipv4.Proto.udp
            ~src:(Addr.of_string "10.0.1.2") ~dst:(Addr.of_string "10.0.3.4")
            (Bytes.of_string "hello world")
        in
        let decoded = Packet.decode (Packet.encode pkt) in
        check Alcotest.int "tos" 7 decoded.Packet.tos;
        check Alcotest.int "id" 1234 decoded.Packet.id;
        check Alcotest.int "ttl" 17 decoded.Packet.ttl;
        check addr_testable "src" pkt.Packet.src decoded.Packet.src;
        check Alcotest.string "payload" "hello world"
          (Bytes.to_string decoded.Packet.payload));
    Alcotest.test_case "wire sizes" `Quick (fun () ->
        let pkt =
          Packet.make ~proto:Ipv4.Proto.udp ~src:Addr.zero ~dst:Addr.zero
            (Bytes.create 100)
        in
        check Alcotest.int "header" 20 (Packet.header_length pkt);
        check Alcotest.int "total" 120 (Packet.total_length pkt);
        check Alcotest.int "encoded" 120
          (Bytes.length (Packet.encode pkt)));
    Alcotest.test_case "options extend header" `Quick (fun () ->
        let pkt =
          Packet.make ~proto:Ipv4.Proto.udp ~src:Addr.zero ~dst:Addr.zero
            ~options:[Ipv4.Ip_option.lsrr [Addr.of_string "10.0.0.1"]]
            Bytes.empty
        in
        check Alcotest.int "header" 28 (Packet.header_length pkt);
        let decoded = Packet.decode (Packet.encode pkt) in
        check Alcotest.int "options survive" 1
          (List.length decoded.Packet.options));
    Alcotest.test_case "corrupt header rejected" `Quick (fun () ->
        let pkt =
          Packet.make ~proto:Ipv4.Proto.udp ~src:Addr.zero ~dst:Addr.zero
            Bytes.empty
        in
        let buf = Packet.encode pkt in
        Bytes.set buf 12 '\xFF';
        Alcotest.check_raises "checksum"
          (Invalid_argument "Packet.decode: bad header checksum") (fun () ->
            ignore (Packet.decode buf)));
    Alcotest.test_case "decr_ttl bottoms out" `Quick (fun () ->
        let pkt =
          Packet.make ~ttl:2 ~proto:Ipv4.Proto.udp ~src:Addr.zero
            ~dst:Addr.zero Bytes.empty
        in
        match Packet.decr_ttl pkt with
        | None -> Alcotest.fail "ttl 2 should decrement"
        | Some p ->
          check Alcotest.int "ttl" 1 p.Packet.ttl;
          check Alcotest.bool "expired" true (Packet.decr_ttl p = None));
    Alcotest.test_case "decode_prefix of truncated packet" `Quick (fun () ->
        let pkt =
          Packet.make ~proto:Ipv4.Proto.udp ~src:(Addr.host 1 2)
            ~dst:(Addr.host 3 4) (Bytes.create 64)
        in
        let full = Packet.encode pkt in
        let truncated = Bytes.sub full 0 28 in (* header + 8 *)
        match Packet.decode_prefix truncated with
        | Some (p, full_payload) ->
          check addr_testable "dst" (Addr.host 3 4) p.Packet.dst;
          check Alcotest.int "available payload" 8
            (Bytes.length p.Packet.payload);
          check Alcotest.int "declared payload" 64 full_payload
        | None -> Alcotest.fail "expected a prefix decode");
    qtest
      (QCheck.Test.make ~name:"packet roundtrip (random payloads)"
         ~count:300
         QCheck.(triple arb_addr arb_addr arb_payload)
         (fun (src, dst, payload) ->
            let pkt =
              Packet.make ~proto:Ipv4.Proto.tcp ~src ~dst
                (Bytes.of_string payload)
            in
            let d = Packet.decode (Packet.encode pkt) in
            Addr.equal d.Packet.src src && Addr.equal d.Packet.dst dst
            && Bytes.to_string d.Packet.payload = payload)) ]

(* --- UDP / TCP --- *)

let transport_tests =
  [ Alcotest.test_case "udp roundtrip and length" `Quick (fun () ->
        let u =
          Ipv4.Udp.make ~src_port:53 ~dst_port:4000
            (Bytes.of_string "payload")
        in
        let e = Ipv4.Udp.encode u in
        check Alcotest.int "wire" (8 + 7) (Bytes.length e);
        let d = Ipv4.Udp.decode e in
        check Alcotest.int "sport" 53 d.Ipv4.Udp.src_port;
        check Alcotest.string "data" "payload"
          (Bytes.to_string d.Ipv4.Udp.data));
    Alcotest.test_case "udp corruption rejected" `Quick (fun () ->
        let e =
          Ipv4.Udp.encode (Ipv4.Udp.make ~src_port:1 ~dst_port:2
                             (Bytes.of_string "xy"))
        in
        Bytes.set e 9 'Z';
        Alcotest.check_raises "bad checksum"
          (Invalid_argument "Udp.decode: bad checksum") (fun () ->
            ignore (Ipv4.Udp.decode e)));
    Alcotest.test_case "tcp roundtrip with flags" `Quick (fun () ->
        let seg =
          Ipv4.Tcp_lite.make ~seq:0xDEADBEE ~ack:42
            ~flags:[Ipv4.Tcp_lite.Syn; Ipv4.Tcp_lite.Ack] ~src_port:80
            ~dst_port:5000 (Bytes.of_string "data")
        in
        let d = Ipv4.Tcp_lite.decode_exn (Ipv4.Tcp_lite.encode seg) in
        check Alcotest.int "seq" 0xDEADBEE d.Ipv4.Tcp_lite.seq;
        check Alcotest.bool "syn" true
          (Ipv4.Tcp_lite.has_flag d Ipv4.Tcp_lite.Syn);
        check Alcotest.bool "fin" false
          (Ipv4.Tcp_lite.has_flag d Ipv4.Tcp_lite.Fin);
        check Alcotest.int "header is 20" 20 Ipv4.Tcp_lite.header_length);
    qtest
      (QCheck.Test.make ~name:"udp roundtrip (random)" ~count:200
         QCheck.(triple (int_bound 0xFFFF) (int_bound 0xFFFF) arb_payload)
         (fun (sp, dp, data) ->
            let u =
              Ipv4.Udp.make ~src_port:sp ~dst_port:dp (Bytes.of_string data)
            in
            let d = Ipv4.Udp.decode (Ipv4.Udp.encode u) in
            d.Ipv4.Udp.src_port = sp && d.Ipv4.Udp.dst_port = dp
            && Bytes.to_string d.Ipv4.Udp.data = data)) ]

(* --- ICMP --- *)

let icmp_msg_testable =
  Alcotest.testable Icmp.pp (fun a b -> Icmp.encode a = Icmp.encode b)

let icmp_tests =
  [ Alcotest.test_case "echo roundtrip" `Quick (fun () ->
        let m = Icmp.Echo_request { ident = 7; seq = 9; data = Bytes.of_string "ping" } in
        check icmp_msg_testable "echo" m (Icmp.decode (Icmp.encode m)));
    Alcotest.test_case "location update roundtrip and size" `Quick
      (fun () ->
         let m =
           Icmp.Location_update
             { mobile = Addr.host 2 10; foreign_agent = Addr.host 4 1 }
         in
         let e = Icmp.encode m in
         check Alcotest.int "16 bytes" 16 (Bytes.length e);
         check icmp_msg_testable "roundtrip" m (Icmp.decode e));
    Alcotest.test_case "agent advertisement roundtrip" `Quick (fun () ->
        let m =
          Icmp.Agent_advertisement
            { agent = Addr.host 4 1; home = true; foreign = true }
        in
        (match Icmp.decode (Icmp.encode m) with
         | Icmp.Agent_advertisement { agent; home; foreign } ->
           check addr_testable "agent" (Addr.host 4 1) agent;
           check Alcotest.bool "home" true home;
           check Alcotest.bool "foreign" true foreign
         | _ -> Alcotest.fail "wrong decode"));
    Alcotest.test_case "solicitation roundtrip" `Quick (fun () ->
        check icmp_msg_testable "sol" Icmp.Agent_solicitation
          (Icmp.decode (Icmp.encode Icmp.Agent_solicitation)));
    Alcotest.test_case "errors carry quoted original" `Quick (fun () ->
        let original = Bytes.of_string "original-packet-prefix-bytes" in
        let m = Icmp.Dest_unreachable { code = 1; original } in
        (match Icmp.decode (Icmp.encode m) with
         | Icmp.Dest_unreachable { code; original = o } ->
           check Alcotest.int "code" 1 code;
           check Alcotest.string "quoted" (Bytes.to_string original)
             (Bytes.to_string o)
         | _ -> Alcotest.fail "wrong decode"));
    Alcotest.test_case "unknown type silently discarded" `Quick (fun () ->
        let buf = Bytes.make 8 '\000' in
        Bytes.set buf 0 (Char.chr 77);
        Ipv4.Checksum.set buf ~at:2 ~off:0 ~len:8;
        check Alcotest.bool "none" true (Icmp.decode_opt buf = None));
    Alcotest.test_case "type codes match RFC numbering" `Quick (fun () ->
        check (Alcotest.pair Alcotest.int Alcotest.int) "echo req" (8, 0)
          (Icmp.type_code
             (Icmp.Echo_request { ident = 0; seq = 0; data = Bytes.empty }));
        check (Alcotest.pair Alcotest.int Alcotest.int) "time exceeded"
          (11, 0)
          (Icmp.type_code
             (Icmp.Time_exceeded { code = 0; original = Bytes.empty }));
        check (Alcotest.pair Alcotest.int Alcotest.int) "loc update"
          (41, 0)
          (Icmp.type_code
             (Icmp.Location_update
                { mobile = Addr.zero; foreign_agent = Addr.zero }))) ]

let suite =
  [ ("addr", addr_tests); ("checksum", checksum_tests);
    ("ip-options", option_tests); ("packet", packet_tests);
    ("transport", transport_tests); ("icmp", icmp_tests) ]
