(* Tests for the authentication subsystem: SipHash known-answer vectors,
   extension wire format, replay-window edge cases, security-association
   verdicts, and the authenticated control plane end to end. *)

module Time = Netsim.Time
module Addr = Ipv4.Addr
module Node = Net.Node
module Topology = Net.Topology
module Agent = Mhrp.Agent
module TG = Workload.Topo_gen
module Siphash = Auth.Siphash
module Extension = Auth.Extension
module Replay = Auth.Replay
module Sa_table = Auth.Sa_table

let check = Alcotest.check

let int64 =
  Alcotest.testable
    (fun ppf v -> Format.fprintf ppf "%016Lx" v)
    Int64.equal

(* --- SipHash-2-4 --- *)

(* Reference vectors from the SipHash paper's test program: key
   000102...0f, messages 00, 00 01, 00 01 02, ... *)
let reference_key = Siphash.key ~k0:0x0706050403020100L ~k1:0x0f0e0d0c0b0a0908L

let reference_vectors =
  [ (0, 0x726fdb47dd0e0e31L);
    (1, 0x74f839c593dc67fdL);
    (2, 0x0d6c8009d9a94f5aL);
    (3, 0x85676696d7fb7e2dL);
    (4, 0xcf2794e0277187b7L);
    (5, 0x18765564cd99a68dL);
    (6, 0xcbc9466e58fee3ceL);
    (7, 0xab0200f58b01d137L);
    (8, 0x93f5f5799a932462L);
    (15, 0xa129ca6149be45e5L) ]

let siphash_tests =
  [ Alcotest.test_case "known-answer vectors" `Quick (fun () ->
        List.iter
          (fun (len, expect) ->
             check int64 (Printf.sprintf "len %d" len) expect
               (Siphash.mac reference_key (Bytes.init len Char.chr)))
          reference_vectors);
    Alcotest.test_case "key separates" `Quick (fun () ->
        let msg = Bytes.of_string "location update" in
        let k1 = Siphash.of_string "alpha" and k2 = Siphash.of_string "beta" in
        check Alcotest.bool "different keys, different macs" false
          (Int64.equal (Siphash.mac k1 msg) (Siphash.mac k2 msg)));
    Alcotest.test_case "of_string pads and truncates" `Quick (fun () ->
        let full = Siphash.of_string "0123456789abcdefEXTRA" in
        let same = Siphash.of_string "0123456789abcdef" in
        let msg = Bytes.of_string "x" in
        check int64 "first 16 bytes only" (Siphash.mac same msg)
          (Siphash.mac full msg)) ]

(* --- extension wire format --- *)

let sample_key = Siphash.of_string "test-key"

let sample_ext payload =
  Extension.sign ~key:sample_key ~spi:7 ~timestamp:(Time.of_ms 1500)
    ~nonce:42L payload

let extension_tests =
  [ Alcotest.test_case "roundtrip" `Quick (fun () ->
        let payload = Bytes.of_string "registration bytes" in
        let ext = sample_ext payload in
        let buf = Extension.encode ext in
        check Alcotest.int "length" Extension.length (Bytes.length buf);
        match Extension.decode buf with
        | None -> Alcotest.fail "decode failed"
        | Some ext' ->
          check Alcotest.int "spi" ext.Extension.spi ext'.Extension.spi;
          check Alcotest.int "timestamp"
            (Time.to_us ext.Extension.timestamp)
            (Time.to_us ext'.Extension.timestamp);
          check int64 "nonce" ext.Extension.nonce ext'.Extension.nonce;
          check int64 "mac" ext.Extension.mac ext'.Extension.mac;
          check Alcotest.bool "verifies" true
            (Extension.verify ~key:sample_key payload ext'));
    Alcotest.test_case "split takes the trailing extension" `Quick (fun () ->
        let payload = Bytes.of_string "message" in
        let ext = sample_ext payload in
        let wire = Bytes.cat payload (Extension.encode ext) in
        (match Extension.split wire with
         | None -> Alcotest.fail "split failed"
         | Some (prefix, ext') ->
           check Alcotest.string "payload preserved" "message"
             (Bytes.to_string prefix);
           check int64 "mac preserved" ext.Extension.mac ext'.Extension.mac);
        check Alcotest.bool "bare payload has no extension" true
          (Extension.split payload = None));
    Alcotest.test_case "tampering breaks the mac" `Quick (fun () ->
        let payload = Bytes.of_string "mobile at fa" in
        let ext = sample_ext payload in
        let flipped = Bytes.copy payload in
        Bytes.set flipped 0 'M';
        check Alcotest.bool "payload tamper" false
          (Extension.verify ~key:sample_key flipped ext);
        check Alcotest.bool "spi tamper" false
          (Extension.verify ~key:sample_key payload
             { ext with Extension.spi = 8 });
        check Alcotest.bool "timestamp tamper" false
          (Extension.verify ~key:sample_key payload
             { ext with Extension.timestamp = Time.of_ms 1501 });
        check Alcotest.bool "nonce tamper" false
          (Extension.verify ~key:sample_key payload
             { ext with Extension.nonce = 43L });
        check Alcotest.bool "wrong key" false
          (Extension.verify ~key:(Siphash.of_string "other") payload ext));
    Alcotest.test_case "decode rejects malformed" `Quick (fun () ->
        let ext = sample_ext Bytes.empty in
        let buf = Extension.encode ext in
        let wrong_type = Bytes.copy buf in
        Bytes.set wrong_type 0 '\033';
        check Alcotest.bool "wrong type" true
          (Extension.decode wrong_type = None);
        let wrong_len = Bytes.copy buf in
        Bytes.set wrong_len 1 '\027';
        check Alcotest.bool "wrong length byte" true
          (Extension.decode wrong_len = None);
        check Alcotest.bool "truncated" true
          (Extension.decode (Bytes.sub buf 0 (Extension.length - 1)) = None);
        let bad_ts = Bytes.copy buf in
        Bytes.set bad_ts 6 '\255' (* timestamp sign bit *);
        check Alcotest.bool "unrepresentable timestamp" true
          (Extension.decode bad_ts = None)) ]

(* --- replay window --- *)

let verdict =
  Alcotest.testable Replay.pp_verdict (fun a b -> a = b)

let replay_tests =
  [ Alcotest.test_case "fresh then replayed" `Quick (fun () ->
        let r = Replay.create ~window:(Time.of_sec 2.0) ~capacity:8 in
        let now = Time.of_sec 10.0 in
        check verdict "first" Replay.Fresh
          (Replay.check r ~now ~timestamp:now ~nonce:1L);
        check verdict "second" Replay.Replayed_nonce
          (Replay.check r ~now ~timestamp:now ~nonce:1L));
    Alcotest.test_case "timestamp window boundary" `Quick (fun () ->
        let window = Time.of_sec 2.0 in
        let r = Replay.create ~window ~capacity:8 in
        let now = Time.of_sec 10.0 in
        check verdict "exactly window old" Replay.Fresh
          (Replay.check r ~now ~timestamp:(Time.diff now window) ~nonce:1L);
        check verdict "one us older" Replay.Stale_timestamp
          (Replay.check r ~now
             ~timestamp:(Time.diff now (Time.add window (Time.of_us 1)))
             ~nonce:2L);
        check verdict "future inside window" Replay.Fresh
          (Replay.check r ~now ~timestamp:(Time.add now window) ~nonce:3L);
        check verdict "future beyond window" Replay.Stale_timestamp
          (Replay.check r ~now
             ~timestamp:(Time.add now (Time.add window (Time.of_us 1)))
             ~nonce:4L));
    Alcotest.test_case "nonces age out by time, not by count" `Quick (fun () ->
        let window = Time.of_sec 2.0 in
        let r = Replay.create ~window ~capacity:2 in
        let t0 = Time.of_sec 10.0 in
        check verdict "recorded" Replay.Fresh
          (Replay.check r ~now:t0 ~timestamp:t0 ~nonce:1L);
        (* Caught while any in-window timestamp could still carry it... *)
        let mid = Time.add t0 window in
        check verdict "replay at ts+window" Replay.Replayed_nonce
          (Replay.check r ~now:mid ~timestamp:mid ~nonce:1L);
        (* ...dead once [now > ts + 2*window], and actually evicted. *)
        let late =
          Time.add t0 (Time.add (Time.add window window) (Time.of_us 1))
        in
        check verdict "fresh again after expiry" Replay.Fresh
          (Replay.check r ~now:late ~timestamp:late ~nonce:1L);
        check Alcotest.int "expired entry dropped" 1 (Replay.size r));
    Alcotest.test_case "a fresh burst cannot flush a replayable nonce" `Quick
      (fun () ->
        (* Regression: FIFO eviction after [capacity] inserts let an
           attacker flush a captured message's nonce with fresh traffic
           and replay it while its timestamp was still inside the
           window (the old code answered Fresh here). *)
        let r = Replay.create ~window:(Time.of_sec 60.0) ~capacity:2 in
        let now = Time.of_sec 10.0 in
        let chk = Replay.check r ~now ~timestamp:now in
        check verdict "capture" Replay.Fresh (chk ~nonce:1L);
        for k = 2 to 9 do
          check verdict "burst" Replay.Fresh (chk ~nonce:(Int64.of_int k))
        done;
        check verdict "replay still caught" Replay.Replayed_nonce
          (chk ~nonce:1L);
        check Alcotest.int "all nonces live" 9 (Replay.size r));
    Alcotest.test_case "rejections leave no trace" `Quick (fun () ->
        let r = Replay.create ~window:(Time.of_sec 2.0) ~capacity:2 in
        let now = Time.of_sec 10.0 in
        (* A stale message must not record its nonce... *)
        check verdict "stale" Replay.Stale_timestamp
          (Replay.check r ~now ~timestamp:Time.zero ~nonce:9L);
        check verdict "same nonce, fresh timestamp" Replay.Fresh
          (Replay.check r ~now ~timestamp:now ~nonce:9L);
        (* ...and replays must not evict the nonces that catch them. *)
        check verdict "fill" Replay.Fresh
          (Replay.check r ~now ~timestamp:now ~nonce:10L);
        check verdict "replay 9" Replay.Replayed_nonce
          (Replay.check r ~now ~timestamp:now ~nonce:9L);
        check verdict "replay 10" Replay.Replayed_nonce
          (Replay.check r ~now ~timestamp:now ~nonce:10L)) ]

(* --- security-association table --- *)

let sa_verdict = Alcotest.testable Sa_table.pp_verdict (fun a b -> a = b)

let mobile = Addr.host 2 10

let sa_tests =
  [ Alcotest.test_case "verdicts" `Quick (fun () ->
        let t = Sa_table.create ~window:(Time.of_sec 2.0) ~capacity:8 in
        let now = Time.of_sec 5.0 in
        let payload = Bytes.of_string "msg" in
        let sign ?(key = sample_key) ?(spi = 7) ?(timestamp = now) ?(nonce = 1L)
            () =
          Extension.sign ~key ~spi ~timestamp ~nonce payload
        in
        check sa_verdict "no association" Sa_table.No_sa
          (Sa_table.verify t ~mobile ~now ~payload (sign ()));
        Sa_table.install t ~mobile ~spi:7 ~key:sample_key;
        check sa_verdict "ok" Sa_table.Ok
          (Sa_table.verify t ~mobile ~now ~payload (sign ()));
        check sa_verdict "replayed" Sa_table.Replayed
          (Sa_table.verify t ~mobile ~now ~payload (sign ()));
        check sa_verdict "wrong spi" Sa_table.Bad_spi
          (Sa_table.verify t ~mobile ~now ~payload (sign ~spi:8 ~nonce:2L ()));
        check sa_verdict "wrong key" Sa_table.Bad_mac
          (Sa_table.verify t ~mobile ~now ~payload
             (sign ~key:(Siphash.of_string "other") ~nonce:2L ()));
        check sa_verdict "stale" Sa_table.Stale
          (Sa_table.verify t ~mobile ~now ~payload
             (sign ~timestamp:Time.zero ~nonce:2L ())));
    Alcotest.test_case "forgeries cannot poison replay state" `Quick
      (fun () ->
        let t = Sa_table.create ~window:(Time.of_sec 2.0) ~capacity:8 in
        let now = Time.of_sec 5.0 in
        let payload = Bytes.of_string "msg" in
        Sa_table.install t ~mobile ~spi:7 ~key:sample_key;
        (* Attacker guesses the victim's next nonce but not the key: the
           bad MAC must be rejected before the nonce is recorded. *)
        let forged =
          Extension.sign ~key:(Siphash.of_string "guess") ~spi:7
            ~timestamp:now ~nonce:5L payload
        in
        check sa_verdict "forged" Sa_table.Bad_mac
          (Sa_table.verify t ~mobile ~now ~payload forged);
        let genuine =
          Extension.sign ~key:sample_key ~spi:7 ~timestamp:now ~nonce:5L
            payload
        in
        check sa_verdict "genuine still fresh" Sa_table.Ok
          (Sa_table.verify t ~mobile ~now ~payload genuine)) ]

(* --- the authenticated control plane end to end --- *)

let auth_config =
  Mhrp.Config.make ~authenticate:true ()

let agents f = TG.[ f.s; f.m; f.r1; f.r2; f.r3; f.r4 ]

let install_keys f =
  let key = Siphash.of_string "e2e shared secret" in
  let mobile = Agent.address f.TG.m in
  List.iter (fun a -> Agent.install_key a ~mobile ~spi:3 ~key) (agents f)

let sum_counters f field =
  List.fold_left (fun acc a -> acc + field (Agent.counters a)) 0 (agents f)

let integration_tests =
  [ Alcotest.test_case "authenticated handoff still works" `Quick (fun () ->
        let f = TG.figure1 ~config:auth_config () in
        install_keys f;
        let metrics = Workload.Metrics.create f.TG.topo in
        let traffic =
          Workload.Traffic.create metrics (Topology.engine f.TG.topo)
        in
        Workload.Metrics.watch_receiver metrics f.TG.m;
        let m_addr = Agent.address f.TG.m in
        Workload.Mobility.move_at f.TG.topo f.TG.m ~at:(Time.of_sec 1.0)
          f.TG.net_d;
        Workload.Traffic.at traffic (Time.of_sec 3.0) (fun () ->
            Workload.Traffic.send_udp traffic ~src:f.TG.s ~dst:m_addr ());
        Topology.run ~until:(Time.of_sec 6.0) f.TG.topo;
        check Alcotest.int "packet delivered while away" 1
          (List.length (Workload.Metrics.delivered metrics));
        check Alcotest.bool "registration verified" true
          ((Agent.counters f.TG.r2).Mhrp.Counters.auth_ok > 0);
        check Alcotest.int "nothing rejected" 0
          (sum_counters f (fun c -> c.Mhrp.Counters.auth_fail)
           + sum_counters f (fun c -> c.Mhrp.Counters.replay_drop)));
    Alcotest.test_case "forged registration is rejected" `Quick (fun () ->
        let f = TG.figure1 ~config:auth_config () in
        install_keys f;
        let xn = Topology.add_host f.TG.topo "X" f.TG.net_c 66 in
        Topology.compute_routes f.TG.topo;
        let m_addr = Agent.address f.TG.m in
        let adv = Auth.Adversary.create ~victim:m_addr xn in
        ignore
          (Netsim.Engine.schedule_after (Topology.engine f.TG.topo)
             ~delay:(Time.of_sec 2.0) (fun () ->
                 Auth.Adversary.forge_registration adv
                   ~home_agent:(Agent.address f.TG.r2)
                   ~foreign_agent:(Node.primary_addr xn)));
        Topology.run ~until:(Time.of_sec 4.0) f.TG.topo;
        check Alcotest.int "rejected at the home agent" 1
          (Agent.counters f.TG.r2).Mhrp.Counters.auth_fail;
        (match Agent.home_agent f.TG.r2 with
         | Some ha ->
           check Alcotest.bool "database untouched" true
             (Mhrp.Home_agent.location ha m_addr = Some Addr.zero)
         | None -> Alcotest.fail "r2 is not a home agent")) ]

let suite =
  [ ("auth-siphash", siphash_tests);
    ("auth-extension", extension_tests);
    ("auth-replay", replay_tests);
    ("auth-sa-table", sa_tests);
    ("auth-integration", integration_tests) ]
