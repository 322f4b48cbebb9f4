(* Tests for lib/lsr — the distributed link-state control plane: wire
   codec roundtrips, convergence from a cold start, equivalence of the
   converged tables with the routing oracle, and reconvergence around
   link flaps and router crashes. *)

module Time = Netsim.Time
module Addr = Ipv4.Addr
module Node = Net.Node
module Lan = Net.Lan
module Topology = Net.Topology
module TG = Workload.Topo_gen
module LP = Lsr.Packet

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* --- Wire codec --- *)

let gen_addr = QCheck.Gen.(map Addr.of_int (int_bound 0xFFFF_FFFF))

let gen_link =
  QCheck.Gen.(
    map3
      (fun (base, len) addr neighbors ->
         { LP.prefix = Addr.Prefix.make base len; addr; neighbors })
      (pair gen_addr (int_bound 32))
      gen_addr
      (list_size (int_bound 5) gen_addr))

let gen_packet =
  QCheck.Gen.(
    oneof
      [ map (fun origin -> LP.Hello { origin }) gen_addr;
        map3
          (fun origin seq links -> LP.Lsa { origin; seq; links })
          gen_addr (int_bound 0x3FFF_FFFF)
          (list_size (int_bound 6) gen_link) ])

let arb_packet = QCheck.make ~print:(Format.asprintf "%a" LP.pp) gen_packet

let codec_tests =
  [ qtest
      (QCheck.Test.make ~name:"encode/decode roundtrip" ~count:500 arb_packet
         (fun p ->
            let b = LP.encode p in
            Bytes.length b = LP.size p && LP.decode b = p));
    Alcotest.test_case "malformed inputs rejected" `Quick (fun () ->
        let reject name b =
          check Alcotest.bool name true (LP.decode_opt b = None)
        in
        reject "empty" Bytes.empty;
        reject "short" (Bytes.make 3 '\x00');
        let hello = LP.encode (LP.Hello { origin = Addr.of_int 42 }) in
        reject "hello + trailing" (Bytes.cat hello (Bytes.make 1 '\x00'));
        let bad_ver = Bytes.copy hello in
        Bytes.set_uint8 bad_ver 0 9;
        reject "bad version" bad_ver;
        let bad_tag = Bytes.copy hello in
        Bytes.set_uint8 bad_tag 1 7;
        reject "unknown type" bad_tag;
        let lsa =
          LP.encode
            (LP.Lsa
               { origin = Addr.of_int 1; seq = 3;
                 links =
                   [ { LP.prefix = Addr.Prefix.make (Addr.of_int 0x0A000100) 24;
                       addr = Addr.of_int 0x0A000101;
                       neighbors = [Addr.of_int 0x0A000102] } ] })
        in
        reject "truncated lsa" (Bytes.sub lsa 0 (Bytes.length lsa - 2));
        reject "lsa + trailing" (Bytes.cat lsa (Bytes.make 2 '\x00')));
    Alcotest.test_case "sizes are byte-exact" `Quick (fun () ->
        check Alcotest.int "hello" 6
          (LP.size (LP.Hello { origin = Addr.of_int 0 }));
        let links =
          [ { LP.prefix = Addr.Prefix.make (Addr.of_int 0x0A000100) 24;
              addr = Addr.of_int 0x0A000101;
              neighbors = [Addr.of_int 1; Addr.of_int 2] } ]
        in
        (* 6 header + 4 seq + 2 count + (4+1+4+2) link + 2*4 neighbors *)
        check Alcotest.int "lsa" 31
          (LP.size (LP.Lsa { origin = Addr.of_int 0; seq = 1; links }))) ]

(* --- Convergence and oracle equivalence --- *)

(* Fast timers so convergence tests stay quick: 100 ms hellos, 2 s
   refresh. *)
let test_config =
  Lsr.Config.make ~hello_interval:(Time.of_ms 100)
    ~refresh_interval:(Time.of_sec 2.0) ()

let converge ?(config = test_config) ?(for_ = Time.of_sec 2.0) topo =
  let d = Lsr.Domain.create ~config topo in
  Lsr.Domain.start d;
  Topology.run ~until:(Time.add (Topology.now topo) for_) topo;
  d

let check_converged name d =
  check Alcotest.bool (name ^ ": synchronized") true
    (Lsr.Domain.synchronized d);
  match Lsr.Domain.check_equivalence d with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: not oracle-equivalent: %s" name e

let convergence_tests =
  [ Alcotest.test_case "figure 1 converges from a cold start" `Quick
      (fun () ->
        let f = TG.figure1_plain () in
        let d = converge f.TG.p_topo in
        check_converged "figure1" d;
        let c = Lsr.Domain.totals d in
        check Alcotest.bool "hellos flowed" true
          (c.Lsr.Counters.hellos_sent > 0
           && c.Lsr.Counters.hellos_received > 0);
        check Alcotest.bool "every router originated" true
          (c.Lsr.Counters.lsas_originated >= 4);
        check Alcotest.bool "redundant floods were suppressed" true
          (c.Lsr.Counters.floods_suppressed > 0);
        check Alcotest.bool "spf ran everywhere" true
          (List.for_all
             (fun r -> (Lsr.Router.counters r).Lsr.Counters.spf_runs > 0)
             (Lsr.Domain.routers d));
        check Alcotest.int "databases hold all four routers" 4
          (Lsr.Router.lsdb_size (Lsr.Domain.router d "R1"));
        check Alcotest.int "R3 meets R1, R2 and R4" 3
          (Lsr.Router.neighbor_count (Lsr.Domain.router d "R3")));
    Alcotest.test_case "campus internetwork converges" `Quick (fun () ->
        let c =
          TG.campuses_plain ~campuses:4 ~mobiles_per_campus:1
            ~correspondents:2 ()
        in
        let d = converge c.TG.cp_topo in
        check_converged "campuses-4" d;
        check Alcotest.int "all routers known everywhere" 4
          (Lsr.Router.lsdb_size (List.hd (Lsr.Domain.routers d))));
    Alcotest.test_case "cold start leaves host tables alone" `Quick
      (fun () ->
        let f = TG.figure1_plain () in
        let host_routes = Net.Route.entries (Node.routes f.TG.p_s) in
        let d = Lsr.Domain.create ~config:test_config f.TG.p_topo in
        check Alcotest.bool "router table emptied" true
          (Net.Route.entries (Node.routes f.TG.p_r1) = []);
        check Alcotest.bool "host table untouched" true
          (Net.Route.entries (Node.routes f.TG.p_s) = host_routes);
        ignore d);
    Alcotest.test_case "tick staggers are distinct" `Quick (fun () ->
        let f = TG.figure1_plain () in
        let d = Lsr.Domain.create ~config:test_config f.TG.p_topo in
        Lsr.Domain.start d;
        (* Run one hello interval and confirm beacons did not all land on
           the same instant: each router's first hello goes out on its own
           tick, so the four first-hello times are the four staggers and
           must differ.  (LSA re-floods are arrival-driven and can
           coincide; ignore them.) *)
        let times = Hashtbl.create 4 in
        List.iter
          (fun r ->
             let node = Lsr.Router.node r in
             Node.on_broadcast node (fun n pkt ->
                 match LP.decode_opt pkt.Ipv4.Packet.payload with
                 | Some (LP.Hello _) when not (Hashtbl.mem times (Node.name n))
                   ->
                   Hashtbl.replace times (Node.name n)
                     (Netsim.Engine.now (Node.engine n))
                 | _ -> ()))
          (Lsr.Domain.routers d);
        Topology.run ~until:(Time.of_ms 100) f.TG.p_topo;
        let ts = Hashtbl.fold (fun _ t acc -> t :: acc) times [] in
        check Alcotest.int "all four beaconed" 4 (List.length ts);
        check Alcotest.int "at distinct times" 4
          (List.length (List.sort_uniq compare ts))) ]

(* --- Reconvergence around faults --- *)

let fault_tests =
  [ Alcotest.test_case "link flap: routes around, then heals" `Quick
      (fun () ->
        let f = TG.figure1_plain () in
        let topo = f.TG.p_topo in
        let d = converge topo in
        check_converged "before flap" d;
        (* Net C is the only path to R4 and net D: cutting it must make
           them unreachable (not looped-to), and healing must restore the
           exact oracle paths. *)
        Lan.set_up f.TG.p_net_c false;
        Topology.run ~until:(Time.add (Topology.now topo) (Time.of_sec 2.0))
          topo;
        (match Lsr.Domain.check_equivalence d with
         | Ok () -> ()
         | Error e -> Alcotest.failf "during flap: %s" e);
        let r1 = Lsr.Domain.router d "R1" in
        check Alcotest.bool "net D withdrawn at R1" true
          (Net.Route.lookup
             (Node.routes (Lsr.Router.node r1))
             (Addr.Prefix.host (Lan.prefix f.TG.p_net_d) 1)
           = None);
        Lan.set_up f.TG.p_net_c true;
        Topology.run ~until:(Time.add (Topology.now topo) (Time.of_sec 2.0))
          topo;
        check_converged "after heal" d;
        check Alcotest.bool "net D restored at R1" true
          (Net.Route.lookup
             (Node.routes (Lsr.Router.node r1))
             (Addr.Prefix.host (Lan.prefix f.TG.p_net_d) 1)
           <> None));
    Alcotest.test_case "router crash: dead-neighbor detection and reboot"
      `Quick (fun () ->
        let f = TG.figure1_plain () in
        let topo = f.TG.p_topo in
        let d = converge topo in
        let r1 = Lsr.Domain.router d "R1" in
        let r3_id = Lsr.Router.router_id (Lsr.Domain.router d "R3") in
        let seq_before =
          match Lsr.Router.lsdb_seq r1 r3_id with
          | Some s -> s
          | None -> Alcotest.fail "R1 has no LSA for R3"
        in
        Node.crash_for f.TG.p_r3 (Time.of_sec 1.0);
        Topology.run ~until:(Time.add (Topology.now topo) (Time.of_sec 4.0))
          topo;
        check_converged "after reboot" d;
        let c = Lsr.Domain.totals d in
        check Alcotest.bool "neighbors were declared dead" true
          (c.Lsr.Counters.neighbors_down > 0);
        (* The rebooted router's sequence numbers kept rising: its NVRAM
           sequence outbids every stale pre-crash LSA. *)
        check Alcotest.bool "R3 reoriginated above its pre-crash seq" true
          (match Lsr.Router.lsdb_seq r1 r3_id with
           | Some s -> s > seq_before
           | None -> false));
    Alcotest.test_case "converged tables are stable (no refresh churn)"
      `Quick (fun () ->
        let f = TG.figure1_plain () in
        let topo = f.TG.p_topo in
        let d = converge topo in
        let spf_runs () =
          (Lsr.Domain.totals d).Lsr.Counters.spf_runs
        in
        let before = spf_runs () in
        (* Two refresh intervals of quiet: refresh floods happen, but they
           carry no news, so SPF stays asleep. *)
        Topology.run ~until:(Time.add (Topology.now topo) (Time.of_sec 4.0))
          topo;
        check Alcotest.int "no further SPF runs" before (spf_runs ());
        check_converged "still converged" d) ]

(* --- Oracle counter (satellite) --- *)

let oracle_counter_tests =
  [ Alcotest.test_case "recompute_count ticks per oracle sweep" `Quick
      (fun () ->
        let f = TG.figure1_plain () in
        let before = Net.Routing.recompute_count () in
        Topology.compute_routes f.TG.p_topo;
        Topology.compute_routes f.TG.p_topo;
        check Alcotest.int "two sweeps counted" (before + 2)
          (Net.Routing.recompute_count ())) ]

let suite =
  [ ("lsr-codec", codec_tests);
    ("lsr-convergence", convergence_tests);
    ("lsr-faults", fault_tests);
    ("lsr-oracle-counter", oracle_counter_tests) ]
