(* Micro-benchmarks (bechamel) of the hot paths: codec and cache
   operations, route computation, a full Figure 1 scenario run, and the
   link-state control plane's flood and SPF costs at 8/64/256 campuses. *)

open Bechamel
open Toolkit
module Addr = Ipv4.Addr
module Packet = Ipv4.Packet

let sample_packet =
  Packet.make ~id:7 ~proto:Ipv4.Proto.udp ~src:(Addr.host 1 10)
    ~dst:(Addr.host 2 10)
    (Ipv4.Udp.encode
       (Ipv4.Udp.make ~src_port:4000 ~dst_port:4000 (Bytes.create 64)))

let encoded_packet = Packet.encode sample_packet
let fwd_view_buf = Bytes.copy encoded_packet
let fwd_view_budget = ref 0

let mhrp_header =
  Mhrp.Mhrp_header.make ~prev_sources:[Addr.host 1 10; Addr.host 2 1]
    ~orig_proto:Ipv4.Proto.udp ~mobile:(Addr.host 2 10) ()

let encoded_header = Mhrp.Mhrp_header.encode mhrp_header (Bytes.create 72)

let tunneled =
  Mhrp.Encap.tunnel_by_agent ~agent:(Addr.host 2 1)
    ~foreign_agent:(Addr.host 4 1) sample_packet

let tcp_segment =
  Ipv4.Tcp_lite.make ~seq:0x1234_5678 ~ack:0x0fed_cba9
    ~flags:[Ipv4.Tcp_lite.Psh; Ipv4.Tcp_lite.Ack] ~window:4096
    ~src_port:49152 ~dst_port:80 (Bytes.create 512)

let tcp_wire = Ipv4.Tcp_lite.encode tcp_segment

let cache =
  let c = Mhrp.Location_cache.create ~capacity:64 in
  for k = 1 to 64 do
    Mhrp.Location_cache.insert c ~mobile:(Addr.host 9 k)
      ~foreign_agent:(Addr.host 4 1)
  done;
  c

(* A routing table dominated by /32 host routes, as at a home agent
   serving a large mobile population: 1000 host routes over a handful of
   network prefixes.  Mobiles live on nets 16..19, 250 hosts each. *)
let host_route_table =
  let t =
    List.fold_left
      (fun t n -> Net.Route.add t (Addr.net n) (Net.Route.Direct 0))
      Net.Route.empty [16; 17; 18; 19]
  in
  let t = Net.Route.add_default t (Net.Route.Via (Addr.host 0 1)) in
  let rec go t k =
    if k > 1000 then t
    else
      let addr = Addr.host (16 + (k mod 4)) (1 + (k / 4)) in
      go (Net.Route.add_host t addr (Net.Route.Via (Addr.host 0 2))) (k + 1)
  in
  go t 1

let host_route_hit = Addr.host 17 126  (* a /32 entry *)
let host_route_miss = Addr.host 18 251 (* falls through to the net route *)

(* Compact location-state hot paths at the E19 scales: cache lookup
   cost must stay flat as the population grows 10^3 -> 10^6, and the
   bulk route build is the border router's rebuild cost over the same
   populations.  Setups are lazy — forced before the benchmark loop, so
   a million inserts never eat a test's quota — and the probe strides
   through the key space so successive lookups do not pin one slot. *)
let scale_points = [(1_000, "1e3"); (100_000, "1e5"); (1_000_000, "1e6")]
let scale_addr i = Addr.of_int (0x0A00_0000 lor i)

let scale_cache n =
  lazy
    (let c = Mhrp.Location_cache.create ~capacity:n in
     for i = 0 to n - 1 do
       Mhrp.Location_cache.insert c ~mobile:(scale_addr i)
         ~foreign_agent:(Addr.host 4 1)
     done;
     c)

let scale_caches =
  List.map (fun (n, tag) -> (n, tag, scale_cache n)) scale_points

let cache_probe = ref 1

let cache_lookup_test (n, tag, cache) =
  Test.make ~name:(Printf.sprintf "location-cache-lookup-%s" tag)
    (Staged.stage (fun () ->
         cache_probe := (!cache_probe + 7919) mod n;
         ignore
           (Mhrp.Location_cache.find (Lazy.force cache)
              (scale_addr !cache_probe))))

let scale_routes =
  List.map
    (fun (n, tag) ->
       ( tag,
         lazy
           (List.init n (fun i ->
                ( Addr.Prefix.make (scale_addr i) 32,
                  Net.Route.Via (Addr.host 0 2) ))) ))
    scale_points

let route_bulk_test (tag, pairs) =
  Test.make ~name:(Printf.sprintf "route-bulk-insert-%s" tag)
    (Staged.stage (fun () -> ignore (Net.Route.bulk (Lazy.force pairs))))

(* Converged link-state domains for the lib/lsr hot paths, one per
   internetwork scale.  Built lazily (and forced before the benchmark
   loop starts, so setup never eats a test's quota): construct the campus
   backbone, start the protocol cold and run five simulated seconds —
   ample for hello discovery, designated database sync and SPF
   everywhere.  The refresh timer is pushed out to an hour so the
   measured windows hold only the work we inject. *)
let lsr_domain campuses =
  lazy
    (let c =
       Workload.Topo_gen.campuses_plain ~backbone_prefix_len:16 ~campuses
         ~mobiles_per_campus:1 ~correspondents:1 ~compute_routes:false ()
     in
     let topo = c.Workload.Topo_gen.cp_topo in
     let d =
       Lsr.Domain.create
         ~config:
           (Lsr.Config.make ~hello_interval:(Netsim.Time.of_ms 500)
              ~refresh_interval:(Netsim.Time.of_sec 3600.0) ())
         topo
     in
     Lsr.Domain.start d;
     Net.Topology.run ~until:(Netsim.Time.of_sec 5.0) topo;
     (topo, d))

let lsr_domains = List.map (fun n -> (n, lsr_domain n)) [8; 64; 256]

(* One origination + the complete flood it triggers: every router
   receives, dedups and re-floods the new LSA version.  The links are
   unchanged, so no SPF is scheduled anywhere — this isolates pure
   flooding cost (encode, broadcast, decode, store) from route
   computation, measured separately below.  10 ms of simulated time
   drains the flood across the backbone and every campus LAN. *)
let lsa_flood_test (n, dom) =
  Test.make ~name:(Printf.sprintf "lsr-lsa-flood-%d-campuses" n)
    (Staged.stage (fun () ->
         let topo, d = Lazy.force dom in
         Lsr.Router.reoriginate (List.hd (Lsr.Domain.routers d));
         Net.Topology.run
           ~until:(Netsim.Time.add (Net.Topology.now topo)
                     (Netsim.Time.of_ms 10))
           topo))

(* One router's full SPF over the converged database: shortest-path
   tree, next-hop resolution and table install. *)
let spf_test (n, dom) =
  Test.make ~name:(Printf.sprintf "lsr-spf-recompute-%d-campuses" n)
    (Staged.stage (fun () ->
         let _, d = Lazy.force dom in
         Lsr.Router.spf_now (List.hd (Lsr.Domain.routers d))))

let tests =
  [ Test.make ~name:"packet-encode" (Staged.stage (fun () ->
        ignore (Packet.encode sample_packet)));
    Test.make ~name:"packet-decode" (Staged.stage (fun () ->
        ignore (Packet.decode encoded_packet)));
    Test.make ~name:"checksum-84B" (Staged.stage (fun () ->
        ignore (Ipv4.Checksum.of_bytes encoded_packet)));
    (* the per-hop header work of the two forwarding paths; the view
       test restores the TTL it decrements every 60 iterations to stay
       steady-state.  exp_alloc gates the ratio. *)
    Test.make ~name:"fwd-hot-record" (Staged.stage (fun () ->
        let p = Packet.decode encoded_packet in
        match Packet.decr_ttl p with
        | Some p -> ignore (Packet.encode p)
        | None -> assert false));
    Test.make ~name:"fwd-hot-view" (Staged.stage (fun () ->
        let v = Packet.View.make fwd_view_buf in
        if not (Packet.View.valid v) then failwith "fwd-hot-view";
        (if !fwd_view_budget = 0 then begin
           Packet.View.set_ttl v Packet.default_ttl;
           fwd_view_budget := 60
         end);
        decr fwd_view_budget;
        Packet.View.decr_ttl v));
    (* the transport fixed cost: every socket byte crosses these twice
       (sender encode, receiver decode); 512B is the default MSS *)
    Test.make ~name:"tcp-segment-encode" (Staged.stage (fun () ->
        ignore (Ipv4.Tcp_lite.encode tcp_segment)));
    Test.make ~name:"tcp-segment-decode" (Staged.stage (fun () ->
        match Ipv4.Tcp_lite.decode tcp_wire with
        | Some _ -> ()
        | None -> failwith "tcp-segment-decode"));
    Test.make ~name:"mhrp-header-encode" (Staged.stage (fun () ->
        ignore (Mhrp.Mhrp_header.encode mhrp_header Bytes.empty)));
    Test.make ~name:"mhrp-header-decode" (Staged.stage (fun () ->
        ignore (Mhrp.Mhrp_header.decode encoded_header)));
    Test.make ~name:"encap-tunnel-by-agent" (Staged.stage (fun () ->
        ignore
          (Mhrp.Encap.tunnel_by_agent ~agent:(Addr.host 2 1)
             ~foreign_agent:(Addr.host 4 1) sample_packet)));
    Test.make ~name:"encap-detunnel" (Staged.stage (fun () ->
        ignore (Mhrp.Encap.detunnel tunneled)));
    Test.make ~name:"encap-retunnel" (Staged.stage (fun () ->
        ignore
          (Mhrp.Encap.retunnel ~max_prev_sources:8 ~me:(Addr.host 4 1)
             ~new_dst:(Addr.host 5 1) tunneled)));
    Test.make ~name:"location-cache-find" (Staged.stage (fun () ->
        ignore (Mhrp.Location_cache.find cache (Addr.host 9 32))));
    Test.make ~name:"route-lookup-1k-host-routes" (Staged.stage (fun () ->
        ignore (Net.Route.lookup host_route_table host_route_hit);
        ignore (Net.Route.lookup host_route_table host_route_miss)));
    Test.make ~name:"event-queue-churn-25pct-cancel" (Staged.stage (fun () ->
        (* 256 pushes, every 4th cancelled, then drain: the event-queue
           pattern of ARP timers and retransmissions under load *)
        let q = Netsim.Event_queue.create () in
        let handles =
          Array.init 256 (fun i ->
              Netsim.Event_queue.push q
                (Netsim.Time.of_us ((i * 7919) mod 1024)) i)
        in
        Array.iteri
          (fun i h ->
             if i mod 4 = 0 then ignore (Netsim.Event_queue.cancel q h))
          handles;
        let rec drain () =
          match Netsim.Event_queue.pop q with
          | Some _ -> drain ()
          | None -> ()
        in
        drain ()));
    Test.make ~name:"topology-construct-64-campuses" (Staged.stage (fun () ->
        (* construction only (registration, attachment, addressing) —
           route computation is measured separately below *)
        ignore
          (Workload.Topo_gen.campuses_plain ~campuses:64
             ~mobiles_per_campus:1 ~correspondents:1 ~compute_routes:false
             ())));
    Test.make ~name:"route-compute-8-campuses" (Staged.stage (fun () ->
        let c =
          Workload.Topo_gen.campuses_plain ~campuses:8
            ~mobiles_per_campus:1 ~correspondents:1 ()
        in
        Net.Topology.compute_routes c.Workload.Topo_gen.cp_topo));
    Test.make ~name:"figure1-full-scenario" (Staged.stage (fun () ->
        let env = Exp_util.fig_setup () in
        Exp_util.fig_move env 1.0 env.Exp_util.f.Workload.Topo_gen.net_d;
        Exp_util.fig_send env 2.0;
        Exp_util.fig_send env 3.0;
        Exp_util.fig_run ~until:5.0 env)) ]
  @ List.map cache_lookup_test scale_caches
  @ List.map route_bulk_test scale_routes
  @ List.map lsa_flood_test lsr_domains
  @ List.map spf_test lsr_domains

let run () =
  Exp_util.heading "MICRO" "bechamel micro-benchmarks (ns per run)";
  List.iter (fun (_, dom) -> ignore (Lazy.force dom)) lsr_domains;
  List.iter (fun (_, _, c) -> ignore (Lazy.force c)) scale_caches;
  List.iter (fun (_, p) -> ignore (Lazy.force p)) scale_routes;
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:None ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let rows =
    List.map
      (fun test ->
         let results = Benchmark.all cfg [instance] test in
         let name = Test.Elt.name (List.hd (Test.elements test)) in
         let analyzed = Analyze.all ols instance results in
         let estimate =
           Hashtbl.fold
             (fun _ v acc ->
                match Analyze.OLS.estimates v with
                | Some [x] -> x
                | _ -> acc)
             analyzed nan
         in
         (* wall-clock numbers vary across machines: archived in the JSON
            for trend analysis but never gated (Info tolerance) *)
         Obs.Registry.gauge Exp_util.registry ~exp:"micro"
           ~labels:[("op", name)] ~tol:Obs.Metric.Info "ns_per_run" estimate;
         [name; Printf.sprintf "%.0f" estimate])
      tests
  in
  Exp_util.table ~columns:["operation"; "ns/run"] rows

let experiment =
  Exp_util.Experiment.make ~id:"micro"
    ~title:"bechamel micro-benchmarks (ns per run)" run
