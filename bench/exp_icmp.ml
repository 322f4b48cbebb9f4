(* E8 — returned ICMP error handling (Section 4.5): the error must travel
   back along the tunnel chain, reversed at each head, to the original
   sender — when routers quote enough of the offending packet.  With the
   RFC 792 minimum quote, the paper concedes, agents can only drop their
   cache entries.  Both behaviours are measured. *)

open Exp_util
module TGm = Workload.Topo_gen
module Time = Netsim.Time

let run_case ~quote_full =
  let f =
    TGm.figure1 ~snoop_routers:false
      ~icmp_quote:(if quote_full then Node.Quote_full else Node.Quote_min)
      ()
  in
  let metrics = Workload.Metrics.create f.TGm.topo in
  let traffic = Workload.Traffic.create metrics (Topology.engine f.TGm.topo) in
  Workload.Metrics.watch_receiver metrics f.TGm.m;
  let m_addr = Agent.address f.TGm.m in
  let errors_at_sender = ref 0 and reconstructed = ref 0 in
  Agent.on_icmp_error f.TGm.s (fun _ original ->
      incr errors_at_sender;
      match original with
      | Some o when Addr.equal o.Ipv4.Packet.dst m_addr ->
        incr reconstructed
      | _ -> ());
  Workload.Mobility.move_at f.TGm.topo f.TGm.m ~at:(Time.of_sec 1.0)
    f.TGm.net_d;
  (* S learns the location so that it is the tunnel head *)
  Workload.Traffic.at traffic (Time.of_sec 2.0) (fun () ->
      Workload.Traffic.send_udp traffic ~src:f.TGm.s ~dst:m_addr ());
  Workload.Traffic.at traffic (Time.of_sec 3.0) (fun () ->
      Node.update_routes (Agent.node f.TGm.r3) (fun r ->
          Net.Route.remove
            (Net.Route.remove r (Net.Lan.prefix f.TGm.net_c))
            (Net.Lan.prefix f.TGm.net_d)));
  Workload.Traffic.at traffic (Time.of_sec 4.0) (fun () ->
      Workload.Traffic.send_udp traffic ~src:f.TGm.s ~dst:m_addr ());
  Topology.run ~until:(Time.of_sec 10.0) f.TGm.topo;
  let cache_purged =
    Mhrp.Location_cache.peek (Agent.cache f.TGm.s) m_addr = None
  in
  (!errors_at_sender, !reconstructed, cache_purged)

let run () =
  heading "E8" "returned ICMP error handling (Section 4.5)";
  let rows =
    List.map
      (fun quote_full ->
         let errors, reconstructed, purged = run_case ~quote_full in
         let labels =
           [("quote", if quote_full then "full" else "minimum")]
         in
         rec_i ~exp:"E8" ~labels "errors_at_sender" errors;
         rec_i ~exp:"E8" ~labels "original_reconstructed" reconstructed;
         rec_flag ~exp:"E8" ~labels "stale_cache_purged" purged;
         [ (if quote_full then "entire packet (RFC 1122 option)"
            else "IP header + 8 bytes (RFC 792 minimum)");
           i errors; i reconstructed;
           (if purged then "yes" else "NO") ])
      [true; false]
  in
  table
    ~columns:["error quotes"; "errors at sender"; "original reconstructed";
              "stale cache purged"]
    rows;
  note
    "full quote: the error arrives at the original sender with its \
     pre-tunnel packet reconstructed, after each tunnel head reversed its \
     own transformation.  minimum quote: the paper's fallback — the \
     tunnel head can only delete its cache entry, so the sender's next \
     packet takes a fresh path."

let experiment =
  Experiment.make ~id:"E8"
    ~title:"returned ICMP error handling (Section 4.5)" run
