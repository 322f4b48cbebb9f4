(* mhrp_sim — command-line driver for the MHRP simulator.

   Subcommands:
     figure1   run the paper's Figure 1 example and dump the event trace
     roam      roam mobile hosts over a campus internetwork, print metrics
     handoff   rapid ping-pong hand-offs with optional home-agent outage
     loop      manufacture a cache loop and watch its dissolution
     sweep     grid of independent roaming trials over a domain pool
               (--jobs), metrics merged deterministically in grid order *)

open Cmdliner
module Time = Netsim.Time
module Node = Net.Node
module Topology = Net.Topology
module Agent = Mhrp.Agent
module TG = Workload.Topo_gen

let seed_arg =
  let doc = "Deterministic simulation seed." in
  Arg.(value & opt int 42 & info ["seed"] ~docv:"SEED" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for parallel sweeps.  Results are bit-identical \
     whatever the value; it only moves wall-clock.  Defaults to the \
     machine's recommended domain count."
  in
  Arg.(value & opt int (Parallel.Sweep.default_jobs ())
       & info ["jobs"; "j"] ~docv:"N" ~doc)

(* --- figure1 --- *)

let run_figure1 seed trace_out =
  let f = TG.figure1 ~seed () in
  let topo = f.TG.topo in
  if trace_out then Netsim.Trace.set_enabled (Topology.trace topo) true;
  let metrics = Workload.Metrics.create topo in
  let traffic = Workload.Traffic.create metrics (Topology.engine topo) in
  let m_addr = Agent.address f.TG.m in
  Workload.Metrics.watch_receiver metrics f.TG.m;
  Workload.Traffic.at traffic (Time.of_sec 0.5) (fun () ->
      Workload.Traffic.send_udp traffic ~src:f.TG.s ~dst:m_addr ());
  Workload.Mobility.move_at topo f.TG.m ~at:(Time.of_sec 1.0) f.TG.net_d;
  Workload.Traffic.cbr traffic ~src:f.TG.s ~dst:m_addr
    ~start:(Time.of_sec 2.0) ~interval:(Time.of_ms 500) ~count:4 ();
  Workload.Mobility.move_at topo f.TG.m ~at:(Time.of_sec 5.0) f.TG.net_b;
  Workload.Traffic.cbr traffic ~src:f.TG.s ~dst:m_addr
    ~start:(Time.of_sec 6.0) ~interval:(Time.of_ms 500) ~count:2 ();
  Topology.run ~until:(Time.of_sec 8.0) topo;
  if trace_out then
    Netsim.Trace.dump Format.std_formatter (Topology.trace topo);
  Format.printf "%a@." Workload.Metrics.pp_summary metrics;
  List.iter
    (fun agent ->
       Format.printf "%-3s %a@."
         (Node.name (Agent.node agent))
         Mhrp.Counters.pp (Agent.counters agent))
    [f.TG.s; f.TG.r1; f.TG.r2; f.TG.r3; f.TG.r4; f.TG.m]

let figure1_cmd =
  let trace =
    Arg.(value & flag & info ["trace"] ~doc:"Dump the full event trace.")
  in
  Cmd.v
    (Cmd.info "figure1"
       ~doc:"Run the paper's Figure 1 example (Sections 6.1-6.3).")
    Term.(const run_figure1 $ seed_arg $ trace)

(* --- roam --- *)

let run_roam seed campuses mobiles seconds use_lsr json_out =
  let c =
    TG.campuses ~seed ~campuses ~mobiles_per_campus:mobiles
      ~correspondents:4 ()
  in
  let topo = c.TG.c_topo in
  (* --lsr swaps the instantaneous oracle tables for the distributed
     control plane: router tables start cold and are rebuilt from hello
     and LSA exchange.  100 ms hellos converge the backbone well before
     the traffic starts at 700 ms. *)
  let lsr_domain =
    if not use_lsr then None
    else begin
      let d =
        Lsr.Domain.create
          ~config:(Lsr.Config.make ~hello_interval:(Time.of_ms 100) ())
          topo
      in
      Lsr.Domain.start d;
      Some d
    end
  in
  let metrics = Workload.Metrics.create topo in
  let traffic = Workload.Traffic.create metrics (Topology.engine topo) in
  Array.iter
    (fun m ->
       Workload.Metrics.watch_receiver metrics m;
       Workload.Mobility.random_waypoint topo m ~rng:(Topology.rng topo)
         ~lans:c.TG.c_cells ~dwell_mean:(Time.of_sec 5.0)
         ~until:(Time.of_sec (float_of_int (max 1 (seconds - 3)))))
    c.TG.c_mobiles;
  Array.iteri
    (fun k s ->
       let m = c.TG.c_mobiles.(k mod Array.length c.TG.c_mobiles) in
       Workload.Traffic.cbr traffic ~src:s ~dst:(Agent.address m)
         ~start:(Time.of_ms 700) ~interval:(Time.of_ms 200)
         ~count:(max 1 ((seconds * 5) - 5)) ())
    c.TG.c_senders;
  Topology.run ~until:(Time.of_sec (float_of_int seconds)) topo;
  Format.printf "%a@." Workload.Metrics.pp_summary metrics;
  let moves =
    Array.fold_left
      (fun acc m ->
         match Agent.mobile m with
         | Some mh -> acc + mh.Mhrp.Mobile_host.moves
         | None -> acc)
      0 c.TG.c_mobiles
  in
  Format.printf "hand-offs: %d@." moves;
  (match lsr_domain with
   | None -> ()
   | Some d ->
     Format.printf "lsr: %a@." Lsr.Counters.pp (Lsr.Domain.totals d);
     Format.printf "lsr converged: %b  oracle-equivalent: %b@."
       (Lsr.Domain.synchronized d) (Lsr.Domain.equivalent d));
  match json_out with
  | None -> ()
  | Some file ->
    let reg = Obs.Registry.create () in
    Workload.Metrics.record_obs metrics reg ~exp:"roam"
      ~labels:[("campuses", string_of_int campuses)] ();
    Obs.Registry.counter reg ~exp:"roam"
      ~labels:[("campuses", string_of_int campuses)] "handoffs" moves;
    let oc = open_out file in
    output_string oc (Obs.Json.to_string ~pretty:true (Obs.Registry.to_json ~commit:"" reg));
    output_char oc '\n';
    close_out oc;
    Format.printf "metrics written to %s@." file

let roam_cmd =
  let campuses =
    Arg.(value & opt int 4 & info ["campuses"] ~docv:"N"
           ~doc:"Number of campuses.")
  in
  let mobiles =
    Arg.(value & opt int 2 & info ["mobiles"] ~docv:"N"
           ~doc:"Mobile hosts per campus.")
  in
  let seconds =
    Arg.(value & opt int 30 & info ["seconds"] ~docv:"S"
           ~doc:"Simulated seconds.")
  in
  let json =
    Arg.(value & opt (some string) None & info ["json"] ~docv:"FILE"
           ~doc:"Also write the run's metrics as JSON (lib/obs schema).")
  in
  let use_lsr =
    Arg.(value & flag
         & info ["lsr"]
             ~doc:"Replace the instantaneous routing oracle with the \
                   distributed link-state control plane (lib/lsr): \
                   routers start with empty tables and build them from \
                   hello and LSA exchange inside the simulation.")
  in
  Cmd.v
    (Cmd.info "roam"
       ~doc:"Random-waypoint roaming over a campus internetwork.")
    Term.(const run_roam $ seed_arg $ campuses $ mobiles $ seconds
          $ use_lsr $ json)

(* --- handoff --- *)

let run_handoff seed period_ms ha_outage =
  let f = TG.figure1 ~seed () in
  let topo = f.TG.topo in
  let net_e = Topology.add_lan topo ~net:5 "netE" in
  let r5n = Topology.add_router topo "R5" [(f.TG.net_c, 3); (net_e, 1)] in
  Topology.compute_routes topo;
  let r5 = Agent.create r5n in
  Agent.enable_foreign_agent r5
    ~iface:(Option.get (Node.iface_to r5n (Net.Lan.prefix net_e)));
  let metrics = Workload.Metrics.create topo in
  let traffic = Workload.Traffic.create metrics (Topology.engine topo) in
  Workload.Metrics.watch_receiver metrics f.TG.m;
  Workload.Mobility.ping_pong topo f.TG.m ~a:f.TG.net_d ~b:net_e
    ~start:(Time.of_sec 1.0) ~period:(Time.of_ms period_ms) ~moves:10;
  Workload.Traffic.cbr traffic ~src:f.TG.s ~dst:(Agent.address f.TG.m)
    ~start:(Time.of_ms 1100) ~interval:(Time.of_ms 200) ~count:60 ();
  if ha_outage then begin
    Workload.Traffic.at traffic (Time.of_sec 4.0) (fun () ->
        Node.set_up (Agent.node f.TG.r2) false);
    Workload.Traffic.at traffic (Time.of_sec 9.0) (fun () ->
        Node.set_up (Agent.node f.TG.r2) true)
  end;
  Topology.run ~until:(Time.of_sec 16.0) topo;
  Format.printf "%a@." Workload.Metrics.pp_summary metrics;
  Format.printf "forwarding-pointer re-tunnels: R4=%d R5=%d@."
    (Agent.counters f.TG.r4).Mhrp.Counters.retunnels
    (Agent.counters r5).Mhrp.Counters.retunnels

let handoff_cmd =
  let period =
    Arg.(value & opt int 1000 & info ["period"] ~docv:"MS"
           ~doc:"Milliseconds between hand-offs.")
  in
  let outage =
    Arg.(value & flag & info ["ha-outage"]
           ~doc:"Take the home agent down mid-run.")
  in
  Cmd.v
    (Cmd.info "handoff" ~doc:"Rapid hand-offs between two wireless cells.")
    Term.(const run_handoff $ seed_arg $ period $ outage)

(* --- loop --- *)

let run_loop seed size max_list =
  ignore seed;
  let config =
    Mhrp.Config.make ~max_prev_sources:max_list
      ~on_loop:Mhrp.Config.Tunnel_home ()
  in
  let ch = TG.chain ~config ~n:(size + 1) () in
  let topo = ch.TG.ch_topo in
  Netsim.Trace.set_enabled (Topology.trace topo) true;
  let routers = ch.TG.ch_routers in
  let mn = Topology.add_host topo "Mh" ch.TG.ch_stubs.(0) 99 in
  Topology.compute_routes topo;
  let m = Agent.create ~config mn in
  Agent.make_mobile m ~home_agent:(Agent.address routers.(0));
  Agent.enable_home_agent routers.(0);
  Agent.add_mobile routers.(0) (Agent.address m);
  let mobile = Agent.address m in
  let ring = Array.sub routers 1 size in
  Array.iteri
    (fun k r ->
       Mhrp.Location_cache.insert (Agent.cache r) ~mobile
         ~foreign_agent:(Agent.address ring.((k + 1) mod size)))
    ring;
  let pkt =
    Ipv4.Packet.make ~id:1 ~proto:Ipv4.Proto.udp ~src:(Ipv4.Addr.host 200 1)
      ~dst:mobile
      (Ipv4.Udp.encode
         (Ipv4.Udp.make ~src_port:1 ~dst_port:2 (Bytes.make 16 '\000')))
  in
  Node.inject_local (Agent.node ring.(0))
    (Mhrp.Encap.tunnel_by_sender ~foreign_agent:(Agent.address ring.(0)) pkt);
  Topology.run ~until:(Time.of_sec 20.0) topo;
  Netsim.Trace.dump Format.std_formatter (Topology.trace topo);
  Array.iter
    (fun r ->
       Format.printf "%s: %a@." (Node.name (Agent.node r)) Mhrp.Counters.pp
         (Agent.counters r))
    ring

let loop_cmd =
  let size =
    Arg.(value & opt int 3 & info ["size"] ~docv:"L"
           ~doc:"Number of cache agents in the loop.")
  in
  let max_list =
    Arg.(value & opt int 8 & info ["max-list"] ~docv:"K"
           ~doc:"Maximum previous-source list length.")
  in
  Cmd.v
    (Cmd.info "loop"
       ~doc:"Manufacture a cache-agent loop and trace its dissolution.")
    Term.(const run_loop $ seed_arg $ size $ max_list)

(* --- sweep --- *)

(* One independent roaming trial: its own engine, topology and RNG, all
   seeded from the sweep's per-trial seed, with metrics recorded into the
   trial's private registry.  Pure in the Sweep sense: no shared state,
   no printing. *)
let sweep_trial ctx (campuses, trial_no) =
  let seed = ctx.Parallel.Sweep.seed in
  let c =
    TG.campuses ~seed ~campuses ~mobiles_per_campus:2 ~correspondents:4 ()
  in
  let topo = c.TG.c_topo in
  let metrics = Workload.Metrics.create topo in
  let traffic = Workload.Traffic.create metrics (Topology.engine topo) in
  Array.iter
    (fun m ->
       Workload.Metrics.watch_receiver metrics m;
       Workload.Mobility.random_waypoint topo m ~rng:(Topology.rng topo)
         ~lans:c.TG.c_cells ~dwell_mean:(Time.of_sec 5.0)
         ~until:(Time.of_sec 17.0))
    c.TG.c_mobiles;
  Array.iteri
    (fun k s ->
       let m = c.TG.c_mobiles.(k mod Array.length c.TG.c_mobiles) in
       Workload.Traffic.cbr traffic ~src:s ~dst:(Agent.address m)
         ~start:(Time.of_ms 700) ~interval:(Time.of_ms 200) ~count:90 ())
    c.TG.c_senders;
  Topology.run ~until:(Time.of_sec 20.0) topo;
  let sent = List.length (Workload.Metrics.records metrics) in
  let delivered = List.length (Workload.Metrics.delivered metrics) in
  let handoffs =
    Array.fold_left
      (fun acc m ->
         match Agent.mobile m with
         | Some mh -> acc + mh.Mhrp.Mobile_host.moves
         | None -> acc)
      0 c.TG.c_mobiles
  in
  let labels =
    [ ("campuses", string_of_int campuses);
      ("trial", string_of_int trial_no) ]
  in
  let reg = ctx.Parallel.Sweep.registry in
  Obs.Registry.counter reg ~exp:"sweep" ~labels "sent" sent;
  Obs.Registry.counter reg ~exp:"sweep" ~labels "delivered" delivered;
  Obs.Registry.counter reg ~exp:"sweep" ~labels "handoffs" handoffs;
  (campuses, trial_no, sent, delivered, handoffs)

let run_sweep seed jobs campuses trials json_out =
  Parallel.Sweep.set_default_jobs jobs;
  let points =
    List.concat_map
      (fun n -> List.init trials (fun t -> (n, t)))
      campuses
  in
  let registry = Obs.Registry.create () in
  let wall = ref 0.0 in
  let outcomes =
    Parallel.Sweep.run ~into:registry ~seed ~trial:sweep_trial points
      ~on_done:(fun s -> wall := s.Parallel.Sweep.elapsed_s)
  in
  Format.printf "%-9s %-6s %-6s %-10s %-9s@." "campuses" "trial" "sent"
    "delivered" "handoffs";
  List.iter
    (fun (n, t, sent, delivered, handoffs) ->
       Format.printf "%-9d %-6d %-6d %-10d %-9d@." n t sent delivered
         handoffs)
    outcomes;
  Format.printf "%d trials over %d domains in %.0f ms@."
    (List.length points) jobs (!wall *. 1000.0);
  match json_out with
  | None -> ()
  | Some file ->
    let oc = open_out file in
    output_string oc
      (Obs.Json.to_string ~pretty:true
         (Obs.Registry.to_json ~commit:"" registry));
    output_char oc '\n';
    close_out oc;
    Format.printf "metrics written to %s@." file

let sweep_cmd =
  let campuses =
    Arg.(value & opt (list int) [2; 4; 8]
         & info ["campuses"] ~docv:"N,N,.."
             ~doc:"Campus counts to sweep over.")
  in
  let trials =
    Arg.(value & opt int 3 & info ["trials"] ~docv:"T"
           ~doc:"Independently seeded trials per campus count.")
  in
  let json =
    Arg.(value & opt (some string) None & info ["json"] ~docv:"FILE"
           ~doc:"Also write the sweep's metrics as JSON (lib/obs schema).")
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Run a campuses x trials grid of independent roaming \
             simulations across a pool of domains.  Trial seeds derive \
             from --seed and the grid position, so the merged metrics \
             are bit-identical for any --jobs value.")
    Term.(const run_sweep $ seed_arg $ jobs_arg $ campuses $ trials $ json)

let () =
  let info =
    Cmd.info "mhrp_sim" ~version:"1.0.0"
      ~doc:"Simulator for the Mobile Host Routing Protocol (Johnson, ICDCS \
            1994)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [figure1_cmd; roam_cmd; handoff_cmd; loop_cmd; sweep_cmd]))
