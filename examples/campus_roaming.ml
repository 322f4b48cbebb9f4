(* Campus roaming: a larger internetwork with several campuses, each
   running a combined home/foreign agent on its campus router (the
   Section 2 combination), and mobile hosts roaming randomly between
   wireless cells while correspondents keep sending.

     dune exec examples/campus_roaming.exe -- [campuses] [mobiles] [seconds]

   Prints live hand-off events and a final delivery/latency report — the
   "continuously used while carried around" workload of the paper's
   introduction. *)

module Time = Netsim.Time
module Topology = Net.Topology
module Agent = Mhrp.Agent
module TG = Workload.Topo_gen

let () =
  let arg n default =
    if Array.length Sys.argv > n then int_of_string Sys.argv.(n)
    else default
  in
  let campuses = arg 1 4 in
  let mobiles = arg 2 2 in
  let seconds = arg 3 30 in
  let c =
    TG.campuses ~campuses ~mobiles_per_campus:mobiles ~correspondents:4 ()
  in
  let topo = c.TG.c_topo in
  let metrics = Workload.Metrics.create topo in
  let traffic = Workload.Traffic.create metrics (Topology.engine topo) in
  Format.printf
    "%d campuses, %d mobile hosts, 4 correspondents, %ds of simulated \
     time@."
    campuses (Array.length c.TG.c_mobiles) seconds;
  Array.iter
    (fun m ->
       Workload.Metrics.watch_receiver metrics m;
       Agent.on_registered m (fun fa ->
           Format.printf "[%a] %s -> %s@." Time.pp
             (Netsim.Engine.now (Topology.engine topo))
             (Net.Node.name (Agent.node m))
             (if Ipv4.Addr.is_zero fa then "home"
              else Ipv4.Addr.to_string fa));
       Workload.Mobility.random_waypoint topo m ~rng:(Topology.rng topo)
         ~lans:c.TG.c_cells ~dwell_mean:(Time.of_sec 5.0)
         ~until:(Time.of_sec (float_of_int (seconds - 5))))
    c.TG.c_mobiles;
  (* each correspondent keeps a CBR flow to one mobile host *)
  Array.iteri
    (fun k s ->
       let m = c.TG.c_mobiles.(k mod Array.length c.TG.c_mobiles) in
       Workload.Traffic.cbr traffic ~src:s ~dst:(Agent.address m)
         ~start:(Time.of_ms 700) ~interval:(Time.of_ms 200)
         ~count:(seconds * 5 - 5) ())
    c.TG.c_senders;
  Topology.run ~until:(Time.of_sec (float_of_int seconds)) topo;
  Format.printf "@.--- results ---@.";
  Format.printf "%a@." Workload.Metrics.pp_summary metrics;
  let total_moves =
    Array.fold_left
      (fun acc m ->
         match Agent.mobile m with
         | Some mh -> acc + mh.Mhrp.Mobile_host.moves
         | None -> acc)
      0 c.TG.c_mobiles
  in
  let total_ctrl =
    Array.fold_left
      (fun acc a -> acc + (Agent.counters a).Mhrp.Counters.control_messages)
      0
      (Array.append c.TG.c_routers
         (Array.append c.TG.c_mobiles c.TG.c_senders))
  in
  Format.printf "hand-offs: %d, control messages: %d (%.1f per hand-off)@."
    total_moves total_ctrl
    (float_of_int total_ctrl /. float_of_int (max 1 total_moves));
  Array.iter
    (fun r ->
       Format.printf "%s: %a@." (Net.Node.name (Agent.node r))
         Mhrp.Counters.pp (Agent.counters r))
    c.TG.c_routers
