(* Ablations of DESIGN.md Section 4: the design knobs the paper leaves to
   the implementation, swept to show their effect. *)

open Exp_util
module TGm = Workload.Topo_gen
module Time = Netsim.Time

(* cache capacity vs hit rate: many mobile correspondents, small cache *)
let cache_capacity_run ~capacity =
  let config =
    Mhrp.Config.make ~cache_capacity:capacity ()
  in
  let c =
    TGm.campuses ~config ~campuses:4 ~mobiles_per_campus:4
      ~correspondents:1 ()
  in
  let topo = c.TGm.c_topo in
  let s = c.TGm.c_senders.(0) in
  (* all 16 mobiles move to the next campus *)
  Array.iteri
    (fun k m ->
       ignore
         (Netsim.Engine.schedule (Topology.engine topo)
            ~at:(Time.of_sec (1.0 +. (0.02 *. float_of_int k)))
            (fun () ->
               Agent.move_to ~topo m c.TGm.c_cells.((k / 4 + 1) mod 4))))
    c.TGm.c_mobiles;
  (* the sender cycles over all mobiles repeatedly *)
  let id = ref 0 in
  for round = 0 to 7 do
    Array.iteri
      (fun k m ->
         incr id;
         let this = !id in
         ignore
           (Netsim.Engine.schedule (Topology.engine topo)
              ~at:(Time.of_sec
                     (3.0 +. (0.5 *. float_of_int round)
                      +. (0.01 *. float_of_int k)))
              (fun () ->
                 Agent.send s
                   (sample_packet ~id:this ~src:(Agent.address s)
                      ~dst:(Agent.address m) ()))))
      c.TGm.c_mobiles
  done;
  Topology.run ~until:(Time.of_sec 10.0) topo;
  let cache = Agent.cache s in
  let hits = Mhrp.Location_cache.hits cache in
  let misses = Mhrp.Location_cache.misses cache in
  let hit_rate =
    if hits + misses = 0 then 0.0
    else float_of_int hits /. float_of_int (hits + misses)
  in
  (hit_rate, Mhrp.Location_cache.evictions cache)

(* rate limiting vs update volume toward a non-caching sender *)
let rate_limit_run ~min_interval_ms =
  let config =
    Mhrp.Config.make ~update_min_interval:(Time.of_ms min_interval_ms) ()
  in
  (* snooping off: otherwise R1 starts tunneling for the non-MHRP host
     after the first update (Section 6.2) and the home agent never sees
     the rest of the burst *)
  let env = fig_setup ~config ~snoop_routers:false () in
  fig_move env 1.0 env.f.TGm.net_d;
  (* a plain (non-MHRP) host hammers M: the home agent wants to send it an
     update per intercepted packet *)
  let pn = Topology.add_host env.f.TGm.topo "P" env.f.TGm.net_a 11 in
  Topology.compute_routes env.f.TGm.topo;
  for k = 1 to 20 do
    fig_at env (2.0 +. (0.05 *. float_of_int k)) (fun () ->
        Node.send pn
          (sample_packet ~id:(1000 + k) ~src:(Node.primary_addr pn)
             ~dst:env.m_addr ()))
  done;
  fig_run env;
  let c = Agent.counters env.f.TGm.r2 in
  (c.Mhrp.Counters.updates_sent,
   Mhrp.Rate_limiter.suppressed (Agent.limiter env.f.TGm.r2))

let run () =
  heading "A1" "ablation: cache capacity vs hit rate (16 mobile peers)";
  let rows =
    sweep ~exp:"A" ~labels:[("sweep", "a1")] [2; 4; 8; 16; 32]
      ~trial:(fun ctx cap ->
          let hit_rate, evictions = cache_capacity_run ~capacity:cap in
          let reg = ctx.Parallel.Sweep.registry in
          let labels = [("capacity", string_of_int cap)] in
          rec_f ~reg ~exp:"A" ~labels "hit_rate" hit_rate;
          rec_i ~reg ~exp:"A" ~labels "evictions" evictions;
          [i cap; f2 hit_rate; i evictions])
  in
  table ~columns:["cache entries"; "hit rate"; "evictions"] rows;
  note
    "once the cache holds all 16 correspondent mobiles the hit rate \
     saturates; below that, LRU churn sends packets back through home \
     agents.";

  heading "A2"
    "ablation: location-update rate limiting toward one non-MHRP sender";
  let rows =
    sweep ~exp:"A" ~labels:[("sweep", "a2")] [0; 100; 1000; 5000]
      ~trial:(fun ctx ms ->
          let sent, suppressed = rate_limit_run ~min_interval_ms:ms in
          let reg = ctx.Parallel.Sweep.registry in
          let labels = [("min_interval_ms", string_of_int ms)] in
          rec_i ~reg ~exp:"A" ~labels "updates_sent" sent;
          rec_i ~reg ~exp:"A" ~labels "updates_suppressed" suppressed;
          [i ms; i sent; i suppressed])
  in
  table
    ~columns:["min interval ms"; "updates sent"; "updates suppressed"]
    rows;
  note
    "a host that ignores location updates would otherwise receive one per \
     intercepted packet (Section 4.3's flooding concern); the LRU-timed \
     limiter caps that without touching protocol correctness."

let experiment =
  Experiment.make ~id:"A"
    ~title:"ablations of the implementation-defined knobs (DESIGN.md \
            Section 4)"
    run
