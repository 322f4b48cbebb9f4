(* E19 — million-host scale: memory-lean location state and
   hierarchical registration.

   Two parts, both swept through the multicore runner:

   - Protocol (regions topology, deterministic, gated Exact): every
     mobile host leaves home for a far region, then hands off between
     that region's cells.  Flat registration pays one home-agent
     registration per handoff; hierarchical registration
     ([Config.hierarchy]) absorbs intra-region handoffs at the regional
     agent, so the home agent hears from each host exactly once.  The
     >= 5x home-agent message reduction is gated as a flag (the observed
     reduction is 1.0 -> 0.0 per handoff, i.e. unbounded).

   - State scale (10^4..10^6 hosts, no simulator): populate one
     aggregation point's location state — home-agent database, location
     cache, border-router route table, regional binding tables — and
     account actual heap bytes per host via the [footprint_bytes]
     accessors of the compact int-keyed backings.  Footprints are pure
     functions of the population, so per-host bytes are gated Exact;
     GC allocation words and wall-clock are archived at Info tolerance
     (they vary across compiler versions and machines).  The 10^6 point
     only runs with E19_FULL=1 in the environment and is recorded at
     Info tolerance so CI baselines stay complete without it. *)

open Exp_util
module TGm = Workload.Topo_gen
module Time = Netsim.Time

let exp = "E19"

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* --- part 1: flat vs hierarchical registration ------------------- *)

let n_regions = 4
let n_cells = 4
let mobiles_per_region = 8
let intra_handoffs = 3

type proto_outcome = {
  mode : string;
  mobiles : int;
  intra_moves : int;
  ha_regs : int;
  regional_regs : int;
  regional_retunnels : int;
  ctrl : int;
  delivered : int;
  build_s : float;
  sim_s : float;
}

(* Mobile k of region r visits the far region (r + R/2) mod R: one
   inter-region move at ~1s, then [intra_handoffs] handoffs between
   that region's cells at 2s intervals, staggered 10ms per mobile.
   After the last handoff every correspondent sends one datagram to
   every mobile. *)
let run_proto ~hierarchy =
  let mode = if hierarchy then "hier" else "flat" in
  let config = Mhrp.Config.make ~hierarchy () in
  let rg, build_s =
    timed (fun () ->
        TGm.regions ~config ~regions:n_regions ~cells:n_cells
          ~mobiles_per_region ~correspondents:n_regions ())
  in
  let topo = rg.TGm.rg_topo in
  let received = ref 0 in
  Array.iter
    (fun m -> Agent.on_app_receive m (fun _ -> incr received))
    rg.TGm.rg_mobiles;
  Array.iteri
    (fun k m ->
       let r = k / mobiles_per_region and j = k mod mobiles_per_region in
       let v = (r + (n_regions / 2)) mod n_regions in
       for h = 0 to intra_handoffs do
         let cell = rg.TGm.rg_cells.(v).((j + h) mod n_cells) in
         let at =
           Time.of_sec
             (1.0 +. (2.0 *. float_of_int h) +. (0.01 *. float_of_int k))
         in
         ignore
           (Netsim.Engine.schedule (Topology.engine topo) ~at (fun () ->
                Agent.move_to ~topo m cell))
       done)
    rg.TGm.rg_mobiles;
  Array.iteri
    (fun k m ->
       let s = rg.TGm.rg_senders.(k mod Array.length rg.TGm.rg_senders) in
       ignore
         (Netsim.Engine.schedule (Topology.engine topo)
            ~at:(Time.of_sec 10.0) (fun () ->
                Agent.send s
                  (sample_packet ~id:(k + 1) ~src:(Agent.address s)
                     ~dst:(Agent.address m) ()))))
    rg.TGm.rg_mobiles;
  let (), sim_s =
    timed (fun () -> Topology.run ~until:(Time.of_sec 13.0) topo)
  in
  let routers =
    Array.to_list rg.TGm.rg_regionals
    @ List.concat_map Array.to_list (Array.to_list rg.TGm.rg_fas)
  in
  let agents =
    routers @ Array.to_list rg.TGm.rg_mobiles
    @ Array.to_list rg.TGm.rg_senders
  in
  let sum f = List.fold_left (fun acc a -> acc + f a) 0 agents in
  let ha_regs = sum (fun a -> (Agent.counters a).Mhrp.Counters.registrations)
  and regional_retunnels =
    sum (fun a -> (Agent.counters a).Mhrp.Counters.regional_retunnels)
  and ctrl =
    sum (fun a -> (Agent.counters a).Mhrp.Counters.control_messages)
  and regional_regs =
    sum (fun a ->
        match Agent.regional_agent a with
        | Some ra -> Mhrp.Regional.registrations ra
        | None -> 0)
  in
  let mobiles = Array.length rg.TGm.rg_mobiles in
  { mode; mobiles; intra_moves = mobiles * intra_handoffs; ha_regs;
    regional_regs; regional_retunnels; ctrl; delivered = !received;
    build_s; sim_s }

(* Home-agent registrations caused by intra-region handoffs alone: the
   inter-region move costs one each way of working. *)
let ha_per_intra o =
  float_of_int (o.ha_regs - o.mobiles) /. float_of_int o.intra_moves

let part_proto () =
  let outcomes =
    sweep ~exp ~labels:[("part", "proto")] [false; true]
      ~trial:(fun ctx hierarchy ->
          let o = run_proto ~hierarchy in
          let reg = ctx.Parallel.Sweep.registry in
          let labels = [("mode", o.mode)] in
          rec_i ~reg ~exp ~labels "ha_registrations" o.ha_regs;
          rec_i ~reg ~exp ~labels "regional_registrations" o.regional_regs;
          rec_i ~reg ~exp ~labels "regional_retunnels" o.regional_retunnels;
          rec_i ~reg ~exp ~labels "ctrl_msgs" o.ctrl;
          rec_f ~reg ~exp ~labels "ha_regs_per_intra_handoff"
            (ha_per_intra o);
          rec_i ~reg ~exp ~labels "delivered" o.delivered;
          rec_f ~reg ~exp ~labels ~tol:Obs.Metric.Info "build_ms"
            (o.build_s *. 1000.0);
          rec_f ~reg ~exp ~labels ~tol:Obs.Metric.Info "sim_ms"
            (o.sim_s *. 1000.0);
          o)
  in
  let flat = List.nth outcomes 0 and hier = List.nth outcomes 1 in
  (* flat pays 1 HA registration per intra-region handoff, hier pays 0:
     the reduction is unbounded, trivially >= 5x.  Guard the division by
     comparing products. *)
  rec_flag ~exp "ha_msgs_reduction_ge_5x"
    (ha_per_intra flat > 0.0
     && ha_per_intra flat >= 5.0 *. ha_per_intra hier);
  table
    ~columns:
      [ "mode"; "mobiles"; "intra moves"; "HA regs"; "HA regs/handoff";
        "regional regs"; "regional retunnels"; "ctrl msgs"; "delivered" ]
    (List.map
       (fun o ->
          [ o.mode; i o.mobiles; i o.intra_moves; i o.ha_regs;
            f2 (ha_per_intra o); i o.regional_regs;
            i o.regional_retunnels; i o.ctrl; i o.delivered ])
       outcomes);
  note
    "hierarchy: the home agent hears one registration per host (%d) \
     instead of one per handoff (%d); %d intra-region handoffs were \
     absorbed by regional binding tables"
    hier.ha_regs flat.ha_regs hier.regional_regs

(* --- part 2: per-host state bytes at 10^4..10^6 hosts ------------- *)

(* The address plan: host i lives at 10.0.0.0 + i, so a region is a /24
   and [hosts_per_region] consecutive hosts share one aggregated route.
   Foreign agents and regional agents get the 11.x mirror addresses. *)
let hosts_per_region = 256

let host_addr i = Ipv4.Addr.of_int (0x0A00_0000 lor i)
let fa_addr g = Ipv4.Addr.of_int (0x0B00_0000 lor (g * hosts_per_region))

let regions_of n = (n + hosts_per_region - 1) / hosts_per_region

type scale_outcome = {
  n : int;
  gated : bool;
  ha_b : int;  (* home-agent database footprint *)
  cache_b : int;  (* correspondent location-cache footprint *)
  route_flat_b : int;  (* border router: one /32 per host *)
  route_hier_b : int;  (* border router: one /24 per region *)
  regional_b : int;  (* all regional binding tables together *)
  flat_words : float;  (* minor+major words per host, flat populate *)
  hier_words : float;
  flat_s : float;
  hier_s : float;
}

(* The scalability quantity: bytes the infrastructure OUTSIDE a host's
   current region holds to reach it — home-agent entry, correspondent
   cache entry, border-router route.  Hierarchy collapses only the last
   one; the regional binding table is state inside the region (reported
   separately as [regional_bytes_per_host]) and is the constant-cost
   trade for the collapse. *)
let flat_total o = o.ha_b + o.cache_b + o.route_flat_b
let hier_total o = o.ha_b + o.cache_b + o.route_hier_b

(* Populate one aggregation point's view of an [n]-host population and
   account the heap it pins.  The home agent and the correspondent's
   cache hold one binding per host in both modes (the cache maps hosts
   to their regional agent under hierarchy — same cardinality); the
   border route table and the regional binding tables are where the
   modes diverge. *)
let run_scale n =
  let g_of i = i / hosts_per_region in
  let nr = regions_of n in
  let (ha_b, cache_b, route_flat_b), flat_alloc, flat_s =
    let t0 = Unix.gettimeofday () in
    let r, a =
      Obs.Alloc.measure (fun () ->
          let ha = Mhrp.Home_agent.create () in
          for i = 0 to n - 1 do
            Mhrp.Home_agent.add_mobile ha (host_addr i);
            Mhrp.Home_agent.register ha ~mobile:(host_addr i)
              ~foreign_agent:(fa_addr (g_of i))
          done;
          let cache = Mhrp.Location_cache.create ~capacity:n in
          for i = 0 to n - 1 do
            Mhrp.Location_cache.insert cache ~mobile:(host_addr i)
              ~foreign_agent:(fa_addr (g_of i))
          done;
          let route =
            Net.Route.bulk
              (List.init n (fun i ->
                   ( Ipv4.Addr.Prefix.make (host_addr i) 32,
                     Net.Route.Via (fa_addr (g_of i)) )))
          in
          ( Mhrp.Home_agent.footprint_bytes ha,
            Mhrp.Location_cache.footprint_bytes cache,
            Net.Route.compiled_footprint_bytes route ))
    in
    (r, a, Unix.gettimeofday () -. t0)
  in
  let (route_hier_b, regional_b), hier_alloc, hier_s =
    let t0 = Unix.gettimeofday () in
    let r, a =
      Obs.Alloc.measure (fun () ->
          let route =
            Net.Route.bulk
              (List.init nr (fun g ->
                   ( Ipv4.Addr.Prefix.make (host_addr (g * hosts_per_region))
                       24,
                     Net.Route.Via (fa_addr g) )))
          in
          let regionals = Array.init nr (fun _ -> Mhrp.Regional.create ()) in
          for i = 0 to n - 1 do
            ignore
              (Mhrp.Regional.register regionals.(g_of i)
                 ~mobile:(host_addr i) ~foreign_agent:(fa_addr (g_of i)) ())
          done;
          ( Net.Route.compiled_footprint_bytes route,
            Array.fold_left
              (fun acc ra -> acc + Mhrp.Regional.footprint_bytes ra)
              0 regionals ))
    in
    (r, a, Unix.gettimeofday () -. t0)
  in
  let per_host a =
    (a.Obs.Alloc.minor_words +. a.Obs.Alloc.major_words
     -. a.Obs.Alloc.promoted_words)
    /. float_of_int n
  in
  { n; gated = n <= 100_000; ha_b; cache_b; route_flat_b; route_hier_b;
    regional_b; flat_words = per_host flat_alloc;
    hier_words = per_host hier_alloc; flat_s; hier_s }

let part_scale () =
  let full = Sys.getenv_opt "E19_FULL" = Some "1" in
  let points = [10_000; 100_000] @ (if full then [1_000_000] else []) in
  let outcomes =
    sweep ~exp ~labels:[("part", "scale")] points
      ~trial:(fun ctx n ->
          let o = run_scale n in
          let reg = ctx.Parallel.Sweep.registry in
          (* the 10^6 point is opt-in (E19_FULL=1): record it at Info so
             a baseline captured without it stays complete *)
          let tol = if o.gated then None else Some Obs.Metric.Info in
          let labels mode = [("mode", mode); ("n", string_of_int o.n)] in
          let shared = [("n", string_of_int o.n)] in
          rec_f ~reg ~exp ~labels:shared ?tol "ha_bytes_per_host"
            (float_of_int o.ha_b /. float_of_int o.n);
          rec_f ~reg ~exp ~labels:shared ?tol "cache_bytes_per_host"
            (float_of_int o.cache_b /. float_of_int o.n);
          rec_f ~reg ~exp ~labels:(labels "flat") ?tol
            "route_bytes_per_host"
            (float_of_int o.route_flat_b /. float_of_int o.n);
          rec_f ~reg ~exp ~labels:(labels "hier") ?tol
            "route_bytes_per_host"
            (float_of_int o.route_hier_b /. float_of_int o.n);
          rec_f ~reg ~exp ~labels:shared ?tol "regional_bytes_per_host"
            (float_of_int o.regional_b /. float_of_int o.n);
          rec_f ~reg ~exp ~labels:(labels "flat") ?tol
            "per_host_state_bytes"
            (float_of_int (flat_total o) /. float_of_int o.n);
          rec_f ~reg ~exp ~labels:(labels "hier") ?tol
            "per_host_state_bytes"
            (float_of_int (hier_total o) /. float_of_int o.n);
          rec_f ~reg ~exp ~labels:(labels "flat") ~tol:Obs.Metric.Info
            "populate_words_per_host" o.flat_words;
          rec_f ~reg ~exp ~labels:(labels "hier") ~tol:Obs.Metric.Info
            "populate_words_per_host" o.hier_words;
          rec_f ~reg ~exp ~labels:(labels "flat") ~tol:Obs.Metric.Info
            "populate_ms" (o.flat_s *. 1000.0);
          rec_f ~reg ~exp ~labels:(labels "hier") ~tol:Obs.Metric.Info
            "populate_ms" (o.hier_s *. 1000.0);
          o)
  in
  List.iter
    (fun o ->
       let tol = if o.gated then None else Some Obs.Metric.Info in
       let labels = [("n", string_of_int o.n)] in
       rec_i ~exp ~labels ?tol "hier_external_bytes_lower"
         (if hier_total o < flat_total o then 1 else 0);
       rec_i ~exp ~labels ?tol "route_aggregation_cut_ge_10x"
         (if o.route_flat_b >= 10 * o.route_hier_b then 1 else 0))
    outcomes;
  table
    ~columns:
      [ "hosts"; "HA B/host"; "cache B/host"; "route B/host (flat)";
        "route B/host (hier)"; "external flat"; "external hier";
        "in-region B/host"; "pop ms (flat)" ]
    (List.map
       (fun o ->
          let per b = f2 (float_of_int b /. float_of_int o.n) in
          [ i o.n; per o.ha_b; per o.cache_b; per o.route_flat_b;
            per o.route_hier_b; per (flat_total o); per (hier_total o);
            per o.regional_b; Printf.sprintf "%.0f" (o.flat_s *. 1000.0) ])
       outcomes);
  let last = List.nth outcomes (List.length outcomes - 1) in
  note
    "at %d hosts the internetwork outside a region holds %.1f B/host \
     flat vs %.1f B/host hierarchical — the border route table \
     aggregates %dx (one /24 per %d-host region instead of a /32 each) \
     for %.1f B/host of binding state kept inside the region%s"
    last.n
    (float_of_int (flat_total last) /. float_of_int last.n)
    (float_of_int (hier_total last) /. float_of_int last.n)
    (last.route_flat_b / max 1 last.route_hier_b)
    hosts_per_region
    (float_of_int last.regional_b /. float_of_int last.n)
    (if full then "" else "  [set E19_FULL=1 for the 10^6 point]")

let run () =
  heading "E19"
    "million-host scale: compact location state + hierarchical \
     registration";
  part_proto ();
  part_scale ()

let experiment =
  Experiment.make ~id:"E19"
    ~title:"million-host scale: compact state and hierarchical \
            registration sweep"
    run
