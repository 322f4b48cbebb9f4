(* E5 — loop contraction and dissolution (Section 5.3).

   A ring of cache agents is poisoned so each points to the next as the
   mobile host's foreign agent ("some incorrect implementation could
   accidentally create a loop").  The mobile host is real and at home
   behind the first router, so packets that escape the ring toward the
   home network complete the dissolution protocol.  We inject tunneled
   packets (one per simulated second, as a sender would keep transmitting)
   and measure how quickly the ring is detected or broken apart, sweeping
   the loop size L and the maximum previous-source list length K.

   The paper's claim: detection within one cycle when L <= K; when L > K
   the truncation fan-out redirects ring members so the loop contracts
   "by a factor of the maximum list size" per cycle — and either way no
   reliance on the IP TTL, and every poisoned cache ends up corrected. *)

open Exp_util
module TGm = Workload.Topo_gen
module Time = Netsim.Time

let run_loop ~loop_size ~max_list =
  let config =
    Mhrp.Config.make ~max_prev_sources:max_list
      ~on_loop:Mhrp.Config.Tunnel_home ()
  in
  (* router 0 is the home agent, outside the ring; the ring is routers
     1..L *)
  let ch = TGm.chain ~config ~n:(loop_size + 1) () in
  let topo = ch.TGm.ch_topo in
  let routers = ch.TGm.ch_routers in
  (* the mobile host lives (at home) on the first stub; C0 is its home
     agent *)
  let mn = Topology.add_host topo "Mh" ch.TGm.ch_stubs.(0) 99 in
  Topology.compute_routes topo;
  let m = Agent.create ~config mn in
  Agent.make_mobile m ~home_agent:(Agent.address routers.(0));
  Agent.enable_home_agent routers.(0);
  Agent.add_mobile routers.(0) (Agent.address m);
  let mobile = Agent.address m in
  let delivered = ref 0 in
  Agent.on_app_receive m (fun _ -> incr delivered);
  (* poison the ring: routers 1..L point at each other cyclically *)
  let ring = Array.sub routers 1 loop_size in
  Array.iteri
    (fun k r ->
       Mhrp.Location_cache.insert (Agent.cache r) ~mobile
         ~foreign_agent:(Agent.address ring.((k + 1) mod loop_size)))
    ring;
  let sum f =
    Array.fold_left (fun acc r -> acc + f (Agent.counters r)) 0 ring
  in
  let correct_fa () =
    match Agent.home_agent routers.(0) with
    | Some ha ->
      (match Mhrp.Home_agent.location ha mobile with
       | Some fa -> fa
       | None -> Ipv4.Addr.zero)
    | None -> Ipv4.Addr.zero
  in
  let stale_left () =
    Array.fold_left
      (fun acc r ->
         acc
         + (match Mhrp.Location_cache.peek (Agent.cache r) mobile with
            | Some fa when not (Ipv4.Addr.equal fa (correct_fa ())) -> 1
            | _ -> 0))
      0 ring
  in
  (* inject a tunneled packet per second at router 0 until the ring is
     gone (Section 5.3: a TTL-expired packet's contraction survives it and
     "the next packet will continue") *)
  let sender = Addr.host 200 1 in
  let packets = ref 0 in
  let engine = Topology.engine topo in
  let rec inject k =
    if k < 30 && stale_left () > 0 then begin
      incr packets;
      let pkt = sample_packet ~id:(k + 1) ~src:sender ~dst:mobile () in
      Node.inject_local (Agent.node ring.(0))
        (Mhrp.Encap.tunnel_by_sender ~foreign_agent:(Agent.address ring.(0))
           pkt);
      ignore
        (Netsim.Engine.schedule_after engine ~delay:(Time.of_sec 1.0)
           (fun () -> inject (k + 1)))
    end
  in
  inject 0;
  Topology.run ~until:(Time.of_sec 40.0) topo;
  ( !packets,
    sum (fun c -> c.Mhrp.Counters.retunnels),
    sum (fun c -> c.Mhrp.Counters.loops_detected),
    sum (fun c -> c.Mhrp.Counters.list_truncations),
    stale_left (), !delivered )

let run () =
  heading "E5" "cache-loop detection and dissolution (Section 5.3)";
  let rows =
    List.concat_map
      (fun loop_size ->
         List.filter_map
           (fun max_list ->
              if max_list > loop_size + 2 then None
              else begin
                let packets, retunnels, detected, truncations, stale,
                    delivered =
                  run_loop ~loop_size ~max_list
                in
                let labels =
                  [("L", string_of_int loop_size);
                   ("K", string_of_int max_list)]
                in
                rec_i ~exp:"E5" ~labels "packets" packets;
                rec_i ~exp:"E5" ~labels "retunnels" retunnels;
                rec_i ~exp:"E5" ~labels "truncations" truncations;
                rec_i ~exp:"E5" ~labels "loops_detected" detected;
                rec_flag ~exp:"E5" ~labels "ring_dissolved" (stale = 0);
                rec_i ~exp:"E5" ~labels "delivered" delivered;
                Some
                  [ i loop_size; i max_list; i packets; i retunnels;
                    i truncations; i detected;
                    (if stale = 0 then "yes" else "NO"); i delivered ]
              end)
           [2; 4; 8])
      [2; 3; 4; 6; 8]
  in
  table
    ~columns:["loop size L"; "max list K"; "packets"; "re-tunnels";
              "truncations"; "loops detected"; "ring dissolved";
              "delivered to M"]
    rows;
  note
    "L <= K: one packet detects the loop within a cycle and the \
     dissolution updates purge every member.  L > K: each truncation's \
     update fan-out re-points ring members, contracting the loop by up to \
     a factor of K per cycle until it is detected or collapses; a few \
     packets suffice, and the escaping packets still reach the mobile \
     host through its home agent.";
  note
    "contrast (Section 7): protocols relying on the IP time-to-live leave \
     the loop standing, and every new packet circulates until its TTL \
     expires — sustained congestion instead of repair."

let experiment =
  Experiment.make ~id:"E5"
    ~title:"cache-loop detection and dissolution (Section 5.3)" run
