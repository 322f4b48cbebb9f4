(* Snapshots of every deterministic counter a world keeps, summed over
   its nodes, LANs, agents and transport stacks.  The difference of two
   snapshots is what the horizon did; the final snapshot feeds the
   outputs digest. *)

type t = (string * int) list

let take (w : World.t) : t =
  let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l in
  let nodes = Net.Topology.nodes w.World.topo in
  let agents = Array.to_list w.World.agents in
  let stacks = Array.to_list w.World.stacks in
  let mhrp f = sum (fun a -> f (Mhrp.Agent.counters a)) agents in
  let cache f = sum (fun a -> f (Mhrp.Agent.cache a)) agents in
  let tcp f = sum (fun s -> f (Transport.Stack.counters s)) stacks in
  let open Mhrp.Counters in
  let open Transport.Counters in
  [ ("node.forwarded", sum Net.Node.packets_forwarded nodes);
    ("node.fast_forwarded", sum Net.Node.packets_fast_forwarded nodes);
    ("node.delivered", sum Net.Node.packets_delivered nodes);
    ("node.originated", sum Net.Node.packets_originated nodes);
    ("node.dropped", sum Net.Node.packets_dropped nodes);
    ("lan.frames", Net.Topology.total_frames w.World.topo);
    ("lan.bytes", Net.Topology.total_bytes w.World.topo);
    ("mhrp.control", mhrp (fun c -> c.control_messages));
    ("mhrp.tunnels", mhrp (fun c -> c.tunnels_built));
    ("mhrp.retunnels", mhrp (fun c -> c.retunnels));
    ("mhrp.detunnels", mhrp (fun c -> c.detunnels));
    ("mhrp.updates_sent", mhrp (fun c -> c.updates_sent));
    ("mhrp.registrations", mhrp (fun c -> c.registrations));
    ("mhrp.cache_hits", cache Mhrp.Location_cache.hits);
    ("mhrp.cache_misses", cache Mhrp.Location_cache.misses);
    ("mhrp.cache_evictions", cache Mhrp.Location_cache.evictions);
    ( "mhrp.moves",
      sum
        (fun a ->
           match Mhrp.Agent.mobile a with
           | Some mh -> mh.Mhrp.Mobile_host.moves
           | None -> 0)
        agents );
    ("tcp.segs_sent", tcp (fun c -> c.segs_sent));
    ("tcp.segs_received", tcp (fun c -> c.segs_received));
    ("tcp.retransmissions", tcp (fun c -> c.retransmissions));
    ("tcp.duplicates", tcp (fun c -> c.duplicates));
    ("tcp.out_of_order", tcp (fun c -> c.out_of_order)) ]

let diff (later : t) (earlier : t) : t =
  List.map2 (fun (k, b) (_, a) -> (k, b - a)) later earlier

let get (t : t) k = List.assoc k t
