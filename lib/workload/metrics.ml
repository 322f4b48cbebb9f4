module Packet = Ipv4.Packet

type key = Ipv4.Addr.t * int

type record = {
  key : key;
  sent_at : Netsim.Time.t;
  sent_bytes : int;
  mutable hops : int;
  mutable max_bytes : int;
  mutable delivered_at : Netsim.Time.t option;
  mutable dropped : string option;
}

type t = {
  engine : Netsim.Engine.t;
  tbl : (key, record) Hashtbl.t;
  mutable order : record list;  (* newest first *)
}

(* The key ties a tunneled packet back to the application packet: the IP
   id is preserved by every encapsulation here, but the source address is
   rewritten, so we key on id plus the *original* source, recoverable from
   whichever encapsulation header is present (MHRP's previous-source list,
   or the inner packet of IPIP/IPTP, or the VIP source). *)
let keys_of (pkt : Packet.t) =
  let id = pkt.Packet.id in
  let base = [(pkt.Packet.src, id)] in
  let proto = pkt.Packet.proto in
  if proto = Ipv4.Proto.mhrp then
    match Mhrp.Mhrp_header.decode_prefix pkt.Packet.payload with
    | Some (h, _) ->
      (match Mhrp.Mhrp_header.original_sender h with
       | Some s -> (s, id) :: base
       | None -> base)
    | None -> base
  else if proto = Ipv4.Proto.ipip then
    match Baselines.Ipip.decap pkt with
    | Some inner -> (inner.Packet.src, inner.Packet.id) :: base
    | None -> base
  else if proto = Ipv4.Proto.iptp then
    match Baselines.Iptp.decap pkt with
    | Some inner -> (inner.Packet.src, inner.Packet.id) :: base
    | None -> base
  else if proto = Ipv4.Proto.vip then
    match Baselines.Viph.peek pkt with
    | Some h -> (h.Baselines.Viph.vip_src, id) :: base
    | None -> base
  else base

let find_record t pkt =
  List.find_map (fun k -> Hashtbl.find_opt t.tbl k) (keys_of pkt)

let on_forward t _node pkt =
  match find_record t pkt with
  | None -> ()
  | Some r ->
    r.hops <- r.hops + 1;
    let b = Packet.total_length pkt in
    if b > r.max_bytes then r.max_bytes <- b

let on_drop t _node reason pkt =
  match find_record t pkt with
  | None -> ()
  | Some r -> if r.delivered_at = None then r.dropped <- Some reason

let create topo =
  let t =
    { engine = Net.Topology.engine topo; tbl = Hashtbl.create 256;
      order = [] }
  in
  let watch node =
    Net.Node.on_transmit node (fun n pkt -> on_forward t n pkt);
    Net.Node.on_drop node (fun n reason pkt -> on_drop t n reason pkt)
  in
  List.iter watch (Net.Topology.nodes topo);
  (* nodes created after the metrics (extra cells, late hosts) are
     covered too *)
  Net.Topology.on_node_added topo watch;
  t

let note_sent t ~src ~id ~bytes =
  let key = (src, id) in
  let r =
    { key;
      sent_at = Netsim.Engine.now t.engine;
      sent_bytes = bytes;
      hops = 0;
      max_bytes = bytes;
      delivered_at = None;
      dropped = None }
  in
  Hashtbl.replace t.tbl key r;
  t.order <- r :: t.order

let note_send t (pkt : Packet.t) =
  note_sent t ~src:pkt.Packet.src ~id:pkt.Packet.id
    ~bytes:(Packet.total_length pkt)

let note_delivery t (pkt : Packet.t) =
  match find_record t pkt with
  | None -> ()
  | Some r ->
    if r.delivered_at = None then begin
      r.delivered_at <- Some (Netsim.Engine.now t.engine);
      r.dropped <- None
    end

let watch_receiver t agent =
  Mhrp.Agent.on_app_receive agent (fun pkt -> note_delivery t pkt)

let records t = List.rev t.order
let delivered t = List.filter (fun r -> r.delivered_at <> None) (records t)
let dropped t = List.filter (fun r -> r.dropped <> None) (records t)

let delivery_ratio t =
  let all = records t in
  if all = [] then 0.0
  else
    float_of_int (List.length (delivered t))
    /. float_of_int (List.length all)

let mean_over f t =
  let ds = delivered t in
  if ds = [] then 0.0
  else
    List.fold_left (fun acc r -> acc +. f r) 0.0 ds
    /. float_of_int (List.length ds)

let mean_hops t = mean_over (fun r -> float_of_int r.hops) t

let mean_latency_us t =
  mean_over
    (fun r ->
       match r.delivered_at with
       | Some at -> float_of_int (Netsim.Time.to_us at - Netsim.Time.to_us r.sent_at)
       | None -> 0.0)
    t

let mean_overhead_bytes t =
  mean_over (fun r -> float_of_int (r.max_bytes - r.sent_bytes)) t

let record_obs t registry ~exp ?(labels = []) () =
  let counter = Obs.Registry.counter registry ~exp ~labels in
  let gauge = Obs.Registry.gauge registry ~exp ~labels in
  counter "packets" (List.length (records t));
  counter "delivered" (List.length (delivered t));
  gauge "delivery_ratio" (delivery_ratio t);
  gauge "mean_hops" (mean_hops t);
  gauge ~tol:(Obs.Metric.Pct 20.0) "mean_latency_us" (mean_latency_us t);
  gauge "mean_overhead_bytes" (mean_overhead_bytes t);
  (* the latency distribution rides along as a histogram, via the shared
     Stats reservoir *)
  let samples = Netsim.Stats.Samples.create () in
  List.iter
    (fun r ->
       match r.delivered_at with
       | Some at ->
         Netsim.Stats.Samples.add samples
           (float_of_int (Netsim.Time.to_us at - Netsim.Time.to_us r.sent_at))
       | None -> ())
    (records t);
  Obs.Registry.set registry ~exp ~labels "latency_us"
    (Netsim.Stats.Samples.to_metric ~tol:(Obs.Metric.Pct 20.0) samples)

let pp_summary ppf t =
  Format.fprintf ppf
    "packets=%d delivered=%.1f%% hops=%.2f latency=%.0fus overhead=%.1fB"
    (List.length (records t))
    (100.0 *. delivery_ratio t)
    (mean_hops t) (mean_latency_us t) (mean_overhead_bytes t)
