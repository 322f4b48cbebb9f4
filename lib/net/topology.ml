type t = {
  engine : Netsim.Engine.t;
  tr : Netsim.Trace.t;
  mac_alloc : Mac.Alloc.t;
  rng : Netsim.Rng.t;
  icmp_quote : Node.icmp_quote;
  (* Registration keeps a name-indexed hashtable (O(1) duplicate check and
     lookup) plus a newest-first list per kind; the creation-order views
     the accessors return are rebuilt lazily, so N registrations cost O(N)
     total instead of the O(N^2) of list appends with linear scans. *)
  lan_index : (string, Lan.t) Hashtbl.t;
  node_index : (string, Node.t) Hashtbl.t;
  mutable lans_rev : Lan.t list;
  mutable nodes_rev : Node.t list;
  mutable lan_list : Lan.t list option;  (* in creation order *)
  mutable node_list : Node.t list option;
  mutable node_added_hooks : (Node.t -> unit) list;
  mutable reg_ops : int;
}

let create ?(seed = 42) ?(icmp_quote = Node.Quote_full) () =
  let engine = Netsim.Engine.create ~seed () in
  { engine;
    tr = Netsim.Trace.create ();
    mac_alloc = Mac.Alloc.create ();
    rng = Netsim.Rng.split (Netsim.Engine.rng engine);
    icmp_quote;
    lan_index = Hashtbl.create 64;
    node_index = Hashtbl.create 64;
    lans_rev = [];
    nodes_rev = [];
    lan_list = None;
    node_list = None;
    node_added_hooks = [];
    reg_ops = 0 }

let engine t = t.engine
let trace t = t.tr
let rng t = t.rng

let registration_ops t = t.reg_ops

let add_lan t ?latency ?bandwidth_bps ?mtu ?(prefix_len = 24) ~net name =
  t.reg_ops <- t.reg_ops + 1;
  if Hashtbl.mem t.lan_index name then
    invalid_arg ("Topology.add_lan: duplicate name " ^ name);
  (* Each LAN advances [t.rng] by one split whose stream nothing uses:
     every later draw from [t.rng], and so every seed's results, depend
     on it. *)
  ignore (Netsim.Rng.split t.rng);
  let lan =
    Lan.create ~engine:t.engine ~name ?latency ?bandwidth_bps ?mtu
      (Ipv4.Addr.net_len net prefix_len)
  in
  Hashtbl.replace t.lan_index name lan;
  t.lans_rev <- lan :: t.lans_rev;
  t.lan_list <- None;
  lan

let add_node t ~router name =
  t.reg_ops <- t.reg_ops + 1;
  if Hashtbl.mem t.node_index name then
    invalid_arg ("Topology: duplicate node name " ^ name);
  let node =
    Node.create ~engine:t.engine ~mac_alloc:t.mac_alloc ~trace:t.tr ~router
      ~icmp_quote:t.icmp_quote name
  in
  Hashtbl.replace t.node_index name node;
  t.nodes_rev <- node :: t.nodes_rev;
  t.node_list <- None;
  List.iter (fun f -> f node) t.node_added_hooks;
  node

let add_router t name attachments =
  let node = add_node t ~router:true name in
  List.iter
    (fun (lan, host_id) ->
       let addr = Ipv4.Addr.Prefix.host (Lan.prefix lan) host_id in
       ignore (Node.attach node ~addr lan))
    attachments;
  node

let add_host t ?(router = false) name lan host_id =
  let node = add_node t ~router name in
  let addr = Ipv4.Addr.Prefix.host (Lan.prefix lan) host_id in
  ignore (Node.attach node ~addr lan);
  node

let node t name =
  match Hashtbl.find_opt t.node_index name with
  | Some n -> n
  | None -> raise Not_found

let on_node_added t f = t.node_added_hooks <- f :: t.node_added_hooks

let lan t name =
  match Hashtbl.find_opt t.lan_index name with
  | Some l -> l
  | None -> raise Not_found

let nodes t =
  match t.node_list with
  | Some ns -> ns
  | None ->
    let ns = List.rev t.nodes_rev in
    t.node_list <- Some ns;
    ns

let lans t =
  match t.lan_list with
  | Some ls -> ls
  | None ->
    let ls = List.rev t.lans_rev in
    t.lan_list <- Some ls;
    ls

let compute_routes t = Routing.compute ~nodes:(nodes t) ~lans:(lans t)

let rec detach_all node = function
  | [] -> ()
  | (i, _, _) :: rest ->
    Node.detach node i;
    detach_all node rest

let move_host t node new_lan =
  ignore t;
  let home = Node.primary_addr node in
  detach_all node (Node.ifaces node);
  let addr =
    if Ipv4.Addr.Prefix.mem home (Lan.prefix new_lan) then Some home
    else None
  in
  ignore (Node.attach node ?addr new_lan)

let run ?until t = Netsim.Engine.run ?until t.engine
let now t = Netsim.Engine.now t.engine

let total_frames t =
  List.fold_left (fun acc l -> acc + Lan.frames_sent l) 0 (lans t)

let total_bytes t =
  List.fold_left (fun acc l -> acc + Lan.bytes_sent l) 0 (lans t)
