module Addr = Ipv4.Addr
module Node = Net.Node
module Lan = Net.Lan
module Route = Net.Route
module Topology = Net.Topology
module Routing = Net.Routing

type t = {
  topo : Topology.t;
  routers : Router.t list;  (* in node order *)
}

let routers t = t.routers

let router t name =
  match
    List.find_opt (fun r -> Node.name (Router.node r) = name) t.routers
  with
  | Some r -> r
  | None -> raise Not_found

let create ?(config = Config.default) topo =
  let nodes = List.filter Node.is_router (Topology.nodes topo) in
  let hello_us = max 1 (config.Config.hello_interval : Netsim.Time.t) in
  let routers =
    List.mapi
      (fun i node ->
         (* A distinct phase per router within one hello interval: 997 is
            prime, so offsets cycle through the interval without clumping
            however many routers share it. *)
         let stagger = Netsim.Time.of_us (i * 997 mod hello_us) in
         Node.set_routes node Route.empty;
         Router.create ~config ~stagger node)
      nodes
  in
  { topo; routers }

let start t = List.iter Router.start t.routers

let totals t =
  let acc = Counters.create () in
  List.iter (fun r -> Counters.add acc (Router.counters r)) t.routers;
  acc

let control_bytes t =
  List.fold_left
    (fun acc r -> acc + (Router.counters r).Counters.bytes_sent)
    0 t.routers

let db_signature r =
  Router.lsdb_fold r (fun o seq acc -> (Addr.to_int o, seq) :: acc) []
  |> List.sort compare

let synchronized t =
  let up = List.filter (fun r -> Node.is_up (Router.node r)) t.routers in
  match up with
  | [] -> true
  | first :: rest ->
    List.for_all Router.settled up
    &&
    let sig0 = db_signature first in
    List.for_all (fun r -> db_signature r = sig0) rest

(* {2 Oracle equivalence} *)

(* Follow installed tables from [start] toward an address in [p], counting
   LAN traversals (the final delivery LAN included, matching
   [Routing.path_length_graph]'s convention of [Some 1] for an attached
   source).  [Ok None] is a black hole — comparable against an oracle
   verdict of unreachable. *)
let walk addr_map start p probe =
  let rec go node hops visited =
    if List.memq node visited then
      Error
        (Printf.sprintf "forwarding loop at %s" (Node.name node))
    else
      match Route.lookup (Node.routes node) probe with
      | None -> Ok None
      | Some (Route.Direct i) ->
        if Addr.Prefix.equal (Lan.prefix (Node.iface_lan node i)) p then
          Ok (Some (hops + 1))
        else
          Error
            (Printf.sprintf "%s delivers %s onto LAN %s" (Node.name node)
               (Addr.Prefix.to_string p)
               (Lan.name (Node.iface_lan node i)))
      | Some (Route.Via gw) ->
        (match Hashtbl.find_opt addr_map (Addr.to_int gw) with
         | None ->
           Error
             (Printf.sprintf "%s routes %s via unknown gateway %s"
                (Node.name node)
                (Addr.Prefix.to_string p)
                (Addr.to_string gw))
         | Some next -> go next (hops + 1) (node :: visited))
  in
  go start 0 []

let check_equivalence t =
  let all_nodes = Topology.nodes t.topo in
  let graph = Routing.graph_of_nodes all_nodes in
  let addr_map = Hashtbl.create 256 in
  List.iter
    (fun n ->
       List.iter
         (fun a -> Hashtbl.replace addr_map (Addr.to_int a) n)
         (Node.addresses n))
    all_nodes;
  let lans = List.filter Lan.is_up (Topology.lans t.topo) in
  let check_pair node lan =
    let p = Lan.prefix lan in
    let probe = Addr.Prefix.host p 1 in
    let expected = Routing.path_length_graph graph ~src:node ~dst_lan:lan in
    match walk addr_map node p probe with
    | Error e ->
      Some (Printf.sprintf "%s -> %s: %s" (Node.name node) (Lan.name lan) e)
    | Ok actual ->
      if actual = expected then None
      else
        let show = function
          | None -> "unreachable"
          | Some h -> Printf.sprintf "%d hops" h
        in
        Some
          (Printf.sprintf "%s -> %s: walked %s, oracle says %s"
             (Node.name node) (Lan.name lan) (show actual) (show expected))
  in
  let rec first_error = function
    | [] -> Ok ()
    | r :: rest ->
      let node = Router.node r in
      if not (Node.is_up node) then first_error rest
      else (
        match List.find_map (check_pair node) lans with
        | Some e -> Error e
        | None -> first_error rest)
  in
  first_error t.routers

let equivalent t =
  match check_equivalence t with Ok () -> true | Error _ -> false
