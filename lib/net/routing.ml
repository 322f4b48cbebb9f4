(* One BFS per node over the node-LAN incidence graph (every LAN
   traversal costs one hop), expanding only through routers, which
   matches IP: hosts do not forward.  The first node to expand an up LAN
   discovers all its members, so each LAN is expanded at most once per
   source: a LAN of k routers costs k per search, not the k*(k-1)
   entries of its adjacency clique.

   Discovery order fixes every first hop, so the tables depend on it:
   an expansion queues the nodes it discovers in ascending node index
   (each LAN's members are ascending, and a node's LAN runs are merged),
   each reached over its smallest-named connecting LAN (a node's LANs
   are expanded in name order, and the first to reach a member wins; of
   two equal names, the LAN later in the list ranks first).  That is the
   order of a BFS over adjacency lists sorted by (node index, LAN name),
   which test_net's clique reference checks table for table.

   Every node's table lists its prefixes in one order: descending
   length, then the LAN's last position in the list, a later LAN with
   the same prefix replacing an earlier one when it has a route (the
   order [Route.bulk] gives).  That order is computed once per graph,
   and each node's entries are written in it from a per-LAN scratch
   array, with one [Route.Via] per next-hop router shared by the
   entries through it. *)

type graph = {
  nodes : Node.t array;  (* sorted by name *)
  index : (string, int) Hashtbl.t;
  router : bool array;
  lans : Lan.t array;
  (* the up LANs, deduplicated by identity, sorted by name (a LAN's
     index is its name rank) *)
  members : int array array;  (* per LAN: attached node indices, ascending *)
  node_lans : int array array;  (* per node: its LANs, ascending *)
  attach : (int * int * Ipv4.Addr.t option) array array;
  (* per node: (LAN, interface, address), in interface order *)
  order : int array;  (* the LANs in table order *)
  shadowed_by : int list array;
  (* per LAN: the LANs with its prefix later in the list, whose route
     replaces its own *)
  (* BFS scratch, reset by [bfs] *)
  dist : int array;
  hop : int array;  (* first hop from the source *)
  via : int array;  (* the LAN a node was discovered over *)
  lan_from : int array;  (* per LAN: the node that expanded it, or -1 *)
  queue : int array;
  run : int array;  (* one LAN's discoveries, before the merge *)
}

let build ~nodes ~lans =
  let nodes =
    List.sort (fun a b -> String.compare (Node.name a) (Node.name b)) nodes
    |> Array.of_list
  in
  let n = Array.length nodes in
  let index = Hashtbl.create (max 32 n) in
  Array.iteri (fun i node -> Hashtbl.replace index (Node.name node) i) nodes;
  (* The up LANs by identity, each with its first position in the list
     (the name tie-break) and its last (where its table entry goes: a
     repeat replaces the entry of the same prefix, as in [Route.bulk]). *)
  let seen : (int, Lan.t * int * int ref) Hashtbl.t = Hashtbl.create 64 in
  let uniq_rev = ref [] in
  List.iteri
    (fun pos lan ->
       if Lan.is_up lan then
         match Hashtbl.find_opt seen (Lan.id lan) with
         | Some (_, _, last) -> last := pos
         | None ->
           let e = (lan, pos, ref pos) in
           Hashtbl.replace seen (Lan.id lan) e;
           uniq_rev := e :: !uniq_rev)
    lans;
  let uniq =
    List.sort
      (fun (a, fa, _) (b, fb, _) ->
         match String.compare (Lan.name a) (Lan.name b) with
         | 0 -> Int.compare fb fa
         | c -> c)
      !uniq_rev
    |> Array.of_list
  in
  let lan_arr = Array.map (fun (lan, _, _) -> lan) uniq in
  let nl = Array.length lan_arr in
  let lan_index = Hashtbl.create (max 16 nl) in
  Array.iteri (fun l lan -> Hashtbl.replace lan_index (Lan.id lan) l) lan_arr;
  (* Incidence from one pass over the interfaces, nodes in index order:
     a node is a member of a LAN once, however many interfaces it has
     there. *)
  let members_rev = Array.make nl [] in
  let attach = Array.make n [||] in
  for i = 0 to n - 1 do
    attach.(i) <-
      Array.of_list
        (List.filter_map
           (fun (iface, lan, addr) ->
              Option.map (fun l -> (l, iface, addr))
                (Hashtbl.find_opt lan_index (Lan.id lan)))
           (Node.ifaces nodes.(i)));
    Array.iter
      (fun (l, _, _) ->
         match members_rev.(l) with
         | j :: _ when j = i -> ()
         | ms -> members_rev.(l) <- i :: ms)
      attach.(i)
  done;
  let members = Array.map (fun ms -> Array.of_list (List.rev ms)) members_rev in
  let router = Array.map Node.is_router nodes in
  let node_lans =
    Array.map
      (fun a ->
         Array.to_list a
         |> List.map (fun (l, _, _) -> l)
         |> List.sort_uniq Int.compare |> Array.of_list)
      attach
  in
  let last l = let _, _, last = uniq.(l) in !last in
  let len l = (Lan.prefix lan_arr.(l)).Ipv4.Addr.Prefix.len in
  let order = Array.init nl Fun.id in
  Array.sort
    (fun a b ->
       match Int.compare (len b) (len a) with
       | 0 -> Int.compare (last a) (last b)
       | c -> c)
    order;
  let by_prefix = Hashtbl.create (max 16 nl) in
  Array.iteri (fun l lan -> Hashtbl.add by_prefix (Lan.prefix lan) l) lan_arr;
  let shadowed_by =
    Array.init nl (fun l ->
        List.filter
          (fun m -> last m > last l)
          (Hashtbl.find_all by_prefix (Lan.prefix lan_arr.(l))))
  in
  { nodes; index; router; lans = lan_arr; members;
    node_lans; attach; order; shadowed_by;
    dist = Array.make n max_int;
    hop = Array.make n (-1);
    via = Array.make n (-1);
    lan_from = Array.make nl (-1);
    queue = Array.make n 0;
    run = Array.make n 0 }

(* Merge the ascending [run.(0 .. b-1)] into the ascending
   [q.(start .. tail-1)], filling [q.(start .. tail+b-1)] from the top. *)
let merge q start tail run b =
  let i = ref (tail - 1) and k = ref (tail + b - 1) in
  for j = b - 1 downto 0 do
    let v = run.(j) in
    while !i >= start && q.(!i) > v do
      q.(!k) <- q.(!i);
      decr i;
      decr k
    done;
    q.(!k) <- v;
    decr k
  done

(* BFS from [s]; only routers (and [s] itself) are expanded.  Results
   live in the graph's scratch arrays until the next [bfs] call. *)
let bfs g s =
  let dist = g.dist and q = g.queue and run = g.run in
  Array.fill dist 0 (Array.length dist) max_int;
  Array.fill g.lan_from 0 (Array.length g.lan_from) (-1);
  dist.(s) <- 0;
  q.(0) <- s;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = q.(!head) in
    incr head;
    if u = s || g.router.(u) then begin
      let start = !tail and d = dist.(u) + 1 in
      let lans = g.node_lans.(u) in
      for k = 0 to Array.length lans - 1 do
        let l = lans.(k) in
        if g.lan_from.(l) < 0 then begin
          g.lan_from.(l) <- u;
          let ms = g.members.(l) and b = ref 0 in
          for m = 0 to Array.length ms - 1 do
            let v = ms.(m) in
            if dist.(v) = max_int then begin
              dist.(v) <- d;
              g.hop.(v) <- (if u = s then v else g.hop.(u));
              g.via.(v) <- l;
              run.(!b) <- v;
              incr b
            end
          done;
          merge q start !tail run !b;
          tail := !tail + !b
        end
      done
    end
  done

(* The first interface of [a] (a node's [attach]) on LAN [l]. *)
let rec first_iface a l k =
  let l', iface, _ = a.(k) in
  if l' = l then iface else first_iface a l (k + 1)

(* The first address of [a] on LAN [l], if any. *)
let rec addr_on a l k =
  if k = Array.length a then None
  else
    match a.(k) with
    | l', _, (Some _ as addr) when l' = l -> addr
    | _ -> addr_on a l (k + 1)

(* The first router of [ms] (a LAN's [members]) at distance [d]. *)
let rec router_at g d ms k =
  let v = ms.(k) in
  if g.router.(v) && g.dist.(v) = d then v else router_at g d ms (k + 1)

(* Full-table sweeps performed process-wide.  Atomic because parallel
   sweep trials build topologies from worker domains; the total after a
   sweep has joined its workers is deterministic (a sum of per-trial
   increments), even though interleavings are not. *)
let recomputes = Atomic.make 0

let recompute_count () = Atomic.get recomputes

(* Marks a LAN without a route in the scratch array; compared with
   [==], so no target a table holds is ever it. *)
let unreachable = Route.Direct (-1)

let rec has_route target = function
  | [] -> false
  | l :: rest -> target.(l) != unreachable || has_route target rest

let compute_graph g =
  Atomic.incr recomputes;
  let n = Array.length g.nodes and nl = Array.length g.lans in
  let target = Array.make nl unreachable in
  (* the source's [Via] through each next-hop router, made once *)
  let gateway = Array.make n unreachable and gateway_of = Array.make n (-1) in
  for s = 0 to n - 1 do
    bfs g s;
    for l = 0 to nl - 1 do
      let e = g.lan_from.(l) in
      target.(l) <-
        (if e < 0 then unreachable  (* no router on [l] is reachable *)
         else if e = s then Route.Direct (first_iface g.attach.(s) l 0)
         else begin
           (* [e], a router, expanded [l] first, so no router on [l] is
              nearer; ties go to the lowest index. *)
           let hop = g.hop.(router_at g g.dist.(e) g.members.(l) 0) in
           if gateway_of.(hop) <> s then begin
             gateway_of.(hop) <- s;
             gateway.(hop) <-
               (match addr_on g.attach.(hop) g.via.(hop) 0 with
                | Some gw -> Route.Via gw
                | None -> unreachable (* no address on the shared LAN *))
           end;
           gateway.(hop)
         end)
    done;
    let entries = ref [] in
    for k = nl - 1 downto 0 do
      let l = g.order.(k) in
      if target.(l) != unreachable && not (has_route target g.shadowed_by.(l))
      then
        entries :=
          { Route.prefix = Lan.prefix g.lans.(l); target = target.(l) }
          :: !entries
    done;
    Node.set_routes g.nodes.(s) (Route.of_entries !entries)
  done

let compute ~nodes ~lans = compute_graph (build ~nodes ~lans)

let path_length_graph g ~src ~dst_lan =
  match Hashtbl.find_opt g.index (Node.name src) with
  | None -> None
  | Some s ->
    if List.exists (fun (_, l, _) -> l == dst_lan) (Node.ifaces src) then
      Some 1
    else begin
      bfs g s;
      let dist = g.dist in
      let best = ref None in
      Array.iteri
        (fun i node ->
           if Node.is_router node && dist.(i) < max_int
              && List.exists (fun (_, l, _) -> l == dst_lan)
                   (Node.ifaces node)
           then
             match !best with
             | None -> best := Some dist.(i)
             | Some b -> if dist.(i) < b then best := Some dist.(i))
        g.nodes;
      Option.map (fun d -> d + 1) !best
    end

let graph_of_nodes nodes =
  let lans =
    (* collect every LAN any node is attached to *)
    List.concat_map (fun n -> List.map (fun (_, l, _) -> l) (Node.ifaces n))
      nodes
  in
  build ~nodes ~lans

let path_length ~nodes ~src ~dst_lan =
  path_length_graph (graph_of_nodes nodes) ~src ~dst_lan
