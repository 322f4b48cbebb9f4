module Addr = Ipv4.Addr
module Node = Net.Node
module Lan = Net.Lan
module Route = Net.Route
module Engine = Netsim.Engine

type db_entry = {
  seq : int;
  links : Packet.link list;
}

type neighbor = {
  mutable last_heard : Netsim.Time.t;
}

type t = {
  node : Node.t;
  cfg : Config.t;
  id : Addr.t;
  stagger : Netsim.Time.t;
  counters : Counters.t;
  (* Volatile protocol state, cleared by reboot. *)
  neighbors : (int * int, neighbor) Hashtbl.t;  (* (iface, origin) *)
  lsdb : (int, db_entry) Hashtbl.t;  (* origin *)
  mutable pending_sync : (int * int) list;
  (* (iface, newly-heard origin) pairs owed a database broadcast *)
  mutable last_links : Packet.link list option;  (* as last originated *)
  mutable last_origination : Netsim.Time.t;
  mutable force_originate : bool;
  mutable spf_pending : bool;
  (* NVRAM: survives reboot so the router outranks its own stale LSAs. *)
  mutable own_seq : int;
  mutable started : bool;
}

let node t = t.node
let router_id t = t.id
let counters t = t.counters
let neighbor_count t = Hashtbl.length t.neighbors
let lsdb_size t = Hashtbl.length t.lsdb

let lsdb_seq t origin =
  Option.map
    (fun e -> e.seq)
    (Hashtbl.find_opt t.lsdb (Addr.to_int origin))

let lsdb_fold t f acc =
  Hashtbl.fold (fun o e acc -> f (Addr.of_int o) e.seq acc) t.lsdb acc

(* The fixed policy config.mli states: hello periods of silence before
   a neighbor is dead, and the hold-down that coalesces SPF runs. *)
let dead_count = 3
let spf_delay = Netsim.Time.of_ms 10

let engine t = Node.engine t.node
let now t = Engine.now (engine t)

(* Which interface a control packet arrived on: the one whose LAN prefix
   contains the source address.  Node's protocol handlers do not carry the
   arrival interface, but LSR neighbors are by construction addressed
   within the shared LAN's prefix, so this inference is exact. *)
let arrival_iface t src =
  List.find_map
    (fun (i, lan, _) -> if Addr.Prefix.mem src (Lan.prefix lan) then Some i else None)
    (Node.ifaces t.node)

let transmit t ~iface ~src payload =
  let pkt =
    Ipv4.Packet.make ~ttl:1 ~proto:Ipv4.Proto.lsrp ~src ~dst:Addr.broadcast
      payload
  in
  let c = t.counters in
  c.Counters.bytes_sent <- c.Counters.bytes_sent + Ipv4.Packet.total_length pkt;
  Node.broadcast_ip t.node ~iface (Ipv4.Packet.encode pkt)

let send_hello t ~iface ~src =
  let c = t.counters in
  c.Counters.hellos_sent <- c.Counters.hellos_sent + 1;
  transmit t ~iface ~src (Packet.encode (Packet.Hello { origin = t.id }))

(* Broadcast one LSA on every up, addressed interface except [skip_iface]
   (split horizon: never back out the interface it arrived on). *)
let flood t ?skip_iface msg =
  let payload = Packet.encode msg in
  let c = t.counters in
  List.iter
    (fun (i, lan, addr_opt) ->
       match addr_opt with
       | Some src when Lan.is_up lan && Some i <> skip_iface ->
         c.Counters.lsas_sent <- c.Counters.lsas_sent + 1;
         transmit t ~iface:i ~src payload
       | _ -> ())
    (Node.ifaces t.node)

(* {2 SPF} *)

let links_of t r =
  match Hashtbl.find_opt t.lsdb r with Some e -> e.links | None -> []

let spf_now t =
  if Node.is_up t.node then begin
    let c = t.counters in
    c.Counters.spf_runs <- c.Counters.spf_runs + 1;
    let self = Addr.to_int t.id in
    (* BFS over the LSDB.  An edge R—N across prefix P exists only when
       both LSAs list each other as neighbors on P: the bidirectionality
       check that keeps a crashed router's lingering LSA from attracting
       traffic (nobody alive still lists it). *)
    let dist : (int, int) Hashtbl.t = Hashtbl.create 64 in
    let entry : (int, Addr.t) Hashtbl.t = Hashtbl.create 64 in
    let q = Queue.create () in
    Hashtbl.replace dist self 0;
    Queue.push self q;
    while not (Queue.is_empty q) do
      let r = Queue.pop q in
      let d = Hashtbl.find dist r in
      List.iter
        (fun (l : Packet.link) ->
           List.iter
             (fun naddr ->
                let n = Addr.to_int naddr in
                if not (Hashtbl.mem dist n) then
                  match
                    List.find_opt
                      (fun (nl : Packet.link) ->
                         Addr.Prefix.equal nl.prefix l.prefix
                         && List.exists
                              (fun a -> Addr.to_int a = r)
                              nl.neighbors)
                      (links_of t n)
                  with
                  | None -> ()
                  | Some nl ->
                    Hashtbl.replace dist n (d + 1);
                    Hashtbl.replace entry n
                      (if r = self then nl.addr else Hashtbl.find entry r);
                    Queue.push n q)
             l.neighbors)
        (links_of t r)
    done;
    (* Destination prefixes: every network any reachable router claims to
       be attached to, owned by the closest such router (ties to the
       lowest router id — the distributed analogue of the oracle's
       tie-break on node name). *)
    let best : (Addr.Prefix.t, int * int) Hashtbl.t = Hashtbl.create 64 in
    Hashtbl.iter
      (fun r e ->
         match Hashtbl.find_opt dist r with
         | None -> ()
         | Some d ->
           List.iter
             (fun (l : Packet.link) ->
                match Hashtbl.find_opt best l.prefix with
                | Some (d', r') when (d', r') <= (d, r) -> ()
                | _ -> Hashtbl.replace best l.prefix (d, r))
             e.links)
      t.lsdb;
    let routes =
      Hashtbl.fold
        (fun p (_, r) acc ->
           if r = self then
             match Node.iface_to t.node p with
             | Some i -> (p, Route.Direct i) :: acc
             | None -> acc
           else (p, Route.Via (Hashtbl.find entry r)) :: acc)
        best []
      |> List.sort (fun (p, _) (p', _) -> Addr.Prefix.compare p p')
    in
    (* host routes (MHRP's /32s) survive every install *)
    let preserved =
      List.filter_map
        (fun (e : Route.entry) ->
           if e.prefix.Addr.Prefix.len = 32 then Some (e.prefix, e.target)
           else None)
        (Route.entries (Node.routes t.node))
    in
    c.Counters.routes_installed <-
      c.Counters.routes_installed + List.length routes;
    Node.set_routes t.node (Route.bulk (routes @ preserved))
  end

let schedule_spf t =
  if not t.spf_pending then begin
    t.spf_pending <- true;
    ignore
      (Engine.schedule_after (engine t) ~delay:spf_delay
         (fun () ->
            t.spf_pending <- false;
            spf_now t))
  end

(* {2 Origination and flooding} *)

let build_links t =
  List.filter_map
    (fun (i, lan, addr_opt) ->
       match addr_opt with
       | Some addr when Lan.is_up lan ->
         let nbrs =
           Hashtbl.fold
             (fun (ifc, o) _ acc -> if ifc = i then o :: acc else acc)
             t.neighbors []
           |> List.sort_uniq Int.compare
           |> List.map Addr.of_int
         in
         Some { Packet.prefix = Lan.prefix lan; addr; neighbors = nbrs }
       | _ -> None)
    (Node.ifaces t.node)

let settled t =
  (not t.spf_pending)
  && (not t.force_originate)
  && t.pending_sync = []
  && t.last_links = Some (build_links t)

let reoriginate t =
  let links = build_links t in
  let changed = t.last_links <> Some links in
  t.own_seq <- t.own_seq + 1;
  t.last_links <- Some links;
  t.last_origination <- now t;
  t.force_originate <- false;
  Hashtbl.replace t.lsdb (Addr.to_int t.id) { seq = t.own_seq; links };
  let c = t.counters in
  c.Counters.lsas_originated <- c.Counters.lsas_originated + 1;
  flood t (Packet.Lsa { origin = t.id; seq = t.own_seq; links });
  (* A pure refresh carries no news; only a content change costs SPF. *)
  if changed then schedule_spf t

(* Bring a new neighbor's database up to date: broadcast every stored LSA
   on the interface it appeared on.  Duplicates cost one suppressed flood
   at routers that already have them. *)
let db_sync t iface =
  match List.find_opt (fun (i, _, _) -> i = iface) (Node.ifaces t.node) with
  | Some (_, lan, Some src) when Lan.is_up lan ->
    let c = t.counters in
    Hashtbl.fold (fun o e acc -> (o, e) :: acc) t.lsdb []
    |> List.sort (fun (o, _) (o', _) -> Int.compare o o')
    |> List.iter (fun (o, e) ->
        c.Counters.lsas_sent <- c.Counters.lsas_sent + 1;
        transmit t ~iface ~src
          (Packet.encode
             (Packet.Lsa { origin = Addr.of_int o; seq = e.seq; links = e.links })))
  | _ -> ()

(* {2 Receive paths} *)

let on_hello t iface origin =
  if not (Addr.equal origin t.id) then begin
    let key = (iface, Addr.to_int origin) in
    match Hashtbl.find_opt t.neighbors key with
    | Some nb -> nb.last_heard <- now t
    | None ->
      Hashtbl.replace t.neighbors key { last_heard = now t };
      let c = t.counters in
      c.Counters.neighbors_up <- c.Counters.neighbors_up + 1;
      if not (List.mem key t.pending_sync) then
        t.pending_sync <- key :: t.pending_sync
  end

let on_lsa t iface origin seq links =
  let c = t.counters in
  if Addr.equal origin t.id then begin
    (* An echo of our own LSA.  With the sequence number in NVRAM this is
       normally stale; defend anyway by outbidding anything newer. *)
    if seq >= t.own_seq then begin
      t.own_seq <- seq;
      t.force_originate <- true
    end
    else c.Counters.floods_suppressed <- c.Counters.floods_suppressed + 1
  end
  else
    let o = Addr.to_int origin in
    match Hashtbl.find_opt t.lsdb o with
    | Some e when e.seq >= seq ->
      c.Counters.floods_suppressed <- c.Counters.floods_suppressed + 1
    | prior ->
      Hashtbl.replace t.lsdb o { seq; links };
      flood t ~skip_iface:iface (Packet.Lsa { origin; seq; links });
      (* Refresh floods renew the sequence number but carry the same
         content; SPF is owed only when the links actually changed. *)
      (match prior with
       | Some e when e.links = links -> ()
       | _ -> schedule_spf t)

let handle t pkt =
  let c = t.counters in
  c.Counters.bytes_received <-
    c.Counters.bytes_received + Ipv4.Packet.total_length pkt;
  match arrival_iface t pkt.Ipv4.Packet.src with
  | None -> ()
  | Some iface ->
    (match Packet.decode_opt pkt.Ipv4.Packet.payload with
     | None -> ()
     | Some (Packet.Hello { origin }) ->
       c.Counters.hellos_received <- c.Counters.hellos_received + 1;
       on_hello t iface origin
     | Some (Packet.Lsa { origin; seq; links }) ->
       c.Counters.lsas_received <- c.Counters.lsas_received + 1;
       on_lsa t iface origin seq links)

(* {2 The tick} *)

let tick t =
  if Node.is_up t.node then begin
    let c = t.counters in
    let now_ = now t in
    let dead_after = dead_count * t.cfg.Config.hello_interval in
    let dead =
      Hashtbl.fold
        (fun key nb acc ->
           if now_ - nb.last_heard > dead_after then key :: acc else acc)
        t.neighbors []
    in
    List.iter
      (fun key ->
         Hashtbl.remove t.neighbors key;
         c.Counters.neighbors_down <- c.Counters.neighbors_down + 1)
      dead;
    let links = build_links t in
    if
      t.force_originate
      || t.last_links <> Some links
      || now_ - t.last_origination >= t.cfg.Config.refresh_interval
    then reoriginate t;
    (* Database synchronisation, coalesced per interface and designated:
       for each newly-heard neighbor O on a LAN, the responder is the
       lowest-id live participant other than O.  Exactly one (sometimes,
       transiently, two) full-database broadcast per LAN answers however
       many routers appeared at once — without the rule, a cold-started
       256-router backbone would see N full databases broadcast to N
       receivers.  Excluding O from the election keeps a rebooted
       lowest-id router from electing itself to serve its own (empty)
       database while everyone else stays silent. *)
    let pending = t.pending_sync in
    t.pending_sync <- [];
    let self_id = Addr.to_int t.id in
    let syncs =
      List.filter_map
        (fun (iface, o) ->
           if not (Hashtbl.mem t.neighbors (iface, o)) then None
           else
             let min_other =
               Hashtbl.fold
                 (fun (ifc, n) _ acc ->
                    if ifc = iface && n <> o then min n acc else acc)
                 t.neighbors self_id
             in
             if min_other = self_id then Some iface else None)
        pending
      |> List.sort_uniq Int.compare
    in
    List.iter (db_sync t) syncs;
    List.iter
      (fun (i, lan, addr_opt) ->
         match addr_opt with
         | Some src when Lan.is_up lan -> send_hello t ~iface:i ~src
         | _ -> ())
      (Node.ifaces t.node)
  end

let create ?(config = Config.default) ?(stagger = Netsim.Time.zero) node =
  let t =
    { node; cfg = config; id = Node.primary_addr node; stagger;
      counters = Counters.create (); neighbors = Hashtbl.create 16;
      lsdb = Hashtbl.create 64; pending_sync = []; last_links = None;
      last_origination = Netsim.Time.zero; force_originate = false;
      spf_pending = false; own_seq = 0; started = false }
  in
  Node.set_proto_handler node Ipv4.Proto.lsrp (fun _ v ->
      handle t (Ipv4.Packet.View.decode v));
  Node.on_reboot node (fun _ ->
      Hashtbl.reset t.neighbors;
      Hashtbl.reset t.lsdb;
      t.pending_sync <- [];
      t.last_links <- None;
      t.force_originate <- true);
  t

let start t =
  if not t.started then begin
    t.started <- true;
    let e = engine t in
    ignore
      (Engine.schedule_after e ~delay:t.stagger (fun () ->
           tick t;
           Engine.every e ~interval:t.cfg.Config.hello_interval (fun () ->
               tick t)))
  end
