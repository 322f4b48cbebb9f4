module Time = Netsim.Time
module Engine = Netsim.Engine
module View = Ipv4.Packet.View

type forward_action =
  | Forward
  | Replace of bytes
  | Consume

type icmp_quote = Quote_min | Quote_full

(* An ARP wait: the address being resolved, the interface its next
   request goes out on and the requests sent so far.  Its timer carries
   the record itself, so a timer acts only for the wait it was armed
   for: not for a later wait on the same address once this one was
   answered, nor across a reboot. *)
type arp_wait = {
  target : Ipv4.Addr.t;
  mutable on_iface : int;
  mutable tries : int;
}

(* A slot knows its node, so a deferred send's event is the call of a
   top-level function on the slot and its frame. *)
type iface_state = {
  node : t;
  lan : Lan.t;
  mac : Mac.t;
  addr : Ipv4.Addr.t option;
  mutable active : bool;
}

and t = {
  engine : Engine.t;
  mac_alloc : Mac.Alloc.t;
  name : string;
  router : bool;
  proc_delay : Time.t;
  icmp_quote : icmp_quote;
  tr : Netsim.Trace.t option;
  mutable ifaces : iface_state array;
  mutable origin : int;
  mutable live_from : int;
  mutable n_ifaces : int;
  (* Interface [i] is slot [i - origin] of [ifaces], for [i] in
     [origin, n_ifaces).  Indices are never reused: a retired interface
     stays inactive, so a stale ARP wait or route naming its index cannot
     reach a later LAN.  No interface below [live_from] is active, and
     those below [origin] are released — so however often a host has
     moved, its table holds only the interfaces since its last move. *)
  mutable extra_addrs : Ipv4.Addr.t list;
  mutable iface_list : (int * Lan.t * Ipv4.Addr.t option) list;
  mutable addr_list : Ipv4.Addr.t list;
  (* what [ifaces] and [addresses] return, rebuilt only when an
     interface or address comes or goes *)
  mutable table : Route.t;
  arp_cache : (Ipv4.Addr.t, Mac.t * Time.t) Hashtbl.t;
  (* binding plus the time it was learned *)
  mutable arp_pending : (Ipv4.Addr.t * int * View.t) list;
  reassembly : Ipv4.Packet.Reassembly.t;
  arp_waits : (Ipv4.Addr.t, arp_wait) Hashtbl.t;
  proto_handlers : (int, t -> View.t -> unit) Hashtbl.t;
  (* Header-level hooks (node.mli): they see a destination or a view,
     so a hop need not decode the packet to consult them. *)
  mutable accept_ip : t -> Ipv4.Addr.t -> bool;
  mutable rewrite_forward : t -> View.t -> forward_action;
  mutable arp_proxy : Ipv4.Addr.t -> bool;
  mutable reboot_hooks : (t -> unit) list;
  mutable forward_taps : (t -> Ipv4.Packet.t -> unit) list;
  mutable transmit_taps : (t -> Ipv4.Packet.t -> unit) list;
  mutable broadcast_taps : (t -> Ipv4.Packet.t -> unit) list;
  mutable drop_taps : (t -> string -> Ipv4.Packet.t -> unit) list;
  (* Fault injection: when set, a [false] verdict loses the outgoing
     packet (counted as a drop) just before it would reach the wire. *)
  mutable fault_filter : (t -> Ipv4.Packet.t -> bool) option;
  mutable up : bool;
  mutable n_forwarded : int;
  mutable n_fast_forwarded : int;
  (* subset of [n_forwarded] that the view path forwarded undecoded *)
  mutable n_delivered : int;
  mutable n_originated : int;
  mutable n_dropped : int;
}

let arp_max_tries = 3
let option_slow_factor = 8
let arp_timeout = Time.of_ms 500
let arp_entry_ttl = Time.of_sec 60.0

let create ~engine ~mac_alloc ?trace ?(router = false)
    ?(icmp_quote = Quote_min) name =
  let proc_delay = if router then Time.of_us 50 else Time.of_us 20 in
  { engine; mac_alloc; name; router; proc_delay; icmp_quote; tr = trace;
    ifaces = [||]; origin = 0; live_from = 0; n_ifaces = 0;
    extra_addrs = []; iface_list = []; addr_list = [];
    table = Route.empty;
    arp_cache = Hashtbl.create 16;
    arp_pending = [];
    reassembly = Ipv4.Packet.Reassembly.create ();
    arp_waits = Hashtbl.create 8;
    proto_handlers = Hashtbl.create 8;
    accept_ip = (fun _ _ -> false);
    rewrite_forward = (fun _ _ -> Forward);
    arp_proxy = (fun _ -> false);
    reboot_hooks = [];
    forward_taps = [];
    transmit_taps = [];
    broadcast_taps = [];
    drop_taps = [];
    fault_filter = None;
    up = true;
    n_forwarded = 0; n_fast_forwarded = 0; n_delivered = 0;
    n_originated = 0; n_dropped = 0 }

let name t = t.name
let engine t = t.engine
let is_router t = t.router

let tracing t = Netsim.Trace.active t.tr

(* The one place an event is rendered, and only while someone is
   listening.  With tracing absent or disabled the arguments are consumed
   without rendering, but [ikfprintf] still builds a closure per
   conversion, so every caller guards its call with [tracing]. *)
let tracef t kind fmt =
  match t.tr with
  | Some tr when tracing t ->
    Format.kasprintf
      (fun detail ->
         Netsim.Trace.emit tr ~at:(Engine.now t.engine) ~node:t.name ~kind
           detail)
      fmt
  | _ -> Format.ikfprintf (fun _ -> ()) Format.str_formatter fmt

(* --- addresses --- *)

(* The cached lists are rebuilt by a walk from the last slot down:
   top-level and closure-free, it allocates only the cells for active
   interfaces, and the address list shares [extra_addrs] as its tail. *)
let get t i = Array.unsafe_get t.ifaces (i - t.origin)

let rec active_ifaces t i acc =
  if i < t.live_from then acc
  else
    let s = get t i in
    active_ifaces t (i - 1)
      (if s.active then (i, s.lan, s.addr) :: acc else acc)

let rec iface_addrs t i acc =
  if i < t.live_from then acc
  else
    let s = get t i in
    iface_addrs t (i - 1)
      (match s.addr with Some a when s.active -> a :: acc | _ -> acc)

let refresh_lists t =
  let last = t.n_ifaces - 1 in
  t.iface_list <- active_ifaces t last [];
  t.addr_list <- iface_addrs t last t.extra_addrs

let addresses t = t.addr_list

(* Checked on every received and routed packet, so it allocates
   nothing: the scan is a top-level function (a local [let rec] or a
   partial application such as [List.exists (Addr.equal a)] would
   heap-allocate a closure per call). *)
let rec among a = function
  | [] -> false
  | x :: rest -> Ipv4.Addr.equal x a || among a rest

let has_address t a = among a t.addr_list

let add_address t a =
  if not (among a t.extra_addrs) then begin
    (* append: the first-claimed (home) address stays primary even when a
       temporary address is added later *)
    t.extra_addrs <- t.extra_addrs @ [a];
    refresh_lists t
  end

let remove_address t a =
  t.extra_addrs <-
    List.filter (fun x -> not (Ipv4.Addr.equal x a)) t.extra_addrs;
  refresh_lists t

let primary_addr t =
  match t.addr_list with
  | [] -> failwith (t.name ^ ": no address")
  | a :: _ -> a

(* --- routing --- *)

let routes t = t.table
let set_routes t table = t.table <- table
let update_routes t f = t.table <- f t.table

(* --- hooks --- *)

let set_proto_handler t proto h = Hashtbl.replace t.proto_handlers proto h
let set_accept_ip t f = t.accept_ip <- f
let set_rewrite_forward t f = t.rewrite_forward <- f
let set_arp_proxy t f = t.arp_proxy <- f
let on_reboot t f = t.reboot_hooks <- f :: t.reboot_hooks
(* Taps multicast in registration order so a late observer (say, an
   invariant checker) cannot silently displace an earlier one (say, the
   workload metrics). *)
let on_forward t f = t.forward_taps <- t.forward_taps @ [f]
let on_transmit t f = t.transmit_taps <- t.transmit_taps @ [f]
let on_broadcast t f = t.broadcast_taps <- t.broadcast_taps @ [f]
let on_drop t f = t.drop_taps <- t.drop_taps @ [f]
let set_fault_filter t f = t.fault_filter <- f

(* --- interface lookups --- *)

let live t i = i >= t.live_from && i < t.n_ifaces && (get t i).active

let iface t i =
  if not (live t i) then
    invalid_arg (Printf.sprintf "%s: no active interface %d" t.name i);
  get t i

let ifaces t = t.iface_list

let iface_lan t i = (iface t i).lan
let iface_mac t i = (iface t i).mac
let iface_addr t i = (iface t i).addr

let iface_to t prefix =
  let found = ref None in
  for i = t.n_ifaces - 1 downto t.live_from do
    let s = get t i in
    if s.active && Ipv4.Addr.Prefix.equal (Lan.prefix s.lan) prefix then
      found := Some i
  done;
  !found

let rec iface_covering t next_hop i =
  if i >= t.n_ifaces then -1
  else
    let s = get t i in
    if s.active && Ipv4.Addr.Prefix.mem next_hop (Lan.prefix s.lan) then i
    else iface_covering t next_hop (i + 1)

let iface_for_next_hop t next_hop = iface_covering t next_hop t.live_from

(* --- drops and counters --- *)

let drop t reason pkt =
  t.n_dropped <- t.n_dropped + 1;
  if tracing t then tracef t "drop" "%s: %a" reason Ipv4.Packet.pp pkt;
  List.iter (fun f -> f t reason pkt) t.drop_taps

(* --- ARP cache with entry aging --- *)

let arp_learn t addr mac =
  Hashtbl.replace t.arp_cache addr (mac, Engine.now t.engine)

(* The live binding for [addr], or [Not_found] (aging it out if
   stale).  Raising rather than returning an option keeps the per-hop
   hit allocation-free. *)
let arp_fresh t addr =
  let mac, at = Hashtbl.find t.arp_cache addr in
  if Time.to_us (Engine.now t.engine) - Time.to_us at
     < Time.to_us arp_entry_ttl
  then mac
  else begin
    Hashtbl.remove t.arp_cache addr;
    raise Not_found
  end

(* The packets queued behind the ARP wait for [ip], oldest last,
   removed from the queue. *)
let take_pending t ip =
  let waiting, rest =
    List.partition (fun (x, _, _) -> Ipv4.Addr.equal x ip) t.arp_pending
  in
  t.arp_pending <- rest;
  waiting

(* --- transmit --- *)

let send_arp_request t i target_ip =
  let s = iface t i in
  let sender_ip = Option.value ~default:Ipv4.Addr.zero s.addr in
  let a = Arp.request ~sender_mac:s.mac ~sender_ip ~target_ip in
  if tracing t then tracef t "arp-tx" "%a" Arp.pp a;
  Lan.send s.lan (Frame.arp ~src:s.mac ~dst:Mac.broadcast a)

(* Weak-host loopback: a packet addressed to one of our own addresses is
   delivered locally, never put on the wire (a router tunneling to its
   own address — the home agent doubling as its region's regional agent —
   would otherwise ARP for itself and blackhole the packet).  Tied to
   [deliver_local] below, which is mutually recursive with this send
   group through [forward_now]. *)
let deliver_local_ref : (t -> Ipv4.Packet.t -> unit) ref =
  ref (fun _ _ -> assert false)

(* --- the forwarding chain ---

   Every packet a node puts on a LAN travels route -> resolve -> emit as
   a {!View} over its encoded bytes.  A forwarded packet's view is the
   received buffer itself, TTL and checksum patched in place (DESIGN.md
   Section 11): no decode, no copy.  A record enters the chain by being
   encoded once ([view_of]).  The chain decodes only where a consumer
   needs the record — loopback delivery, drops, ICMP errors,
   fragmentation, fault filters and transmit taps — so the wire bytes,
   counters, drops and errors are those of a record-based chain; only
   allocation and CPU cost differ. *)

let view_of pkt = View.make (Ipv4.Packet.encode pkt)

(* Whether a packet leaving with [taps] watching gets past the fault
   filter, which decodes it only when someone is looking. *)
let passes t taps wire =
  match t.fault_filter, taps with
  | None, [] -> true
  | filter, taps ->
    let pkt = Ipv4.Packet.decode wire in
    (match filter with
     | Some f when not (f t pkt) -> drop t "fault-loss" pkt; false
     | _ -> List.iter (fun f -> f t pkt) taps; true)

(* Put [frame], which carries [v], on slot [s]'s LAN: fragmented past
   the MTU, and past the fault filter and transmit taps. *)
let rec transmit t s (frame : Frame.t) v =
  if View.total_length v > Lan.mtu s.lan then
    fragment_out t s ~dst_mac:frame.Frame.dst v
  else if passes t t.transmit_taps (View.to_wire v) then Lan.send s.lan frame

and frame_out t i ~dst_mac v =
  let s = iface t i in
  transmit t s (Frame.ip ~src:s.mac ~dst:dst_mac (View.to_wire v)) v

and fragment_out t s ~dst_mac v =
  let pkt = View.decode v in
  if pkt.Ipv4.Packet.dont_fragment then begin
    t.n_dropped <- t.n_dropped + 1;
    if tracing t then
      tracef t "drop" "needs fragmentation but DF set: %a" Ipv4.Packet.pp
        pkt;
    List.iter (fun f -> f t "df-mtu" pkt) t.drop_taps;
    (* ICMP destination unreachable, "fragmentation needed and DF set"
       (type 3 code 4) *)
    if not (has_address t pkt.Ipv4.Packet.src) then
      icmp_error t
        (fun original ->
           Ipv4.Icmp.Dest_unreachable { code = 4; original })
        pkt
  end
  else
    List.iter
      (fun fragment ->
         let fv = view_of fragment in
         transmit t s (Frame.ip ~src:s.mac ~dst:dst_mac (View.to_wire fv)) fv)
      (Ipv4.Packet.fragment pkt ~mtu:(Lan.mtu s.lan))

(* ICMP error generation, used by forwarding failures.  Never generated in
   response to another ICMP error (RFC 1122) or to a broadcast. *)
and icmp_error t make_msg (offending : Ipv4.Packet.t) =
  let is_icmp_error =
    offending.Ipv4.Packet.proto = Ipv4.Proto.icmp
    && (match Ipv4.Icmp.decode_opt offending.Ipv4.Packet.payload with
        | Some (Ipv4.Icmp.Dest_unreachable _ | Ipv4.Icmp.Time_exceeded _
               | Ipv4.Icmp.Redirect _) -> true
        | Some _ | None -> false
        | exception Invalid_argument _ -> true)
  in
  if (not is_icmp_error)
     && not (Ipv4.Addr.equal offending.Ipv4.Packet.src Ipv4.Addr.broadcast)
     && not (Ipv4.Addr.is_zero offending.Ipv4.Packet.src)
     && addresses t <> []
  then begin
    let encoded = Ipv4.Packet.encode offending in
    let quoted =
      match t.icmp_quote with
      | Quote_full -> encoded
      | Quote_min ->
        let n = min (Bytes.length encoded)
            (Ipv4.Packet.header_length offending + 8) in
        Bytes.sub encoded 0 n
    in
    let msg = make_msg quoted in
    let reply =
      Ipv4.Packet.make ~proto:Ipv4.Proto.icmp ~src:(primary_addr t)
        ~dst:offending.Ipv4.Packet.src (Ipv4.Icmp.encode msg)
    in
    if tracing t then
      tracef t "icmp-tx" "%a to %a" Ipv4.Icmp.pp msg Ipv4.Addr.pp
        offending.Ipv4.Packet.src;
    route_and_send t (view_of reply)
  end

and resolve_and_emit t i ~next_hop v =
  match arp_fresh t next_hop with
  | mac -> frame_out t i ~dst_mac:mac v
  | exception Not_found ->
    t.arp_pending <- (next_hop, i, v) :: t.arp_pending;
    if not (Hashtbl.mem t.arp_waits next_hop) then begin
      let w = { target = next_hop; on_iface = i; tries = 1 } in
      Hashtbl.replace t.arp_waits next_hop w;
      send_arp_request t i next_hop;
      arm_arp_timer t w
    end

and arm_arp_timer t w =
  ignore (Engine.call_after t.engine ~delay:arp_timeout arp_expired t w)

(* A wait that was answered, or cleared by a reboot, is no longer the
   one its address maps to: its timer does nothing. *)
and arp_expired t w =
  match Hashtbl.find t.arp_waits w.target with
  | current when current != w -> ()
  | _ when w.tries < arp_max_tries ->
    w.tries <- w.tries + 1;
    if t.up then retry_arp t w
  | _ ->
    Hashtbl.remove t.arp_waits w.target;
    List.iter
      (fun (_, _, v) ->
         let pkt = View.decode v in
         drop t "arp-timeout" pkt;
         if t.router && not (has_address t pkt.Ipv4.Packet.src) then
           icmp_error t
             (fun original -> Ipv4.Icmp.host_unreachable ~original)
             pkt)
      (take_pending t w.target)
  | exception Not_found -> ()

(* A retry on an interface retired meanwhile (its host moved on) drops
   the packets waiting for the target on a retired interface as
   ["iface-down"].  Packets queued behind the same wait on a live
   interface (the host came back before the timer fired) carry the
   retry on to that interface; with none left, the wait ends. *)
and retry_arp t w =
  let next_hop = w.target in
  if live t w.on_iface then begin
    send_arp_request t w.on_iface next_hop;
    arm_arp_timer t w
  end
  else begin
    let gone, kept =
      List.partition
        (fun (x, j, _) -> Ipv4.Addr.equal x next_hop && not (live t j))
        t.arp_pending
    in
    t.arp_pending <- kept;
    List.iter (fun (_, _, v) -> drop t "iface-down" (View.decode v)) gone;
    match List.find_opt (fun (x, _, _) -> Ipv4.Addr.equal x next_hop) kept with
    | Some (_, j, _) ->
      w.on_iface <- j;
      retry_arp t w
    | None -> Hashtbl.remove t.arp_waits next_hop
  end

and route_and_send t v =
  if t.up then begin
    let dst = View.dst v in
    if has_address t dst then begin
      let pkt = View.decode v in
      if tracing t then tracef t "loopback" "%a" Ipv4.Packet.pp pkt;
      !deliver_local_ref t pkt
    end
    else
      match Route.find t.table dst with
      | exception Not_found ->
        let pkt = View.decode v in
        drop t "no-route" pkt;
        if not (has_address t pkt.Ipv4.Packet.src) then
          icmp_error t
            (fun original ->
               Ipv4.Icmp.Dest_unreachable { code = 0; original })
            pkt
      | Route.Direct i ->
        if live t i then resolve_and_emit t i ~next_hop:dst v
        else drop t "iface-down" (View.decode v)
      | Route.Via gw ->
        match iface_for_next_hop t gw with
        | -1 -> drop t "gateway-unreachable" (View.decode v)
        | i -> resolve_and_emit t i ~next_hop:gw v
  end

(* --- public senders --- *)

let processing_delay t ~slow =
  if slow then Time.of_us (Time.to_us t.proc_delay * option_slow_factor)
  else t.proc_delay

(* Route [v] after the processing delay.  The event is the call
   [route_and_send t v] of a top-level function, which skips its work if
   the node went down meanwhile: scheduling it allocates nothing. *)
let route_after t ~slow v =
  let delay = processing_delay t ~slow in
  ignore (Engine.call_after t.engine ~delay route_and_send t v)

(* Wire bytes, rendered only when a trace is listening. *)
let pp_wire ppf wire = Ipv4.Packet.pp ppf (Ipv4.Packet.decode wire)

(* The wire senders take a packet's encoding: the MHRP agents build
   their tunnels as bytes, and the record senders encode once and call
   them.  A header with options costs the slow-path delay. *)
let forward_wire t wire =
  let v = View.make wire in
  route_after t ~slow:(View.has_options v) v

let send_wire t wire =
  t.n_originated <- t.n_originated + 1;
  if tracing t then tracef t "tx" "%a" pp_wire wire;
  forward_wire t wire

(* A send to a known MAC or a link broadcast builds its frame at once
   and puts it on the LAN after the processing delay: the event is the
   call of [unicast_later] or [broadcast_later] on the slot and the
   frame, which skips its work if the node went down meanwhile and
   drops the packet as ["iface-down"] if the interface was retired.  A
   send on an interface already retired drops it the same way, at the
   same time. *)
let retired_later t wire =
  if t.up then drop t "iface-down" (Ipv4.Packet.decode wire)

let unicast_later s (frame : Frame.t) =
  let t = s.node in
  match frame.Frame.content with
  | Frame.Ip wire when t.up ->
    if s.active then transmit t s frame (View.make wire)
    else drop t "iface-down" (Ipv4.Packet.decode wire)
  | Frame.Ip _ | Frame.Arp _ -> ()

let broadcast_later s (frame : Frame.t) =
  let t = s.node in
  match frame.Frame.content with
  | Frame.Ip wire when t.up ->
    if not s.active then drop t "iface-down" (Ipv4.Packet.decode wire)
    else if passes t t.broadcast_taps wire then Lan.send s.lan frame
  | Frame.Ip _ | Frame.Arp _ -> ()

let send_wire_to_mac t ~iface:i ~dst_mac wire =
  ignore
    (if live t i then
       let s = get t i in
       Engine.call_after t.engine ~delay:t.proc_delay unicast_later s
         (Frame.ip ~src:s.mac ~dst:dst_mac wire)
     else Engine.call_after t.engine ~delay:t.proc_delay retired_later t wire)

let forward_now t pkt = forward_wire t (Ipv4.Packet.encode pkt)
let send t pkt = send_wire t (Ipv4.Packet.encode pkt)

let broadcast_ip t ~iface:i wire =
  ignore
    (if live t i then
       let s = get t i in
       Engine.call_after t.engine ~delay:t.proc_delay broadcast_later s
         (Frame.ip ~src:s.mac ~dst:Mac.broadcast wire)
     else Engine.call_after t.engine ~delay:t.proc_delay retired_later t wire)

let gratuitous_arp t ~iface:i ip =
  let s = iface t i in
  let a = Arp.gratuitous ~mac:s.mac ~ip in
  if tracing t then tracef t "arp-tx" "gratuitous %a" Arp.pp a;
  Lan.send s.lan (Frame.arp ~src:s.mac ~dst:Mac.broadcast a)

(* Drop any cached entry first: a probe asks whether the target is on
   the LAN *now*, and a stale cached answer would make the verification
   vacuous. *)
let arp_probe t ~iface:i target =
  Hashtbl.remove t.arp_cache target;
  send_arp_request t i target

let arp_cache_lookup t a =
  match arp_fresh t a with mac -> Some mac | exception Not_found -> None
let arp_cache_size t = Hashtbl.length t.arp_cache

(* --- receive path --- *)

let flush_arp_pending t resolved_ip =
  Hashtbl.remove t.arp_waits resolved_ip;
  (* restore scheduling order *)
  List.iter
    (fun (_, i, v) -> resolve_and_emit t i ~next_hop:resolved_ip v)
    (List.rev (take_pending t resolved_ip))

let handle_arp t i (a : Arp.t) =
  (* Learn the sender binding from every ARP we hear: replies and
     gratuitous broadcasts update caches (Section 2 relies on this). *)
  (match a.Arp.op with
   | Arp.Reply ->
     arp_learn t a.Arp.sender_ip a.Arp.sender_mac;
     flush_arp_pending t a.Arp.sender_ip
   | Arp.Request ->
     (* Standard ARP: learn requester binding only if we already track it
        or the request is addressed to us (keeps caches small). *)
     if Hashtbl.mem t.arp_cache a.Arp.sender_ip then
       arp_learn t a.Arp.sender_ip a.Arp.sender_mac);
  match a.Arp.op with
  | Arp.Reply -> ()
  | Arp.Request ->
    let target = a.Arp.target_ip in
    let mine =
      match (iface t i).addr with
      | Some my -> Ipv4.Addr.equal my target || has_address t target
      | None -> has_address t target
    in
    if mine || t.arp_proxy target then begin
      arp_learn t a.Arp.sender_ip a.Arp.sender_mac;
      let s = iface t i in
      let reply =
        Arp.reply ~sender_mac:s.mac ~sender_ip:target
          ~target_mac:a.Arp.sender_mac ~target_ip:a.Arp.sender_ip
      in
      if tracing t then
        tracef t "arp-tx" "%a%s" Arp.pp reply
          (if mine then "" else " (proxy)");
      Lan.send s.lan (Frame.arp ~src:s.mac ~dst:a.Arp.sender_mac reply)
    end

let builtin_icmp t (pkt : Ipv4.Packet.t) =
  match Ipv4.Icmp.decode_opt pkt.Ipv4.Packet.payload with
  | None -> () (* unknown type: silently discarded, RFC 1122 *)
  | exception Invalid_argument _ -> drop t "bad-icmp" pkt
  | Some (Ipv4.Icmp.Echo_request { ident; seq; data }) ->
    let reply = Ipv4.Icmp.Echo_reply { ident; seq; data } in
    let out =
      Ipv4.Packet.make ~proto:Ipv4.Proto.icmp ~src:(primary_addr t)
        ~dst:pkt.Ipv4.Packet.src (Ipv4.Icmp.encode reply)
    in
    forward_now t out
  | Some _ -> () (* errors/replies with no registered handler: ignore *)

(* RFC 791 loose-source-route: a listed hop receives the packet addressed
   to itself, records its own address in the consumed slot, redirects the
   packet at the next listed address, and forwards. *)
let advance_lsrr t (pkt : Ipv4.Packet.t) =
  let rec go acc = function
    | [] -> None
    | (Ipv4.Ip_option.Lsrr { pointer; route } as o) :: rest ->
      (match Ipv4.Ip_option.lsrr_next o with
       | None -> None
       | Some (next_dst, _) ->
         let idx = (pointer - 4) / 4 in
         let route' = Array.copy route in
         route'.(idx) <- primary_addr t;
         let o' = Ipv4.Ip_option.Lsrr { pointer = pointer + 4;
                                        route = route' } in
         Some
           { pkt with
             Ipv4.Packet.dst = next_dst;
             options = List.rev_append acc (o' :: rest) })
    | o :: rest -> go (o :: acc) rest
  in
  go [] pkt.Ipv4.Packet.options

(* A packet no handler claims: ICMP gets the built-in echo responder,
   anything else is dropped. *)
let unhandled t (pkt : Ipv4.Packet.t) =
  if pkt.Ipv4.Packet.proto = Ipv4.Proto.icmp then builtin_icmp t pkt
  else drop t "no-proto-handler" pkt

(* The record route: reassembly and source routing need the record;
   the handler then gets a view of its encoding. *)
let rec deliver_local t (pkt : Ipv4.Packet.t) =
  if Ipv4.Packet.is_fragment pkt then begin
    (* reassemble at the destination; forwarders never see this path *)
    let now = Time.to_us (Engine.now t.engine) in
    ignore
      (Ipv4.Packet.Reassembly.expire t.reassembly ~now
         ~older_than_us:30_000_000);
    match Ipv4.Packet.Reassembly.add t.reassembly ~now pkt with
    | Some whole -> deliver_local t whole
    | None -> () (* waiting for the rest *)
  end
  else deliver_local_whole t pkt

and deliver_local_whole t (pkt : Ipv4.Packet.t) =
  match advance_lsrr t pkt with
  | Some pkt' ->
    if tracing t then
      tracef t "lsrr" "source-routing on to %a" Ipv4.Addr.pp
        pkt'.Ipv4.Packet.dst;
    t.n_forwarded <- t.n_forwarded + 1;
    List.iter (fun f -> f t pkt') t.forward_taps;
    forward_now t pkt'
  | None ->
    t.n_delivered <- t.n_delivered + 1;
    if tracing t then tracef t "rx" "%a" Ipv4.Packet.pp pkt;
    match Hashtbl.find t.proto_handlers pkt.Ipv4.Packet.proto with
    | exception Not_found -> unhandled t pkt
    | h ->
      match view_of pkt with
      | v -> h t v
      (* reassembled fragments may add up past the 65535-byte limit,
         which no wire packet can carry *)
      | exception Invalid_argument _ -> drop t "oversize" pkt

let () = deliver_local_ref := deliver_local
let inject_local t pkt = if t.up then deliver_local t pkt

let forward_rewritten t wire =
  t.n_forwarded <- t.n_forwarded + 1;
  if tracing t then tracef t "fwd" "rewritten: %a" pp_wire wire;
  (match t.forward_taps with
   | [] -> ()
   | taps ->
     let pkt = Ipv4.Packet.decode wire in
     List.iter (fun f -> f t pkt) taps);
  forward_wire t wire

(* The record route, for a packet the receive path decoded: the hook
   sees the encoding of the decremented record, and the chain forwards
   those same bytes. *)
let forward t (pkt : Ipv4.Packet.t) =
  match Ipv4.Packet.decr_ttl pkt with
  | None ->
    drop t "ttl-expired" pkt;
    icmp_error t
      (fun original -> Ipv4.Icmp.Time_exceeded { code = 0; original })
      pkt
  | Some pkt ->
    let v = view_of pkt in
    match t.rewrite_forward t v with
    | Consume -> ()
    | Replace wire -> forward_rewritten t wire
    | Forward ->
      t.n_forwarded <- t.n_forwarded + 1;
      if tracing t then tracef t "fwd" "%a" Ipv4.Packet.pp pkt;
      List.iter (fun f -> f t pkt) t.forward_taps;
      route_after t ~slow:(Ipv4.Packet.has_options pkt) v

(* The view route: TTL and checksum patched in the received buffer, the
   hook consulted on the header, and — unless it rewrites or claims the
   packet — the same buffer handed to the chain without a decode. *)
let forward_view t v =
  View.decr_ttl v;
  match t.rewrite_forward t v with
  | Consume -> ()
  | Replace wire -> forward_rewritten t wire
  | Forward ->
    t.n_forwarded <- t.n_forwarded + 1;
    t.n_fast_forwarded <- t.n_fast_forwarded + 1;
    if tracing t then tracef t "fwd" "%a" Ipv4.Packet.pp (View.decode v);
    route_after t ~slow:false v

let intercept t pkt =
  if tracing t then tracef t "intercept" "%a" Ipv4.Packet.pp pkt;
  deliver_local t pkt

let rx_ip t (pkt : Ipv4.Packet.t) =
  let dst = pkt.Ipv4.Packet.dst in
  if Ipv4.Addr.equal dst Ipv4.Addr.broadcast || has_address t dst then
    deliver_local t pkt
  else if t.accept_ip t dst then intercept t pkt
  else if t.router then forward t pkt
  else drop t "not-mine" pkt

let rx_ip_bytes t bytes =
  match Ipv4.Packet.decode bytes with
  | pkt -> rx_ip t pkt
  | exception Invalid_argument msg ->
    if tracing t then tracef t "drop" "malformed packet: %s" msg;
    t.n_dropped <- t.n_dropped + 1

(* The view route for a packet addressed to (or claimed by) this node:
   the handler reads the received bytes, decoded only for a live trace
   or an unhandled protocol.  The guarded emits here and in
   [forward_view] and [rx_view] are the record route's, at the same
   points, so a traced run takes the route an untraced one does. *)
let deliver_view t v =
  t.n_delivered <- t.n_delivered + 1;
  if tracing t then tracef t "rx" "%a" Ipv4.Packet.pp (View.decode v);
  match Hashtbl.find t.proto_handlers (View.proto v) with
  | h -> h t v
  | exception Not_found -> unhandled t (View.decode v)

(* The receive path reads the header through a view, and decodes only
   what it reassembles, drops, or must answer with ICMP.  Headers with
   options (which may be malformed and cost the slow-path delay factor)
   and buffers with trailing bytes (which the record encoding would
   trim) take the record route.  [shared] marks a MAC-broadcast frame,
   whose payload every station on the LAN receives: handlers only read
   it, and a forward decodes it instead of patching it in place.  A
   unicast frame's payload has exactly one owner after delivery
   (DESIGN.md Section 11): LAN monitors have already run synchronously,
   and anything they keep is decoded (copied), never the raw buffer. *)
let rx_view t ~shared bytes =
  let v = View.make bytes in
  if not (View.valid v) || View.has_options v
     || View.total_length v <> Bytes.length bytes
  then rx_ip_bytes t bytes
  else
    let dst = View.dst v in
    if Ipv4.Addr.equal dst Ipv4.Addr.broadcast || has_address t dst then
      if View.is_fragment v then deliver_local t (View.decode v)
      else deliver_view t v
    else if t.accept_ip t dst then
      if View.is_fragment v then intercept t (View.decode v)
      else begin
        if tracing t then
          tracef t "intercept" "%a" Ipv4.Packet.pp (View.decode v);
        deliver_view t v
      end
    else if not t.router then drop t "not-mine" (View.decode v)
    else if shared || View.ttl v <= 1
            || (match t.forward_taps with [] -> false | _ :: _ -> true)
    then forward t (View.decode v)
    else forward_view t v

let on_frame t i (frame : Frame.t) =
  if t.up then
    match frame.Frame.content with
    | Frame.Arp a -> handle_arp t i a
    | Frame.Ip bytes ->
      rx_view t ~shared:(Mac.is_broadcast frame.Frame.dst) bytes

(* --- attachment --- *)

(* A full table first releases the interfaces below [live_from], then
   doubles if the rest still fills half of it: a mobile host, whose only
   interface is its newest, never grows it. *)
let make_room t s =
  let keep = t.n_ifaces - t.live_from in
  let cap = Array.length t.ifaces in
  let dst =
    if 2 * keep < cap then t.ifaces else Array.make (max 4 (2 * cap)) s
  in
  Array.blit t.ifaces (t.live_from - t.origin) dst 0 keep;
  Array.fill dst keep (Array.length dst - keep) s;
  t.ifaces <- dst;
  t.origin <- t.live_from

let attach t ?addr lan =
  let mac = Mac.Alloc.fresh t.mac_alloc in
  let i = t.n_ifaces in
  let s = { node = t; lan; mac; addr; active = true } in
  if i - t.origin = Array.length t.ifaces then make_room t s;
  t.ifaces.(i - t.origin) <- s;
  t.n_ifaces <- i + 1;
  refresh_lists t;
  Lan.attach lan mac (fun frame -> on_frame t i frame);
  i

let detach t i =
  let s = iface t i in
  s.active <- false;
  while t.live_from < t.n_ifaces && not (get t t.live_from).active do
    t.live_from <- t.live_from + 1
  done;
  refresh_lists t;
  Lan.detach s.lan s.mac

(* --- failure injection --- *)

let is_up t = t.up
let set_up t v = t.up <- v

let reboot t =
  Hashtbl.reset t.arp_cache;
  Hashtbl.reset t.arp_waits;
  t.arp_pending <- [];
  if tracing t then tracef t "reboot" "state cleared";
  List.iter (fun f -> f t) t.reboot_hooks

let crash_for t d =
  set_up t false;
  if tracing t then tracef t "crash" "down for %a" Time.pp d;
  ignore
    (Engine.schedule_after t.engine ~delay:d (fun () ->
         set_up t true;
         reboot t))

(* --- counters --- *)

let packets_forwarded t = t.n_forwarded
let packets_fast_forwarded t = t.n_fast_forwarded
let packets_delivered t = t.n_delivered
let packets_originated t = t.n_originated
let packets_dropped t = t.n_dropped
