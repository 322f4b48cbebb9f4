module Time = Netsim.Time
module Engine = Netsim.Engine

type t = {
  topo : Net.Topology.t;
  rng : Netsim.Rng.t;
  mutable ledger : (Time.t * string) list;  (* newest first *)
  mutable spans : (Time.t * Time.t) list;  (* every disruptive span *)
  mutable loss_spans : (float * Time.t * Time.t) list;
  mutable filter_installed : bool;
  mutable lan_flaps : int;
  mutable crashes : int;
  mutable partitions : int;
  mutable loss_windows : int;
  mutable control_losses : int;
}

let create ?(seed = 0xFA17) topo =
  { topo; rng = Netsim.Rng.of_int seed; ledger = []; spans = [];
    loss_spans = []; filter_installed = false; lan_flaps = 0; crashes = 0;
    partitions = 0; loss_windows = 0; control_losses = 0 }

let engine t = Net.Topology.engine t.topo

let note t msg = t.ledger <- (Engine.now (engine t), msg) :: t.ledger

let at_time t ~at f = ignore (Engine.schedule (engine t) ~at f)

(* --- control-message classification --- *)

let is_control_port (udp : Ipv4.Udp.t) =
  udp.Ipv4.Udp.src_port = Mhrp.Control.port
  || udp.Ipv4.Udp.dst_port = Mhrp.Control.port

let is_control_udp payload =
  match Ipv4.Udp.decode payload with
  | udp -> is_control_port udp
  | exception Invalid_argument _ -> false

let is_control_icmp payload =
  match Ipv4.Icmp.decode_opt payload with
  | Some
      (Ipv4.Icmp.Location_update _ | Ipv4.Icmp.Agent_advertisement _
      | Ipv4.Icmp.Agent_solicitation) -> true
  | Some _ | None | (exception Invalid_argument _) -> false

(* Control traffic rides three encodings: port-434 UDP datagrams, the
   MHRP ICMP messages, and either of those inside an MHRP tunnel (a
   registration reply to a visiting host travels encapsulated).  Control
   messages are far smaller than any MTU, so a fragment is never one. *)
let is_control (pkt : Ipv4.Packet.t) =
  (not (Ipv4.Packet.is_fragment pkt))
  &&
  let proto = pkt.Ipv4.Packet.proto in
  if proto = Ipv4.Proto.udp then is_control_udp pkt.Ipv4.Packet.payload
  else if proto = Ipv4.Proto.icmp then is_control_icmp pkt.Ipv4.Packet.payload
  else if proto = Ipv4.Proto.mhrp then
    match Mhrp.Mhrp_header.decode pkt.Ipv4.Packet.payload with
    | exception Invalid_argument _ -> false
    | header, transport ->
      let orig = header.Mhrp.Mhrp_header.orig_proto in
      if orig = Ipv4.Proto.udp then is_control_udp transport
      else if orig = Ipv4.Proto.icmp then is_control_icmp transport
      else false
  else false

let loss_rate_now t =
  let now = Engine.now (engine t) in
  List.fold_left
    (fun acc (rate, from_, until) ->
       if Time.(now >= from_) && Time.(now < until) then Float.max acc rate
       else acc)
    0.0 t.loss_spans

(* Loss is per message, not per hop: the dice roll happens only at the
   node that originated the datagram (it owns the source address), so a
   multi-hop control exchange faces exactly the scheduled rate.  A reply
   tunneled back to a visiting host keeps the replier as outer source,
   so it too is rolled once, at its origin. *)
let control_filter t node pkt =
  if not (Net.Node.has_address node pkt.Ipv4.Packet.src) then true
  else if not (is_control pkt) then true
  else begin
    let rate = loss_rate_now t in
    (* Always draw when a loss span could apply, never otherwise: the
       stream then depends only on the control-traffic sequence, not on
       which spans happen to be active, keeping campaigns replayable. *)
    if rate <= 0.0 then true
    else if Netsim.Rng.float t.rng 1.0 < rate then begin
      t.control_losses <- t.control_losses + 1;
      false
    end
    else true
  end

let install_filter t =
  if not t.filter_installed then begin
    t.filter_installed <- true;
    let arm node = Net.Node.set_fault_filter node (Some (control_filter t)) in
    List.iter arm (Net.Topology.nodes t.topo);
    Net.Topology.on_node_added t.topo arm
  end

(* --- schedule compilation --- *)

let lan_of t name =
  try Net.Topology.lan t.topo name
  with Not_found -> invalid_arg ("Fault.Injector: unknown lan " ^ name)

let node_of t name =
  try Net.Topology.node t.topo name
  with Not_found -> invalid_arg ("Fault.Injector: unknown node " ^ name)

let span t ~at ~duration = t.spans <- (at, Time.add at duration) :: t.spans

let lan_flap t name ~at ~duration =
  let lan = lan_of t name in
  t.lan_flaps <- t.lan_flaps + 1;
  span t ~at ~duration;
  at_time t ~at (fun () ->
      Net.Lan.set_up lan false;
      note t (Printf.sprintf "lan-down %s" name));
  at_time t ~at:(Time.add at duration) (fun () ->
      Net.Lan.set_up lan true;
      note t (Printf.sprintf "lan-up %s" name))

let inject_item t = function
  | Schedule.Lan_down { lan; at; duration } -> lan_flap t lan ~at ~duration
  | Schedule.Crash { node; at; duration } ->
    let n = node_of t node in
    t.crashes <- t.crashes + 1;
    span t ~at ~duration;
    at_time t ~at (fun () ->
        note t (Printf.sprintf "crash %s" node);
        Net.Node.crash_for n duration);
    at_time t ~at:(Time.add at duration) (fun () ->
        note t (Printf.sprintf "reboot %s" node))
  | Schedule.Partition { lans; at; duration } ->
    t.partitions <- t.partitions + 1;
    span t ~at ~duration;
    let ls = List.map (lan_of t) lans in
    let label = String.concat " " lans in
    at_time t ~at (fun () ->
        List.iter (fun l -> Net.Lan.set_up l false) ls;
        note t (Printf.sprintf "partition [%s]" label));
    at_time t ~at:(Time.add at duration) (fun () ->
        List.iter (fun l -> Net.Lan.set_up l true) ls;
        note t (Printf.sprintf "heal [%s]" label))
  | Schedule.Control_loss { rate; from_; until } ->
    if rate < 0.0 || rate > 1.0 then
      invalid_arg "Injector.inject: control-loss rate outside [0, 1]";
    t.loss_windows <- t.loss_windows + 1;
    t.spans <- (from_, until) :: t.spans;
    t.loss_spans <- (rate, from_, until) :: t.loss_spans;
    install_filter t;
    at_time t ~at:from_ (fun () ->
        note t (Printf.sprintf "control-loss %.2f on" rate));
    at_time t ~at:until (fun () ->
        note t (Printf.sprintf "control-loss %.2f off" rate))

let inject t schedule = List.iter (inject_item t) schedule

(* --- observation --- *)

let ledger t = List.rev t.ledger
let events t = List.length t.ledger
let windows t =
  List.sort (fun (a, _) (b, _) -> Time.compare a b) t.spans

let lan_flaps t = t.lan_flaps
let crashes t = t.crashes
let partitions t = t.partitions
let loss_windows t = t.loss_windows
let control_losses t = t.control_losses
