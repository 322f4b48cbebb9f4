type station = Frame.t -> unit

(* Unique id per LAN instance, used as an O(1) identity hash key by the
   routing graph builder (structural hashing of a LAN would walk the
   engine it embeds).  Atomic so topologies may be constructed
   concurrently from several domains (the parallel sweep runner builds
   one per trial); ids are only ever compared for equality or hashed, so
   the values a trial draws cannot affect simulation results. *)
let next_id = Atomic.make 0

type t = {
  id : int;
  engine : Netsim.Engine.t;
  name : string;
  prefix : Ipv4.Addr.Prefix.t;
  latency : Netsim.Time.t;
  bandwidth_bps : int;
  mtu : int;
  stations : (Mac.t, station) Hashtbl.t;
  mutable sorted_macs : Mac.t list;
  (* [stations] in MAC order, kept current by attach and detach, so
     broadcast fan-out never sorts the membership *)
  mutable monitors_rev : station list;  (* newest first *)
  mutable monitors : station list option;
  (* registration-order view of [monitors_rev], rebuilt lazily at delivery
     so registration is O(1) per monitor instead of list-append quadratic *)
  mutable up : bool;
  mutable frames : int;
  mutable bytes : int;
}

let create ~engine ~name ?(latency = Netsim.Time.of_us 500)
    ?(bandwidth_bps = 10_000_000) ?(mtu = 1500) prefix =
  if bandwidth_bps <= 0 then invalid_arg "Lan.create: bandwidth";
  if mtu < 68 then invalid_arg "Lan.create: mtu below the IP minimum";
  let id = Atomic.fetch_and_add next_id 1 in
  { id; engine; name; prefix; latency; bandwidth_bps; mtu;
    stations = Hashtbl.create 8; sorted_macs = []; monitors_rev = [];
    monitors = None; up = true; frames = 0; bytes = 0 }

let id t = t.id
let name t = t.name
let prefix t = t.prefix
let mtu t = t.mtu

(* The sorted list with [mac] added or removed: the cells before its
   place are copied, the rest shared, so a fan-out already walking the
   old list is unaffected. *)
let[@tail_mod_cons] rec insert_mac mac = function
  | m :: rest when Mac.compare m mac < 0 -> m :: insert_mac mac rest
  | after -> mac :: after

let[@tail_mod_cons] rec remove_mac mac = function
  | [] -> []
  | m :: rest -> if Mac.equal m mac then rest else m :: remove_mac mac rest

let attach t mac station =
  if Hashtbl.mem t.stations mac then
    invalid_arg
      (Printf.sprintf "Lan.attach: %s already on %s" (Mac.to_string mac)
         t.name);
  Hashtbl.replace t.stations mac station;
  t.sorted_macs <- insert_mac mac t.sorted_macs

let detach t mac =
  if Hashtbl.mem t.stations mac then begin
    Hashtbl.remove t.stations mac;
    t.sorted_macs <- remove_mac mac t.sorted_macs
  end

let add_monitor t monitor =
  t.monitors_rev <- monitor :: t.monitors_rev;
  t.monitors <- None

let monitors t =
  match t.monitors with
  | Some ms -> ms
  | None ->
    let ms = List.rev t.monitors_rev in
    t.monitors <- Some ms;
    ms

let attached t mac = Hashtbl.mem t.stations mac

let stations t = t.sorted_macs

let tx_delay t frame =
  let bits = Frame.wire_length frame * 8 in
  Netsim.Time.of_us (bits * 1_000_000 / t.bandwidth_bps)

(* Per-frame helpers are top-level and closure-free, the station lookup
   uses [Hashtbl.find] rather than [find_opt], and the delivery event is
   the call [deliver t frame]: a delivery allocates nothing beyond the
   frame. *)
let rec show_monitors frame = function
  | [] -> ()
  | monitor :: rest ->
    monitor frame;
    show_monitors frame rest

let deliver_to t mac frame =
  match Hashtbl.find t.stations mac with
  | station -> station frame
  | exception Not_found -> ()

(* Broadcast fan-out in deterministic (MAC-sorted) order, skipping the
   sender, matching how tests expect it. *)
let rec fan_out t frame = function
  | [] -> ()
  | mac :: rest ->
    if not (Mac.equal mac frame.Frame.src) then deliver_to t mac frame;
    fan_out t frame rest

let deliver t frame =
  if t.up then begin
    show_monitors frame (monitors t);
    if Mac.is_broadcast frame.Frame.dst then fan_out t frame (stations t)
    else deliver_to t frame.Frame.dst frame
  end

let send t frame =
  if t.up then begin
    t.frames <- t.frames + 1;
    t.bytes <- t.bytes + Frame.wire_length frame;
    let delay = Netsim.Time.add t.latency (tx_delay t frame) in
    ignore (Netsim.Engine.call_after t.engine ~delay deliver t frame)
  end

let set_up t v = t.up <- v
let is_up t = t.up
let frames_sent t = t.frames
let bytes_sent t = t.bytes
