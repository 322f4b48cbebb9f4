type t = {
  metrics : Metrics.t;
  engine : Netsim.Engine.t;
  mutable next_id : int;
  dgrams : (int, Transport.Socket.Dgram.t) Hashtbl.t;
}

let create ?(first_id = 1) metrics engine =
  { metrics; engine; next_id = first_id; dgrams = Hashtbl.create 8 }

let fresh_id t =
  let id = t.next_id in
  (* IP ids are 16-bit; wrap but skip 0 (untracked default). *)
  t.next_id <- (if id >= 0xFFFF then 1 else id + 1);
  id

(* One transport stack and datagram endpoint per distinct source agent,
   created on first use.  Datagram sources never claim the agent's
   receive tap, so [Metrics.watch_receiver] on the same simulation keeps
   seeing deliveries. *)
let dgram_for t agent =
  let key = Ipv4.Addr.to_key (Mhrp.Agent.address agent) in
  match Hashtbl.find_opt t.dgrams key with
  | Some d -> d
  | None ->
    let d =
      Transport.Socket.Dgram.create
        ~tap:(Metrics.note_send t.metrics)
        (Transport.Stack.create agent) ~port:4000
    in
    Hashtbl.replace t.dgrams key d;
    d

let send_udp t ~src ~dst ?(size = 64) () =
  let id = fresh_id t in
  Transport.Socket.Dgram.sendto (dgram_for t src) ~id ~dst ~dst_port:4000
    (Bytes.create size)

let at t time f = ignore (Netsim.Engine.schedule t.engine ~at:time f)

let cbr t ~src ~dst ?size ~start ~interval ~count () =
  for k = 0 to count - 1 do
    let time =
      Netsim.Time.add start
        (Netsim.Time.of_us (k * Netsim.Time.to_us interval))
    in
    at t time (fun () -> send_udp t ~src ~dst ?size ())
  done

let ping t ~src ~dst ~at:time =
  at t time (fun () ->
      let id = fresh_id t in
      let msg =
        Ipv4.Icmp.Echo_request { ident = id; seq = 0; data = Bytes.create 16 }
      in
      let pkt =
        Ipv4.Packet.make ~id ~proto:Ipv4.Proto.icmp
          ~src:(Mhrp.Agent.address src) ~dst (Ipv4.Icmp.encode msg)
      in
      Metrics.note_send t.metrics pkt;
      Mhrp.Agent.send src pkt)
