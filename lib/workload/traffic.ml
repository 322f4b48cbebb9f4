type t = {
  metrics : Metrics.t;
  engine : Netsim.Engine.t;
  mutable next_id : int;
}

let create ?(first_id = 1) metrics engine =
  { metrics; engine; next_id = first_id }

let fresh_id t =
  let id = t.next_id in
  (* IP ids are 16-bit; wrap but skip 0 (untracked default). *)
  t.next_id <- (if id >= 0xFFFF then 1 else id + 1);
  id

(* A datagram is noted from its fields — an option-free IP header, the
   UDP header and [size] zero bytes — and written once into its packet.
   Sending claims no receive tap, so [Metrics.watch_receiver] on the
   same simulation keeps seeing deliveries. *)
let send_udp t ~src ~dst ?(size = 64) () =
  let id = fresh_id t in
  Metrics.note_sent t.metrics ~src:(Mhrp.Agent.address src) ~id
    ~bytes:(20 + Ipv4.Udp.header_length + size);
  Mhrp.Agent.send_udp src ~src_port:4000 ~dst_port:4000 ~id ~dst
    (Bytes.make size '\000')

let at t time f = ignore (Netsim.Engine.schedule t.engine ~at:time f)

let cbr t ~src ~dst ~start ~interval ~count () =
  for k = 0 to count - 1 do
    let time =
      Netsim.Time.add start
        (Netsim.Time.of_us (k * Netsim.Time.to_us interval))
    in
    at t time (fun () -> send_udp t ~src ~dst ())
  done
