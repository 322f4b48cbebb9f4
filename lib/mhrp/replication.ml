type t = {
  agents : Agent.t list;
  mutable syncs : int;
  (* one exchange per (origin, peer, mobile): a newer registration for the
     same mobile host supersedes the retransmissions of the old one *)
  pending : (Ipv4.Addr.t * Ipv4.Addr.t * Ipv4.Addr.t, Exchange.t) Hashtbl.t;
}

let sync_datagram a ~mobile ~foreign_agent ~peer =
  Ipv4.Packet.make ~proto:Ipv4.Proto.udp ~src:(Agent.address a)
    ~dst:(Agent.address peer)
    (Agent.control_datagram a (Control.Ha_sync { mobile; foreign_agent }))

let mirror t a peer ~mobile ~foreign_agent =
  t.syncs <- t.syncs + 1;
  (* mirror over the wire: replicas may sit anywhere on the
     organisation's network *)
  let send () =
    Net.Node.send (Agent.node a) (sync_datagram a ~mobile ~foreign_agent ~peer)
  in
  send ();
  let counters = Agent.counters a in
  Exchange.start
    (Exchange.find t.pending (Agent.address a, Agent.address peer, mobile))
    (Agent.node a) (Agent.config a) counters
    ~resend:(fun () ->
        counters.Counters.sync_retransmissions <-
          counters.Counters.sync_retransmissions + 1;
        send ())
    ~give_up:ignore

let group agents =
  (match agents with
   | [] -> invalid_arg "Replication.group: empty group"
   | _ -> ());
  List.iter
    (fun a ->
       if Agent.home_agent a = None then
         invalid_arg "Replication.group: member is not a home agent")
    agents;
  let t = { agents; syncs = 0; pending = Hashtbl.create 16 } in
  List.iter
    (fun a ->
       Agent.on_registration a (fun ~mobile ~foreign_agent ->
           List.iter
             (fun peer ->
                if peer != a then mirror t a peer ~mobile ~foreign_agent)
             t.agents);
       Agent.on_ha_sync_ack a (fun ~peer ~mobile ->
           match Hashtbl.find_opt t.pending (Agent.address a, peer, mobile) with
           | Some x -> Exchange.ack x
           | None -> ()))
    agents;
  t

let members t = t.agents

let add_mobile t mobile = List.iter (fun a -> Agent.add_mobile a mobile) t.agents

let sync_messages t = t.syncs

let consistent t mobile =
  let locations =
    List.filter_map
      (fun a ->
         match Agent.home_agent a with
         | Some ha -> Home_agent.location ha mobile
         | None -> None)
    t.agents
  in
  match locations with
  | [] -> false
  | first :: rest -> List.for_all (Ipv4.Addr.equal first) rest
