(** The Columbia protocol (Ioannidis, Duchamp, Maguire, SIGCOMM '91).

    Mobile Support Routers (MSRs) tunnel packets to each other with
    IP-within-IP (24 bytes of overhead, {!Ipip}).  A mobile host's home
    MSRs advertise reachability to it wherever it is, so every packet from
    outside the campus first travels to the home MSR — no route
    optimisation outside the home campus.  When an MSR must deliver to a
    mobile host whose serving MSR it does not have cached, it multicasts a
    WHO-HAS query among all MSRs — the broadcast dependency the MHRP paper
    cites against the design's scalability (Section 7). *)

type t
type msr

val create : Net.Topology.t -> t

val add_msr : t -> Net.Node.t -> cell:Net.Lan.t -> msr
(** The node becomes an MSR serving the given wireless cell. *)

val make_mobile : t -> Net.Node.t -> home:msr -> unit
(** Register a mobile host; its home MSR advertises (intercepts) its
    address permanently. *)

val move : t -> Net.Node.t -> to_msr:msr -> unit
(** Attach the mobile host to the target MSR's cell and register there.
    Other MSRs' caches go stale and are refreshed by WHO-HAS queries. *)

val send : t -> src:Net.Node.t -> Ipv4.Packet.t -> unit
(** Plain IP send: interception at the home MSR does the rest. *)

val control_messages : t -> int
(** Registrations plus WHO-HAS queries and replies (a query costs one
    message per other MSR, as a multicast does). *)

val msr_cache_bytes : t -> int
(** Total location state cached across MSRs. *)
