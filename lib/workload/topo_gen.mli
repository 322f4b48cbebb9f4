(** Topology generators for the experiments.

    [figure1] reproduces the paper's example internetwork exactly; the
    parameterised generators scale it for the scalability and convergence
    experiments. *)

(** The paper's Figure 1, with MHRP agents installed:

    {v
      net A ---- R1 ---\
                        backbone
      net B ---- R2 ---/   |
      (home of M)          R3 ---- net C ---- R4 ---- net D (wireless)
    v}

    [S] is a host on network A; [M] is a mobile host whose home is
    network B; [R2] is M's home agent; [R4] is the foreign agent for the
    wireless network D.  R1 and R3 are plain routers whose agents can act
    as cache agents (R1 serves network A's non-MHRP hosts in
    Section 6.2). *)
type figure1 = {
  topo : Net.Topology.t;
  net_a : Net.Lan.t;
  net_b : Net.Lan.t;
  net_c : Net.Lan.t;
  net_d : Net.Lan.t;
  backbone : Net.Lan.t;
  s : Mhrp.Agent.t;
  m : Mhrp.Agent.t;
  r1 : Mhrp.Agent.t;
  r2 : Mhrp.Agent.t;  (** Home agent for M. *)
  r3 : Mhrp.Agent.t;
  r4 : Mhrp.Agent.t;  (** Foreign agent on network D. *)
}

val figure1 :
  ?config:Mhrp.Config.t -> ?seed:int -> ?snoop_routers:bool ->
  ?icmp_quote:Net.Node.icmp_quote -> unit -> figure1

(** The same Figure 1 internetwork without MHRP agents, for running the
    baseline protocols over an identical substrate. *)
type plain = {
  p_topo : Net.Topology.t;
  p_net_a : Net.Lan.t;
  p_net_b : Net.Lan.t;
  p_net_c : Net.Lan.t;
  p_net_d : Net.Lan.t;
  p_backbone : Net.Lan.t;
  p_s : Net.Node.t;
  p_m : Net.Node.t;
  p_r1 : Net.Node.t;
  p_r2 : Net.Node.t;
  p_r3 : Net.Node.t;
  p_r4 : Net.Node.t;
}

val figure1_plain : unit -> plain

(** A backbone with [campuses] campus routers, each serving one home
    network with [mobiles_per_campus] mobile hosts and one wireless cell
    with a foreign agent, plus [correspondents] sender hosts spread over
    campuses.  Every campus router is home agent for its own mobiles and
    foreign agent for its cell — the Section 2 combination. *)
type campus = {
  c_topo : Net.Topology.t;
  c_backbone : Net.Lan.t;
  c_routers : Mhrp.Agent.t array;  (** campus router agents *)
  c_cells : Net.Lan.t array;  (** wireless cell of campus i *)
  c_homes : Net.Lan.t array;
  c_mobiles : Mhrp.Agent.t array;  (** all mobile hosts *)
  c_senders : Mhrp.Agent.t array;
}

val campuses :
  ?config:Mhrp.Config.t -> ?seed:int -> ?backbone_prefix_len:int ->
  campuses:int -> mobiles_per_campus:int -> correspondents:int -> unit ->
  campus
(** [backbone_prefix_len] (default 24) widens the backbone's host field;
    pass 16 for internetworks beyond ~240 campuses, whose routers would
    overflow a /24 backbone. *)

(** The campus topology without MHRP agents, for the baseline protocols:
    [cp_routers].(i) connects the backbone, [cp_homes].(i) and
    [cp_cells].(i); mobiles and senders are plain hosts. *)
type campus_plain = {
  cp_topo : Net.Topology.t;
  cp_backbone : Net.Lan.t;
  cp_routers : Net.Node.t array;
  cp_cells : Net.Lan.t array;
  cp_homes : Net.Lan.t array;
  cp_mobiles : Net.Node.t array;
  cp_senders : Net.Node.t array;
}

val campuses_plain :
  ?seed:int -> ?backbone_prefix_len:int -> ?compute_routes:bool ->
  campuses:int -> mobiles_per_campus:int -> correspondents:int -> unit ->
  campus_plain
(** [backbone_prefix_len] as in {!campuses}.  [compute_routes] (default
    true) may be disabled by callers that only need the wired topology —
    construction-cost benchmarks, or experiments that add nodes before
    the one route computation. *)

(** A two-level regional hierarchy (E19): [regions] regional routers on
    a backbone, each a home agent for its own [mobiles_per_region] mobile
    hosts and a regional agent for visitors, with [cells] wireless cells
    per region behind dedicated foreign-agent routers.  Every foreign
    agent is provisioned with its regional parent; whether the connect
    handshake advertises it is decided by [Config.hierarchy], so one
    wiring serves both flat and hierarchical runs. *)
type region = {
  rg_topo : Net.Topology.t;
  rg_backbone : Net.Lan.t;
  rg_regionals : Mhrp.Agent.t array;
      (** regional router of region r: home + regional agent *)
  rg_backups : Mhrp.Agent.t array;
      (** standby regional agent of region r ([backups:true]), empty
          otherwise.  Primary and standby mirror bindings to each other
          ([Control.Region_sync]); foreign agents advertise the standby
          at connect time as the mobiles' failover target. *)
  rg_fas : Mhrp.Agent.t array array;  (** [rg_fas.(r).(c)]: cell FA *)
  rg_cells : Net.Lan.t array array;
  rg_homes : Net.Lan.t array;
  rg_mobiles : Mhrp.Agent.t array;
      (** region r's mobiles at indices [r * mobiles_per_region ..] *)
  rg_senders : Mhrp.Agent.t array;
}

val regions :
  ?config:Mhrp.Config.t -> ?seed:int -> ?backups:bool -> regions:int ->
  cells:int -> mobiles_per_region:int -> correspondents:int -> unit ->
  region

(** A chain of [n] routers r0 - r1 - ... - r(n-1), each with a stub LAN,
    used to build long tunnels and cache-agent loops. *)
type chain = {
  ch_topo : Net.Topology.t;
  ch_routers : Mhrp.Agent.t array;
  ch_stubs : Net.Lan.t array;
  ch_links : Net.Lan.t array;
}

val chain : ?config:Mhrp.Config.t -> n:int -> unit -> chain
