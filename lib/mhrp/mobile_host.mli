(** Mobile-host state machine (Section 3).

    A mobile host always uses only its home address.  It is [At_home],
    [Searching] for an agent after a link-level move, mid-registration,
    [Registered] with a foreign agent (possibly itself, when serving as its
    own foreign agent with a temporary tunnel endpoint, Section 2), or
    explicitly [Disconnected].  Pure state; {!Agent} drives transitions. *)

type phase =
  | At_home
  | Searching
  | Registering of Ipv4.Addr.t  (** Connected to this FA, awaiting HA. *)
  | Registered of Ipv4.Addr.t  (** Foreign agent address. *)
  | Disconnected

type t = {
  home : Ipv4.Addr.t;
  home_agent : Ipv4.Addr.t;
  mutable phase : phase;
  mutable old_fa : Ipv4.Addr.t option;
      (** Foreign agent to notify of the (implicit) disconnect once the
          new registration completes (Section 3). *)
  mutable own_fa_temp : Ipv4.Addr.t option;
      (** Temporary address while serving as own foreign agent. *)
  mutable moves : int;
  mutable registrations_completed : int;
  mutable last_advert : Netsim.Time.t;
      (** When the current agent (foreign or home) was last heard
          advertising — the Section 3 implicit-disconnection clock. *)
  mutable implicit_disconnects : int;
  connect : Exchange.t;
      (** The [Fa_connect] exchange: acknowledged when the registration
          completes, abandoned by the next move. *)
  home_reg : Exchange.t;
      (** Registration requests to the home agent, acknowledged by its
          reply. *)
  mutable regional : Ipv4.Addr.t option;
      (** The regional agent the host is registered through
          ([Config.hierarchy]).  While the next handoff stays under the
          same regional agent, the home agent is not contacted. *)
  mutable regional_backup : Ipv4.Addr.t option;
      (** The standby regional agent advertised at connect time
          ([Fa_connect_ack_r]); the failover target when the primary stops
          acknowledging regional registrations. *)
  region_reg : Exchange.t;
      (** Registrations with the regional agent, acknowledged by
          [Reg_region_ack]. *)
}

val create : home:Ipv4.Addr.t -> home_agent:Ipv4.Addr.t -> t
val current_fa : t -> Ipv4.Addr.t option
(** The registered foreign agent, if visiting. *)

val is_home : t -> bool
val pp_phase : Format.formatter -> phase -> unit
