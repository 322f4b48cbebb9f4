(** MHRP control messages: registration and (dis)connect notifications.

    Section 3 specifies when a mobile host notifies its home agent and its
    old/new foreign agents but not the message encoding; we carry these
    notifications as UDP datagrams on a well-known port, the choice Mobile
    IP later standardised (port 434). *)

val port : int
(** 434. *)

type t =
  | Reg_request of { mobile : Ipv4.Addr.t; foreign_agent : Ipv4.Addr.t }
      (** Mobile host -> home agent.  A zero foreign agent means
          "reconnecting to my home network" (Section 3). *)
  | Reg_reply of { mobile : Ipv4.Addr.t; accepted : bool }
      (** Home agent -> mobile host. *)
  | Fa_connect of { mobile : Ipv4.Addr.t; mac : Net.Mac.t }
      (** Mobile host -> new foreign agent, carrying the link address the
          agent will deliver to (Section 2: "saved from the connection
          notification message"). *)
  | Fa_connect_ack of { mobile : Ipv4.Addr.t }
  | Fa_disconnect of { mobile : Ipv4.Addr.t; new_foreign_agent : Ipv4.Addr.t }
      (** Mobile host -> old foreign agent.  A non-zero new agent lets the
          old agent keep a forwarding-pointer cache entry (Section 2). *)
  | Ha_sync of { mobile : Ipv4.Addr.t; foreign_agent : Ipv4.Addr.t }
      (** Home agent -> replica home agent: mirror a registration so the
          replicas "provide a consistent view of the database"
          (Section 2).  Never re-propagated. *)
  | Ha_sync_ack of { mobile : Ipv4.Addr.t }
      (** Replica -> originating home agent: confirm a mirrored
          registration, enabling retransmission of lost syncs when the
          control plane runs reliably ([Config.reliable_control]). *)
  | Fa_connect_ack_r of
      { mobile : Ipv4.Addr.t;
        regional : Ipv4.Addr.t;
        backup : Ipv4.Addr.t }
      (** Foreign agent -> mobile host, replacing {!Fa_connect_ack} under
          [Config.hierarchy] when the agent has a regional parent: the
          connect is accepted and registrations should go through this
          regional agent.  [backup] is the standby regional agent the
          mobile should fail over to when the primary stops acking
          ([Ipv4.Addr.zero] when the region has none). *)
  | Reg_region of
      { mobile : Ipv4.Addr.t;
        foreign_agent : Ipv4.Addr.t;
        lifetime_s : int }
      (** Mobile host -> regional agent: bind the host to its current
          foreign agent within the region.  A zero foreign agent
          withdraws the binding (departure or return home).  This is the
          only registration an intra-region handoff sends — the home
          agent keeps pointing at the regional agent throughout.
          [lifetime_s]: the binding's soft-state lifetime, u16 seconds on
          the wire ({!encode} raises [Invalid_argument] outside it); 0
          means it never expires. *)
  | Reg_region_ack of { mobile : Ipv4.Addr.t }
      (** Regional agent -> mobile host. *)
  | Fa_visitor_miss of { mobile : Ipv4.Addr.t; foreign_agent : Ipv4.Addr.t }
      (** Foreign agent -> regional agent: a tunneled packet arrived for a
          mobile that is not on the visitor list and does not answer an
          ARP probe on the cell.  The regional agent drops its binding if
          it still points at this foreign agent — the hierarchical
          counterpart of the flat path's ICMP bounce invalidation. *)
  | Region_sync of
      { mobile : Ipv4.Addr.t;
        foreign_agent : Ipv4.Addr.t;
        lifetime_s : int }
      (** Primary regional agent -> backup: mirror a binding so the backup
          can take over on a crash.  A zero foreign agent mirrors a
          withdrawal.  Retransmitted under [Config.reliable_control] until
          {!Region_sync_ack} arrives. *)
  | Region_sync_ack of { mobile : Ipv4.Addr.t }
      (** Backup -> primary regional agent. *)
  | Region_forward of { mobile : Ipv4.Addr.t; new_regional : Ipv4.Addr.t }
      (** Mobile host -> old regional agent on an inter-region handoff:
          instead of withdrawing outright, leave a grace-period forwarding
          pointer ([Config.regional_grace]) so in-flight packets are
          re-tunneled to the new region instead of dropped. *)

val mobile : t -> Ipv4.Addr.t
(** The mobile host the message is about — the key under which its
    security association is looked up when authentication is on. *)

val length : t -> int
(** The message's length on the wire. *)

val write : t -> bytes -> off:int -> unit
(** Write the message's {!length} bytes at [off] — the sender's packet
    buffer, so a control message is written once.  Raises
    [Invalid_argument] for a lifetime that does not fit its 16 bits, or
    a range outside the buffer. *)

val encode : t -> bytes
(** {!write} into a fresh buffer of {!length} bytes. *)

val decode_at : bytes -> off:int -> len:int -> t option
(** Decode the message in the [len] bytes at [off]: [None] on malformed
    input or a range outside the buffer.  Total: never raises, whatever
    the bytes.  Trailing bytes beyond the message are ignored, so an
    appended authentication extension decodes cleanly. *)

val decode : bytes -> t option
(** {!decode_at} over the whole buffer. *)

val pp : Format.formatter -> t -> unit
