(** Home-agent state: the location database (Section 2).

    For every mobile host whose home network this agent serves, the
    database records the address of its current foreign agent — zero while
    the host is at home.  The paper requires the database to be recorded on
    disk "to survive any crashes and subsequent reboots"; [persistent]
    simulates that property.  Pure state; the protocol driving it lives in
    {!Agent}. *)

type t

val create : ?persistent:bool -> unit -> t

val add_mobile : t -> Ipv4.Addr.t -> unit
(** Begin serving a mobile host (initially at home). *)

val serves : t -> Ipv4.Addr.t -> bool

val register : t -> mobile:Ipv4.Addr.t -> foreign_agent:Ipv4.Addr.t -> unit
(** Record a registration; zero foreign agent = returned home.
    Raises [Invalid_argument] for a mobile host this agent does not
    serve. *)

val location : t -> Ipv4.Addr.t -> Ipv4.Addr.t option
(** Current foreign agent; [Some zero] when at home; [None] when not
    served here. *)

val is_away : t -> Ipv4.Addr.t -> bool
val away_mobiles : t -> Ipv4.Addr.t list
val reboot : t -> unit
(** Clears the database unless persistent. *)

val state_bytes : t -> int
(** 8 bytes per record: two addresses — the paper's "amount of state ...
    is small" claim, measured in experiment E6. *)

val footprint_bytes : t -> int
(** Actual heap bytes pinned by the backing {!Ipv4.Int_table}, gated by
    the E19 scale sweep. *)
