(** A cache agent's location cache (Sections 2 and 4.3).

    Maps a mobile host's (home) address to the address of its
    currently-believed foreign agent.  Finite capacity with LRU
    replacement — the paper leaves the policy to the implementation
    ("maintained by any local cache replacement policy") and suggests
    reusing the host-specific redirect table with LRU timestamps
    (Section 4.3).  Entries may be stale; the protocol corrects them. *)

type t

val create : capacity:int -> t
(** Raises [Invalid_argument] if [capacity <= 0]. *)

val size : t -> int

val find : t -> Ipv4.Addr.t -> Ipv4.Addr.t option
(** Refreshes the entry's recency on hit. *)

val peek : t -> Ipv4.Addr.t -> Ipv4.Addr.t option
(** Like [find] without touching recency (for assertions). *)

val insert : t -> mobile:Ipv4.Addr.t -> foreign_agent:Ipv4.Addr.t -> unit
(** Add or overwrite; evicts the least-recently-used entry when full.
    Raises [Invalid_argument] if [foreign_agent] is zero — a zero update
    means {!delete}. *)

val delete : t -> Ipv4.Addr.t -> unit

val update : t -> mobile:Ipv4.Addr.t -> foreign_agent:Ipv4.Addr.t -> unit
(** Apply a location update message: insert, or delete when the reported
    foreign agent is zero ("the host is at home"). *)

val clear : t -> unit
val entries : t -> (Ipv4.Addr.t * Ipv4.Addr.t) list
(** (mobile, foreign agent), most recently used first. *)

val hits : t -> int
val misses : t -> int
val evictions : t -> int

val state_bytes : t -> int
(** Approximate memory footprint (entries × 16 bytes: two addresses, a
    type tag and a timestamp — the Section 4.3 table entry), reported by
    the scalability experiment. *)

val footprint_bytes : t -> int
(** Actual heap bytes pinned by the backing {!Ipv4.Int_table} (flat
    arrays plus headers) — the implementation-level counterpart of the
    modeled {!state_bytes}, gated by the E19 scale sweep. *)
