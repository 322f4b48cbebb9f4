(** Per-node IP routing tables with longest-prefix match.

    Host-specific (/32) routes are ordinary entries that happen to be
    longest, which is exactly how the paper's optional "host-specific route"
    mode (Section 3) integrates with standard routing. *)

type target =
  | Direct of int
      (** Destination is on the LAN of the interface with this index. *)
  | Via of Ipv4.Addr.t  (** Forward through this gateway address. *)

type entry = {
  prefix : Ipv4.Addr.Prefix.t;
  target : target;
}

type t

val empty : t
val add : t -> Ipv4.Addr.Prefix.t -> target -> t
(** Replaces any existing entry with the same prefix.  One pass: the
    entries at least as long as the new one are copied, the shorter
    ones shared with [t]. *)

val remove : t -> Ipv4.Addr.Prefix.t -> t
val add_host : t -> Ipv4.Addr.t -> target -> t
(** A /32 entry. *)

val remove_host : t -> Ipv4.Addr.t -> t
val add_default : t -> target -> t
(** A /0 entry. *)

val bulk : (Ipv4.Addr.Prefix.t * target) list -> t
(** The table [List.fold_left (fun t (p, tg) -> add t p tg) empty pairs],
    built in O(n log n) instead of O(n²) — a whole table at once, such
    as a link-state router's SPF result. *)

val of_entries : entry list -> t
(** The table of exactly these entries, which must already be in table
    order: descending prefix length, no prefix twice (not checked).  The
    route computation writes every node's entries in that order. *)

val find : t -> Ipv4.Addr.t -> target
(** Longest-prefix match.  Raises [Not_found] when no entry covers the
    address.  Allocates nothing: every routed packet runs it.  A table
    of at most 8 entries (a mobile host's) is searched in place; the
    first lookup of a larger one compiles it into int-keyed tables,
    kept with the table. *)

val lookup : t -> Ipv4.Addr.t -> target option
(** {!find} as an option: allocates only the [Some]. *)

val host_target : t -> Ipv4.Addr.t -> target option
(** The target of the table's /32 entry for this address, if it has
    one — whatever a shorter prefix would say.  Allocates only the
    [Some]. *)

val entries : t -> entry list
(** Longest prefix first. *)

val size : t -> int

val compiled_footprint_bytes : t -> int
(** Heap bytes pinned by the compiled lookup structures (the compact
    int-keyed tables plus the deduplicated target array; forces
    compilation, which a table of at most 8 entries does not keep) —
    the E19 scale sweep's per-router state accounting.  With
    prefix-aggregated routes, a region's mobile hosts collapse to one
    entry here regardless of population. *)
