(** Link-layer frames carried on a {!Lan}. *)

type content =
  | Ip of bytes  (** A serialized {!Ipv4.Packet}. *)
  | Arp of Arp.t

type t = {
  src : Mac.t;
  dst : Mac.t;  (** May be {!Mac.broadcast}. *)
  content : content;
}

val ip : src:Mac.t -> dst:Mac.t -> bytes -> t
val arp : src:Mac.t -> dst:Mac.t -> Arp.t -> t

val wire_length : t -> int
(** Payload bytes plus the 18-byte Ethernet header/FCS, for byte and
    serialization-time accounting. *)
