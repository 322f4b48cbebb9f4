(** RFC 1071 Internet checksum: 16-bit one's-complement sum. *)

val of_bytes : ?off:int -> ?len:int -> bytes -> int
(** Checksum of a byte range (whole buffer by default).  A trailing odd
    byte is padded with zero, per the RFC. *)

val valid : ?off:int -> ?len:int -> bytes -> bool
(** A buffer whose stored checksum field is correct sums to zero. *)

val valid_range : bytes -> off:int -> len:int -> bool
(** {!valid} with mandatory labels: every optional argument boxes a
    [Some], which the per-packet forwarding fast path can't afford.
    Same range validation, same result. *)

val set : bytes -> at:int -> off:int -> len:int -> unit
(** [set buf ~at ~off ~len] zeroes the 16-bit field at [at], computes the
    checksum of [\[off, off+len)] and stores it at [at] (big-endian). *)

val update : bytes -> at:int -> old_word:int -> new_word:int -> unit
(** Incrementally patch the checksum stored at [at] after one 16-bit
    big-endian word of the covered range changed from [old_word] to
    [new_word] — the router fast path's TTL rewrite, RFC 1624.  Produces
    bit-for-bit what a full {!set} over the modified range would,
    provided the range's one's-complement sum is positive before and
    after the change (always true of an IPv4 header).  The caller writes
    the new word itself; this touches only the checksum field.  Raises
    [Invalid_argument] if either word is outside [0, 0xFFFF]. *)
