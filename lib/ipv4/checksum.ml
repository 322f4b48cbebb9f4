(* Hot-path variant: mandatory labels (each optional argument boxes a
   [Some] — measurable at per-packet rates) and unchecked reads, sound
   because the range is validated once at entry. *)
(* Unchecked unaligned 16-bit load (the ocplib-endian primitives): one
   memory access per summed word where [Bytes.get_uint16_be] spends a
   bounds check and two shifts.  Callers validate the range once.

   The words are summed in NATIVE byte order and the folded result is
   swapped once at the end: one's-complement addition commutes with
   byte swapping (RFC 1071 Section 2(B), "byte order independence"), so
   this equals the big-endian word sum while spending zero per-word
   swaps on little-endian machines. *)
external get_16u : bytes -> int -> int = "%caml_bytes_get16u"
external bswap16 : int -> int = "%bswap16"

let to_be16 w = if Sys.big_endian then w else bswap16 w

let of_range buf ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length buf then
    invalid_arg "Checksum.of_range: range";
  let native_sum =
    if len = 20 then
      (* the option-free IPv4 header, by far the hottest length: ten
         words unrolled *)
      get_16u buf off + get_16u buf (off + 2) + get_16u buf (off + 4)
      + get_16u buf (off + 6) + get_16u buf (off + 8)
      + get_16u buf (off + 10) + get_16u buf (off + 12)
      + get_16u buf (off + 14) + get_16u buf (off + 16)
      + get_16u buf (off + 18)
    else begin
      let sum = ref 0 in
      let i = ref off in
      let stop = off + len in
      while !i + 1 < stop do
        sum := !sum + get_16u buf !i;
        i := !i + 2
      done;
      (* a trailing odd byte is padded with zero on its right in
         big-endian terms: in native order that's the byte itself on
         little-endian, the byte shifted on big-endian *)
      if !i < stop then begin
        let b = Char.code (Bytes.unsafe_get buf !i) in
        sum := !sum + (if Sys.big_endian then b lsl 8 else b)
      end;
      !sum
    end
  in
  (* fold carries, then swap the 16-bit result into big-endian terms *)
  let s = ref native_sum in
  while !s lsr 16 <> 0 do
    s := (!s land 0xFFFF) + (!s lsr 16)
  done;
  lnot (to_be16 !s) land 0xFFFF

let of_bytes ?(off = 0) ?len buf =
  let len = match len with Some l -> l | None -> Bytes.length buf - off in
  of_range buf ~off ~len

(* A correct buffer checksums to 0x0000 (complement of 0xFFFF). *)
let valid_range buf ~off ~len = of_range buf ~off ~len = 0
let valid ?(off = 0) ?len buf = of_bytes ~off ?len buf = 0

let set buf ~at ~off ~len =
  Bytes.set_uint16_be buf at 0;
  Bytes.set_uint16_be buf at (of_range buf ~off ~len)

(* Incremental update (RFC 1624 idea, done in plain arithmetic): the
   stored checksum is ~S where S is the folded one's-complement sum of
   the covered range, and [of_bytes]'s fold loop maps any positive sum
   onto the representative in [1, 0xFFFF] (multiples of 0xFFFF land on
   0xFFFF, never 0).  Replacing one 16-bit word changes the sum by
   [new_word - old_word]; re-normalising onto the same representative
   reproduces [set]'s output bit for bit.  The equivalence needs the
   covered range to sum to something positive both before and after the
   change — always true of an IPv4 header, whose first byte is 0x45 —
   and is property-tested against the full recompute in
   test_properties.ml. *)
let update buf ~at ~old_word ~new_word =
  if old_word < 0 || old_word > 0xFFFF || new_word < 0 || new_word > 0xFFFF
  then invalid_arg "Checksum.update: word out of range";
  let stored = Bytes.get_uint16_be buf at in
  let s = 0xFFFF - stored in
  let s = s - old_word + new_word in
  (* representative of s mod 0xFFFF in [1, 0xFFFF]; s is in
     [1 - 0xFFFF, 2 * 0xFFFF] here so two conditional folds suffice *)
  let s = if s <= 0 then s + 0xFFFF else s in
  let s = if s > 0xFFFF then s - 0xFFFF else s in
  Bytes.set_uint16_be buf at (0xFFFF - s)
