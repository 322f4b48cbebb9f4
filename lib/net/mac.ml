type t = int

let broadcast = 0xFFFF_FFFF_FFFF

let of_int n =
  if n < 0 || n > broadcast then invalid_arg "Mac.of_int: out of range"
  else if n = broadcast then invalid_arg "Mac.of_int: broadcast reserved"
  else n

let to_int t = t
let is_broadcast t = t = broadcast
let equal = Int.equal
let compare = Int.compare

let to_string t =
  Printf.sprintf "%02x:%02x:%02x:%02x:%02x:%02x"
    ((t lsr 40) land 0xFF) ((t lsr 32) land 0xFF) ((t lsr 24) land 0xFF)
    ((t lsr 16) land 0xFF) ((t lsr 8) land 0xFF) (t land 0xFF)

let pp ppf t = Format.pp_print_string ppf (to_string t)

module Alloc = struct
  type mac = t
  type t = { mutable next : int }

  let base = 0x0200_0000_0000

  let create () = { next = 1 }

  let fresh t =
    let m = base lor t.next in
    t.next <- t.next + 1;
    of_int m
end
