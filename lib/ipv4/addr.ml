type t = int

let max_addr = 0xFFFF_FFFF

let of_int n =
  if n < 0 || n > max_addr then invalid_arg "Addr.of_int: out of range"
  else n

let to_int t = t

(* The packed [Int_table] key is the address itself: [t] is already a
   non-negative tagged immediate, so packing is the identity and the
   range check of [of_int] is exactly the key-validity check. *)
let to_key t = t
let of_key k = of_int k

let of_octets a b c d =
  let check o = if o < 0 || o > 255 then invalid_arg "Addr.of_octets" in
  check a; check b; check c; check d;
  (a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d

let to_octets t =
  ((t lsr 24) land 0xFF, (t lsr 16) land 0xFF, (t lsr 8) land 0xFF,
   t land 0xFF)

(* The one wire codec for an address: two 16-bit big-endian halves, so
   neither direction boxes an int32. *)
let get buf i =
  (Bytes.get_uint16_be buf i lsl 16) lor Bytes.get_uint16_be buf (i + 2)

let set buf i t =
  Bytes.set_uint16_be buf i (t lsr 16);
  Bytes.set_uint16_be buf (i + 2) (t land 0xFFFF)

let of_string_opt s =
  match String.split_on_char '.' s with
  | [a; b; c; d] ->
    (try
       let parse x =
         if String.length x = 0 || String.length x > 3 then raise Exit;
         String.iter (fun ch -> if ch < '0' || ch > '9' then raise Exit) x;
         int_of_string x
       in
       let a = parse a and b = parse b and c = parse c and d = parse d in
       if a > 255 || b > 255 || c > 255 || d > 255 then None
       else Some (of_octets a b c d)
     with Exit | Failure _ -> None)
  | _ -> None

let of_string s =
  match of_string_opt s with
  | Some a -> a
  | None -> invalid_arg ("Addr.of_string: " ^ s)

let to_string t =
  let a, b, c, d = to_octets t in
  Printf.sprintf "%d.%d.%d.%d" a b c d

let pp ppf t = Format.pp_print_string ppf (to_string t)

let zero = 0
let broadcast = max_addr
let is_zero t = t = 0
let equal = Int.equal
let compare = Int.compare

module Prefix = struct
  type addr = t
  type t = { base : addr; len : int }

  let mask len =
    if len = 0 then 0 else (max_addr lsl (32 - len)) land max_addr

  let make a len =
    if len < 0 || len > 32 then invalid_arg "Prefix.make: bad length";
    { base = a land mask len; len }

  let of_string s =
    match String.index_opt s '/' with
    | None -> invalid_arg ("Prefix.of_string: missing /: " ^ s)
    | Some i ->
      let a = of_string (String.sub s 0 i) in
      let len =
        try int_of_string (String.sub s (i + 1) (String.length s - i - 1))
        with Failure _ -> invalid_arg ("Prefix.of_string: " ^ s)
      in
      make a len

  let mem a t = a land mask t.len = t.base
  let network_of a len = make a len

  let host t n =
    let host_bits = 32 - t.len in
    if host_bits < 63 && (n < 0 || (host_bits < 32 && n lsr host_bits <> 0))
    then invalid_arg "Prefix.host: host number out of range";
    t.base lor n

  let equal a b = a.base = b.base && a.len = b.len

  let compare a b =
    match Int.compare a.base b.base with
    | 0 -> Int.compare a.len b.len
    | c -> c

  let to_string t = Printf.sprintf "%s/%d" (to_string t.base) t.len
  let pp ppf t = Format.pp_print_string ppf (to_string t)
end

let net_len i len =
  if i < 0 || i > 0xFFFF then invalid_arg "Addr.net: network id out of range";
  Prefix.make (of_octets 10 (i lsr 8) (i land 0xFF) 0) len

let net i = net_len i 24

let host net_id host_id = Prefix.host (net net_id) host_id

let net_of t =
  let a, b, c, _ = to_octets t in
  if a <> 10 then None else Some ((b lsl 8) lor c)
