type t = int

let zero = 0

let of_us n =
  if n < 0 then invalid_arg "Time.of_us: negative" else n

let of_ms n = of_us (n * 1_000)

let of_sec s =
  if s < 0.0 then invalid_arg "Time.of_sec: negative"
  else int_of_float (s *. 1e6 +. 0.5)

let to_us t = t
let to_sec t = float_of_int t /. 1e6

let add a b = a + b

let diff later earlier =
  if later < earlier then invalid_arg "Time.diff: negative interval"
  else later - earlier

let compare = Int.compare
let ( < ) (a : t) b = Stdlib.( < ) a b
let ( <= ) (a : t) b = Stdlib.( <= ) a b
let ( > ) (a : t) b = Stdlib.( > ) a b
let ( >= ) (a : t) b = Stdlib.( >= ) a b

let pp ppf t = Format.fprintf ppf "%d.%06ds" (t / 1_000_000) (t mod 1_000_000)
let to_string t = Format.asprintf "%a" pp t
