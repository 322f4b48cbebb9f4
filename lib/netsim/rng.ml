type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z0 =
  let z = Int64.mul (Int64.logxor z0 (Int64.shift_right_logical z0 30))
            0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
            0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = seed }
let of_int seed = create (Int64.of_int seed)

let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t = create (next_int64 t)
let copy t = { state = t.state }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound <= 0";
  (* Rejection-free for our purposes: take the high bits modulo bound; the
     bias is < bound / 2^63, negligible for simulation workloads. *)
  let v = Int64.shift_right_logical (next_int64 t) 1 in
  Int64.to_int (Int64.rem v (Int64.of_int bound))

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: hi < lo";
  lo + int t (hi - lo + 1)

let float t bound =
  if bound <= 0.0 then invalid_arg "Rng.float: bound <= 0";
  let v = Int64.shift_right_logical (next_int64 t) 11 in
  (* 53 random bits -> [0, 1) *)
  Int64.to_float v /. 9007199254740992.0 *. bound

let exponential t mean =
  if mean <= 0.0 then invalid_arg "Rng.exponential: mean <= 0";
  let u = float t 1.0 in
  (* avoid log 0 *)
  let u = if u <= 0.0 then 1e-12 else u in
  -.mean *. log u

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
