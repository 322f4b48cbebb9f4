(* Monotonic nanoseconds.  Reading the clock allocates nothing, so a
   timed span does not perturb the allocation count it sits beside. *)

let now () = Int64.to_int (Monotonic_clock.now ())
let since t0 = float_of_int (now () - t0) *. 1e-9
