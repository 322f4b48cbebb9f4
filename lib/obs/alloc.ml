type t = {
  minor_words : float;
  major_words : float;
  promoted_words : float;
}

(* On OCaml 5 [Gc.quick_stat]'s allocation counters are only flushed at
   minor collections, so an unflushed delta is quantized to whole minor
   heaps (~256k words) — near-zero measurements would read 0 or one
   full heap depending on where the young pointer happened to start.
   Forcing a minor collection on each side makes the delta word-exact. *)
let measure f =
  Gc.minor ();
  let s0 = Gc.quick_stat () in
  let r = f () in
  Gc.minor ();
  let s1 = Gc.quick_stat () in
  ( r,
    { minor_words = s1.Gc.minor_words -. s0.Gc.minor_words;
      major_words = s1.Gc.major_words -. s0.Gc.major_words;
      promoted_words = s1.Gc.promoted_words -. s0.Gc.promoted_words } )

let per t n =
  if n <= 0 then invalid_arg "Alloc.per: n <= 0";
  let d = float_of_int n in
  { minor_words = t.minor_words /. d;
    major_words = t.major_words /. d;
    promoted_words = t.promoted_words /. d }
