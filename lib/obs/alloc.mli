(** GC allocation accounting around a measured section.

    Wraps [Gc.quick_stat] deltas so experiments can report words
    allocated per operation — the allocation-regression CI lane gates
    these (with a [Pct] tolerance: codegen differs slightly across
    compiler versions) where wall-clock numbers would flake.  Word
    counts from [quick_stat] are exact, not sampled, and cost no heap
    traversal. *)

type t = {
  minor_words : float;  (** Words allocated in the minor heap. *)
  major_words : float;
      (** Words allocated in the major heap, including promotions. *)
  promoted_words : float;  (** Words surviving a minor collection. *)
}

val measure : (unit -> 'a) -> 'a * t
(** [measure f] runs [f] and returns its result with the allocation
    delta across the call.  A minor collection is forced on each side
    of [f]: OCaml 5's [quick_stat] counters are only flushed at minor
    collections, and without the flush a delta is quantized to whole
    minor heaps.  The measurement itself allocates a few words (the
    stat records and this pair) — negligible against any loop worth
    gating, but don't measure a no-op. *)

val per : t -> int -> t
(** [per t n] divides every field by [n] operations.  Raises
    [Invalid_argument] when [n <= 0]. *)
