(* Open-addressed hash table from non-negative int keys (packed [Addr]
   keys) to int payloads, backed by two flat int arrays.

   The generic [Hashtbl] costs ~7 words per binding for an int->record
   map (bucket cons, boxed entry, header words); at a million mobile
   hosts that is the difference between fitting in cache and paging.
   This table stores a binding in exactly two array slots — 16 bytes at
   a 100% load, ~21 bytes at the 3/4 load bound — with no per-binding
   allocation at all on the steady state ([replace] of an existing key,
   [find], [remove] allocate nothing).

   Linear probing over a power-of-two capacity; the empty slot is keyed
   by -1, which is why keys must be non-negative (packed 32-bit
   addresses always are).  Deletion uses the classical backward-shift
   repair instead of tombstones, so a long-lived table never degrades:
   the probe-sequence invariant is restored on every removal.

   The slot permutation is a pure function of the insertion/removal
   history, so iteration order — like [Hashtbl]'s — is deterministic
   across runs and domains; callers that expose order sort, exactly as
   they did over [Hashtbl.fold]. *)

type t = {
  mutable keys : int array;  (* -1 = empty *)
  mutable vals : int array;
  mutable mask : int;  (* capacity - 1; capacity is a power of two *)
  mutable len : int;
}

let empty_key = -1

(* Fibonacci multiplicative hash: full-width odd multiply, fold the high
   bits down so the low [log2 capacity] bits used by the mask are well
   mixed even for sequential address keys. *)
let hash k =
  let h = k * 0x9E3779B97F4A7C1 in
  h lxor (h lsr 29)

let rec pow2_at_least n c = if c >= n then c else pow2_at_least n (c * 2)

let create ?(capacity = 8) () =
  if capacity < 0 then invalid_arg "Int_table.create: capacity";
  let cap = pow2_at_least (max 8 capacity) 8 in
  { keys = Array.make cap empty_key; vals = Array.make cap 0;
    mask = cap - 1; len = 0 }

let length t = t.len
let capacity t = t.mask + 1

(* keys + vals arrays, one word per slot each, plus two headers *)
let footprint_bytes t = (((t.mask + 1) * 2) + 2) * 8

(* The probe loops are top-level functions taking everything they read
   as arguments: a local [let rec] that captured [keys], [mask] and [k]
   would heap-allocate a closure on every call (ocamlopt without
   flambda), and every cache, binding table and compiled route calls
   [slot_of] per packet. *)
let rec probe keys mask k i =
  let ki = Array.unsafe_get keys i in
  if ki = k then i
  else if ki = empty_key then -1
  else probe keys mask k ((i + 1) land mask)

let slot_of t k = probe t.keys t.mask k (hash k land t.mask)

let mem t k = k >= 0 && slot_of t k >= 0

let find t k ~default =
  if k < 0 then default
  else
    let i = slot_of t k in
    if i < 0 then default else Array.unsafe_get t.vals i

let find_opt t k =
  if k < 0 then None
  else
    let i = slot_of t k in
    if i < 0 then None else Some (Array.unsafe_get t.vals i)

let rec free_slot keys mask i =
  if Array.unsafe_get keys i = empty_key then i
  else free_slot keys mask ((i + 1) land mask)

let insert_fresh t k v =
  (* precondition: k absent, table not full *)
  let i = free_slot t.keys t.mask (hash k land t.mask) in
  Array.unsafe_set t.keys i k;
  Array.unsafe_set t.vals i v

let grow t =
  let old_keys = t.keys and old_vals = t.vals in
  let cap = (t.mask + 1) * 2 in
  t.keys <- Array.make cap empty_key;
  t.vals <- Array.make cap 0;
  t.mask <- cap - 1;
  Array.iteri
    (fun i k -> if k <> empty_key then insert_fresh t k old_vals.(i))
    old_keys

let replace t k v =
  if k < 0 then invalid_arg "Int_table.replace: negative key";
  let i = slot_of t k in
  if i >= 0 then t.vals.(i) <- v
  else begin
    (* grow at 3/4 load so probe chains stay short *)
    if (t.len + 1) * 4 > (t.mask + 1) * 3 then grow t;
    insert_fresh t k v;
    t.len <- t.len + 1
  end

(* Backward-shift repair: walk the cluster after the hole; any element
   whose home slot lies cyclically at or before the hole moves into it,
   re-opening the hole further down. *)
let rec repair keys vals mask hole j =
  let j = j land mask in
  let kj = Array.unsafe_get keys j in
  if kj = empty_key then Array.unsafe_set keys hole empty_key
  else
    let home = hash kj land mask in
    let movable =
      if j > hole then home <= hole || home > j
      else home <= hole && home > j
    in
    if movable then begin
      Array.unsafe_set keys hole kj;
      Array.unsafe_set vals hole (Array.unsafe_get vals j);
      repair keys vals mask j (j + 1)
    end
    else repair keys vals mask hole (j + 1)

let remove t k =
  if k >= 0 then begin
    let i = slot_of t k in
    if i >= 0 then begin
      t.len <- t.len - 1;
      repair t.keys t.vals t.mask i (i + 1)
    end
  end

let reset t =
  Array.fill t.keys 0 (t.mask + 1) empty_key;
  t.len <- 0

let iter f t =
  let keys = t.keys in
  for i = 0 to t.mask do
    let k = Array.unsafe_get keys i in
    if k <> empty_key then f k (Array.unsafe_get t.vals i)
  done

let fold f t init =
  let acc = ref init in
  iter (fun k v -> acc := f k v !acc) t;
  !acc
