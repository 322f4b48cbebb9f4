(* Backed by a compact int-keyed table ({!Ipv4.Int_table}): the key is
   the packed mobile address, the value packs the foreign agent into the
   low 32 bits and the LRU tick into the bits above.  A cache entry is
   two unboxed words instead of a boxed record behind a generic
   [Hashtbl] bucket — the difference between ~21 and ~150 bytes per
   tracked mobile host at million-host scale (E19).

   Ticks are unique (monotonically increasing, one per touch), so the
   LRU victim and the [entries] order are fully determined by the
   operation history — the re-backing is observationally identical to
   the boxed representation. *)

type t = {
  capacity : int;
  tbl : Ipv4.Int_table.t;  (* packed mobile -> (used lsl 32) lor fa *)
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let fa_of v = v land 0xFFFF_FFFF
let used_of v = v lsr 32
let pack ~used ~fa = (used lsl 32) lor fa

(* 30 tick bits fit above the 32 address bits in a 63-bit int.  On the
   (never yet reached) rollover, rank-compress the ticks: relative
   recency — the only thing LRU reads — is preserved exactly. *)
let max_tick = (1 lsl 30) - 1

let create ~capacity =
  if capacity <= 0 then invalid_arg "Location_cache.create: capacity";
  { capacity;
    tbl = Ipv4.Int_table.create ~capacity:(min capacity 4096) ();
    tick = 0; hits = 0; misses = 0; evictions = 0 }

let size t = Ipv4.Int_table.length t.tbl

let renormalize t =
  let pairs = Ipv4.Int_table.fold (fun k v acc -> (k, v) :: acc) t.tbl [] in
  let pairs =
    List.sort (fun (_, a) (_, b) -> Int.compare (used_of a) (used_of b)) pairs
  in
  List.iteri
    (fun i (k, v) ->
       Ipv4.Int_table.replace t.tbl k (pack ~used:(i + 1) ~fa:(fa_of v)))
    pairs;
  t.tick <- List.length pairs

let next_tick t =
  if t.tick >= max_tick then renormalize t;
  t.tick <- t.tick + 1;
  t.tick

let find t mobile =
  let k = Ipv4.Addr.to_key mobile in
  match Ipv4.Int_table.find t.tbl k ~default:(-1) with
  | -1 ->
    t.misses <- t.misses + 1;
    None
  | v ->
    Ipv4.Int_table.replace t.tbl k (pack ~used:(next_tick t) ~fa:(fa_of v));
    t.hits <- t.hits + 1;
    Some (Ipv4.Addr.of_key (fa_of v))

let peek t mobile =
  match Ipv4.Int_table.find t.tbl (Ipv4.Addr.to_key mobile) ~default:(-1) with
  | -1 -> None
  | v -> Some (Ipv4.Addr.of_key (fa_of v))

let evict_lru t =
  let victim = ref (-1) and victim_used = ref max_int in
  Ipv4.Int_table.iter
    (fun k v ->
       let used = used_of v in
       if used < !victim_used then begin
         victim := k;
         victim_used := used
       end)
    t.tbl;
  if !victim >= 0 then begin
    Ipv4.Int_table.remove t.tbl !victim;
    t.evictions <- t.evictions + 1
  end

let insert t ~mobile ~foreign_agent =
  if Ipv4.Addr.is_zero foreign_agent then
    invalid_arg "Location_cache.insert: zero foreign agent (use delete)";
  let k = Ipv4.Addr.to_key mobile in
  if
    (not (Ipv4.Int_table.mem t.tbl k))
    && Ipv4.Int_table.length t.tbl >= t.capacity
  then evict_lru t;
  Ipv4.Int_table.replace t.tbl k
    (pack ~used:(next_tick t) ~fa:(Ipv4.Addr.to_key foreign_agent))

let delete t mobile = Ipv4.Int_table.remove t.tbl (Ipv4.Addr.to_key mobile)

let update t ~mobile ~foreign_agent =
  if Ipv4.Addr.is_zero foreign_agent then delete t mobile
  else insert t ~mobile ~foreign_agent

let clear t = Ipv4.Int_table.reset t.tbl

let entries t =
  Ipv4.Int_table.fold (fun k v acc -> (k, v) :: acc) t.tbl []
  |> List.sort (fun (_, a) (_, b) -> Int.compare (used_of b) (used_of a))
  |> List.map (fun (k, v) ->
      (Ipv4.Addr.of_key k, Ipv4.Addr.of_key (fa_of v)))

let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions
let state_bytes t = 16 * Ipv4.Int_table.length t.tbl
let footprint_bytes t = Ipv4.Int_table.footprint_bytes t.tbl
