(* A 4-ary min-heap kept as parallel flat arrays, plus a slot table that
   owns the events.

   Heap position [i] holds an event's time [at.(i)], its schedule order
   [seq.(i)] and its handle [hd.(i)] — three int arrays, so sifting moves
   plain words and never runs the write barrier.  The event lives in the
   slot table, not the heap: a function [fn.(s)] and its two arguments
   [arg1.(s)] and [arg2.(s)] for the slot [s] named in the handle.  A
   call is stored as given; a payload [x] is the call [ignore2 x ()], so
   [take] returns [arg1] and [fire] runs whatever the slot holds.  A
   handle packs the slot with that slot's generation; taking or
   cancelling an event clears all three entries, bumps the generation
   and frees the slot, and firing one clears them once its call returns
   (see [fire]).  A heap entry whose handle's generation no longer
   matches its slot is dead: it is dropped when it reaches the top.  So
   [cancel] is O(1), a handle is an immediate int, and the queue never
   keeps a fired or cancelled function or argument reachable.

   The entries are [Obj.t]: a call's function and arguments have types
   of their own, known only where it is pushed.  Only [fire] applies a
   function, and only to a [calls t].  The type [calls] is abstract, so
   a value of it comes only from [take] or [pop] on such a queue, and
   the one use of it that reaches a slot again is a [push], as the
   harmless [ignore2] call.  So every function [fire] applies gets the
   arguments it was pushed with. *)

type handle = int

(* No slot is ever this large, and no generation this high: [is_live]
   rejects it on either count. *)
let no_handle = -1

let slot_bits = 30
let slot_mask = (1 lsl slot_bits) - 1
let gen_mask = max_int lsr slot_bits

type calls

type 'a t = {
  (* heap, indexed by position *)
  mutable at : int array;
  mutable seq : int array;
  mutable hd : int array;
  mutable size : int;  (* heap entries, dead ones included *)
  (* slot table, indexed by slot *)
  mutable gen : int array;
  mutable fn : Obj.t array;
  mutable arg1 : Obj.t array;
  mutable arg2 : Obj.t array;
  mutable free : int array;  (* stack of unused slots *)
  mutable nfree : int;
  mutable live : int;
  mutable next_seq : int;
}

(* Filler for empty slots.  An immediate, so [Array.make] never builds a
   flat float array; every access to the slot arrays is polymorphic, so
   a float argument is stored boxed like any other value. *)
let vacant = Obj.repr 0

let ignore2 _ _ = ()

let create () =
  { at = [||]; seq = [||]; hd = [||]; size = 0; gen = [||]; fn = [||];
    arg1 = [||]; arg2 = [||]; free = [||]; nfree = 0; live = 0;
    next_seq = 0 }

let is_empty q = q.live = 0
let length q = q.live

let extend a cap fill =
  let b = Array.make cap fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Live slots never outnumber heap entries, so one capacity serves both
   and a push only grows when the heap is full. *)
let grow q =
  let old = Array.length q.at in
  let cap = max 16 (2 * old) in
  q.at <- extend q.at cap 0;
  q.seq <- extend q.seq cap 0;
  q.hd <- extend q.hd cap 0;
  q.gen <- extend q.gen cap 0;
  q.fn <- extend q.fn cap vacant;
  q.arg1 <- extend q.arg1 cap vacant;
  q.arg2 <- extend q.arg2 cap vacant;
  q.free <- extend q.free cap 0;
  for s = cap - 1 downto old do
    q.free.(q.nfree) <- s;
    q.nfree <- q.nfree + 1
  done

let is_live q h =
  let s = h land slot_mask in
  s < Array.length q.gen && Array.unsafe_get q.gen s = h lsr slot_bits

let clear q s =
  Array.unsafe_set q.fn s vacant;
  Array.unsafe_set q.arg1 s vacant;
  Array.unsafe_set q.arg2 s vacant

(* A slot's generation moves on when an event takes the slot and again
   when it frees it, so a handle matches only while its event holds the
   slot, and a slot whose generation has not moved since it was freed
   has not been taken again. *)
let bump q s =
  let g = (q.gen.(s) + 1) land gen_mask in
  q.gen.(s) <- g;
  g

let free_slot q s =
  ignore (bump q s);
  q.free.(q.nfree) <- s;
  q.nfree <- q.nfree + 1;
  q.live <- q.live - 1

let release q s =
  clear q s;
  free_slot q s

(* Pushes only compare times: the new event's [seq] is the largest in the
   queue, so among equal times it belongs below every entry already
   there, and a strict [<] keeps it there. *)
let sift_up q i x_at x_seq x_hd =
  let at = q.at and seq = q.seq and hd = q.hd in
  let i = ref i and p = ref ((i - 1) lsr 2) in
  while !i > 0 && x_at < Array.unsafe_get at !p do
    Array.unsafe_set at !i (Array.unsafe_get at !p);
    Array.unsafe_set seq !i (Array.unsafe_get seq !p);
    Array.unsafe_set hd !i (Array.unsafe_get hd !p);
    i := !p;
    p := (!p - 1) lsr 2
  done;
  Array.unsafe_set at !i x_at;
  Array.unsafe_set seq !i x_seq;
  Array.unsafe_set hd !i x_hd

(* Fill the hole at [i] with [x], moving the smallest of up to four
   children up while it orders before [x] by (time, seq). *)
let sift_down q i x_at x_seq x_hd =
  let at = q.at and seq = q.seq and hd = q.hd and n = q.size in
  let i = ref i and sifting = ref true in
  while !sifting do
    let c = (4 * !i) + 1 in
    if c >= n then sifting := false
    else begin
      let m = ref c in
      let m_at = ref (Array.unsafe_get at c) in
      let m_seq = ref (Array.unsafe_get seq c) in
      for j = c + 1 to min (c + 3) (n - 1) do
        let j_at = Array.unsafe_get at j in
        if j_at < !m_at
        || (j_at = !m_at && Array.unsafe_get seq j < !m_seq)
        then begin
          m := j;
          m_at := j_at;
          m_seq := Array.unsafe_get seq j
        end
      done;
      if !m_at < x_at || (!m_at = x_at && !m_seq < x_seq) then begin
        Array.unsafe_set at !i !m_at;
        Array.unsafe_set seq !i !m_seq;
        Array.unsafe_set hd !i (Array.unsafe_get hd !m);
        i := !m
      end
      else sifting := false
    end
  done;
  Array.unsafe_set at !i x_at;
  Array.unsafe_set seq !i x_seq;
  Array.unsafe_set hd !i x_hd

let remove_top q =
  let n = q.size - 1 in
  q.size <- n;
  if n > 0 then sift_down q 0 q.at.(n) q.seq.(n) q.hd.(n)

let push_slot q at f a b =
  if q.size = Array.length q.at then grow q;
  q.nfree <- q.nfree - 1;
  let s = q.free.(q.nfree) in
  Array.unsafe_set q.fn s f;
  Array.unsafe_set q.arg1 s a;
  Array.unsafe_set q.arg2 s b;
  q.live <- q.live + 1;
  let h = (bump q s lsl slot_bits) lor s in
  let seq = q.next_seq in
  q.next_seq <- seq + 1;
  let i = q.size in
  q.size <- i + 1;
  sift_up q i at seq h;
  h

let push q at x = push_slot q at (Obj.repr ignore2) (Obj.repr x) vacant

let push_call q at f a b =
  push_slot q at (Obj.repr f) (Obj.repr a) (Obj.repr b)

let cancel q h =
  is_live q h
  && begin
    release q (h land slot_mask);
    true
  end

(* Drop dead entries off the top until a live one (or nothing) is left. *)
let rec settle q =
  if q.size > 0 && not (is_live q (Array.unsafe_get q.hd 0)) then begin
    remove_top q;
    settle q
  end

let min_time q =
  settle q;
  if q.size = 0 then max_int else Array.unsafe_get q.at 0

(* The slot of the earliest live event. *)
let top q =
  settle q;
  if q.size = 0 then invalid_arg "Event_queue.take: empty";
  Array.unsafe_get q.hd 0 land slot_mask

let take (q : 'a t) : 'a =
  let s = top q in
  let x = Array.unsafe_get q.arg1 s in
  release q s;
  remove_top q;
  Obj.obj x

(* The slot is freed before the call and cleared after it, unless the
   call took it again.  A handler usually schedules one successor, which
   takes the slot just freed (the free stack is last in, first out) and
   overwrites its entries: each entry written costs a write barrier, and
   such an event then pays three of them instead of six. *)
let fire (q : calls t) =
  let s = top q in
  let f : Obj.t -> Obj.t -> unit = Obj.obj (Array.unsafe_get q.fn s) in
  let a = Array.unsafe_get q.arg1 s and b = Array.unsafe_get q.arg2 s in
  free_slot q s;
  remove_top q;
  let freed = q.gen.(s) in
  match f a b with
  | () -> if q.gen.(s) = freed then clear q s
  | exception e ->
    if q.gen.(s) = freed then clear q s;
    raise e

let pop q =
  if is_empty q then None
  else
    let at = min_time q in
    Some (at, take q)

let peek_time q = if is_empty q then None else Some (min_time q)
