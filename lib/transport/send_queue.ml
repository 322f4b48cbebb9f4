(* A ring of chunks: [count] of them from slot [head] of [chunks], whose
   length is 0 or a power of two.  Every held chunk is non-empty, and
   an empty slot holds [Bytes.empty], so a released chunk is not kept
   reachable. *)
type t = {
  mutable chunks : bytes array;
  mutable head : int;
  mutable count : int;
  mutable first : int;  (* the sequence number of [chunks.(head)]'s byte 0 *)
  mutable end_seq : int;
}

let create ~seq =
  { chunks = [||]; head = 0; count = 0; first = seq; end_seq = seq }

let end_seq q = q.end_seq
let slot q i = (q.head + i) land (Array.length q.chunks - 1)

let grow q =
  let bigger = Array.make (max 4 (2 * Array.length q.chunks)) Bytes.empty in
  for i = 0 to q.count - 1 do
    bigger.(i) <- q.chunks.(slot q i)
  done;
  q.chunks <- bigger;
  q.head <- 0

let push q data =
  let len = Bytes.length data in
  if len > 0 then begin
    if q.count = Array.length q.chunks then grow q;
    q.chunks.(slot q q.count) <- data;
    q.count <- q.count + 1;
    q.end_seq <- q.end_seq + len
  end

let rec release q ~upto =
  if q.count > 0 then begin
    let next = q.first + Bytes.length q.chunks.(q.head) in
    if next <= upto then begin
      q.chunks.(q.head) <- Bytes.empty;
      q.head <- slot q 1;
      q.count <- q.count - 1;
      q.first <- next;
      release q ~upto
    end
  end

let clear q =
  q.chunks <- [||];
  q.head <- 0;
  q.count <- 0;
  q.first <- q.end_seq

let blit q ~seq dst ~off ~len =
  if seq < q.first || len < 0 || seq + len > q.end_seq then
    invalid_arg "Transport.Send_queue.blit: bytes not held";
  (* the chunk holding [seq]: it exists, as [seq < end_seq] when
     [len > 0] *)
  let i = ref 0 and start = ref q.first in
  while len > 0 && seq >= !start + Bytes.length q.chunks.(slot q !i) do
    start := !start + Bytes.length q.chunks.(slot q !i);
    incr i
  done;
  let pos = ref (seq - !start) and off = ref off and left = ref len in
  while !left > 0 do
    let chunk = q.chunks.(slot q !i) in
    let n = min !left (Bytes.length chunk - !pos) in
    Bytes.blit chunk !pos dst !off n;
    off := !off + n;
    left := !left - n;
    pos := 0;
    incr i
  done
