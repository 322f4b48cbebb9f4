type target =
  | Direct of int
  | Via of Ipv4.Addr.t

type entry = {
  prefix : Ipv4.Addr.Prefix.t;
  target : target;
}

(* Entries sorted by descending prefix length, so lookup is the first
   match.  The persistent list keeps snapshots cheap (moving hosts).  A
   table of at most [scan_limit] entries — a mobile host's, which a move
   builds anew — is searched in place; a larger one, whose
   host-specific /32 routes grow with the mobile population, is
   consulted through a compiled form: compact int-keyed tables (two
   unboxed words per route instead of a boxed entry behind a generic
   [Hashtbl] bucket) — one exact-match table over the /32 entries
   (which, being longest, always win), then one table per remaining
   distinct prefix length, probed in descending-length order with the
   masked address as key.  Prefixes of equal length are disjoint or
   equal (and equal ones are deduplicated by [add]/[bulk]), so each
   per-length probe has at most one possible match and the first hit is
   the longest-prefix match.  Table values index a small array of
   deduplicated boxed targets: a region's worth of /32s pointing at one
   gateway shares a single boxed [Via].  Which form serves a table is
   decided on its first lookup — compiling is one O(n) pass, no dearer
   than the single list scan it replaces — and cached on the
   (immutable) table value. *)
type t = {
  entries : entry list;
  mutable form : form;
}

and form =
  | Unknown  (* not looked up since it was built *)
  | Scan  (* at most [scan_limit] entries: search the list *)
  | Compiled of compiled

and compiled = {
  hosts : Ipv4.Int_table.t;  (* packed addr -> index into [targets] *)
  lens : int array;  (* distinct lengths < 32, descending *)
  len_tbls : Ipv4.Int_table.t array;  (* masked packed addr -> index *)
  masks : int array;  (* Prefix.mask lens.(i), precomputed *)
  targets : target array;  (* deduplicated *)
}

(* A mobile host holds one or two routes and a router hundreds; a scan
   of eight entries costs no more than the compiled form's probes. *)
let scan_limit = 8

let empty = { entries = []; form = Unknown }

let of_entries entries = { entries; form = Unknown }

(* [entries] with [entry] in its place — after every entry at least as
   long, with any entry of the same prefix dropped — copying only the
   cells before that place and sharing the rest.  An equal prefix is
   as long, so it lies in the copied part. *)
let[@tail_mod_cons] rec insert entry = function
  | e :: rest
    when e.prefix.Ipv4.Addr.Prefix.len >= entry.prefix.Ipv4.Addr.Prefix.len ->
    if Ipv4.Addr.Prefix.equal e.prefix entry.prefix then insert entry rest
    else e :: insert entry rest
  | after -> entry :: after

let add t prefix target = of_entries (insert { prefix; target } t.entries)

let remove t prefix =
  of_entries
    (List.filter
       (fun e -> not (Ipv4.Addr.Prefix.equal e.prefix prefix))
       t.entries)

let add_host t addr target =
  add t (Ipv4.Addr.Prefix.make addr 32) target

let remove_host t addr = remove t (Ipv4.Addr.Prefix.make addr 32)

let default_prefix = Ipv4.Addr.Prefix.make Ipv4.Addr.zero 0
let add_default t target = add t default_prefix target

(* Bulk construction of a whole table (a link-state router's SPF
   result), which otherwise pays O(n) [add]s of O(n) each.  Reproduces
   the fold-of-[add] result exactly: a later duplicate prefix replaces
   the earlier one and sits at the position of its last insertion;
   entries are ordered by descending prefix length, insertion-ordered
   within a length. *)
let bulk pairs =
  let last : (Ipv4.Addr.Prefix.t, int * target) Hashtbl.t =
    Hashtbl.create 64
  in
  List.iteri
    (fun seq (prefix, target) -> Hashtbl.replace last prefix (seq, target))
    pairs;
  let survivors =
    Hashtbl.fold
      (fun prefix (seq, target) acc -> (seq, { prefix; target }) :: acc)
      last []
  in
  let in_insertion_order =
    List.sort (fun (a, _) (b, _) -> Int.compare a b) survivors
    |> List.map snd
  in
  of_entries
    (List.stable_sort
       (fun a b ->
          Int.compare b.prefix.Ipv4.Addr.Prefix.len
            a.prefix.Ipv4.Addr.Prefix.len)
       in_insertion_order)

let build entries =
  let target_idx : (target, int) Hashtbl.t = Hashtbl.create 16 in
  let rev_targets = ref [] and n_targets = ref 0 in
  let idx_of tg =
    match Hashtbl.find_opt target_idx tg with
    | Some i -> i
    | None ->
      let i = !n_targets in
      incr n_targets;
      Hashtbl.add target_idx tg i;
      rev_targets := tg :: !rev_targets;
      i
  in
  let hosts = Ipv4.Int_table.create () in
  (* entries are descending by length, so each sub-32 length forms a
     contiguous run; collect one table per run (ascending at the head
     while prepending, reversed to descending below). *)
  let rev_len_tbls = ref [] in
  List.iter
    (fun e ->
       let len = e.prefix.Ipv4.Addr.Prefix.len in
       let key = Ipv4.Addr.to_key e.prefix.Ipv4.Addr.Prefix.base in
       let idx = idx_of e.target in
       if len = 32 then Ipv4.Int_table.replace hosts key idx
       else
         let tbl =
           match !rev_len_tbls with
           | (l, tbl) :: _ when l = len -> tbl
           | _ ->
             let tbl = Ipv4.Int_table.create () in
             rev_len_tbls := (len, tbl) :: !rev_len_tbls;
             tbl
         in
         Ipv4.Int_table.replace tbl key idx)
    entries;
  let by_len = List.rev !rev_len_tbls in
  let lens = Array.of_list (List.map fst by_len) in
  { hosts; lens;
    len_tbls = Array.of_list (List.map snd by_len);
    masks = Array.map Ipv4.Addr.Prefix.mask lens;
    targets = Array.of_list (List.rev !rev_targets) }

let rec longer_than n = function
  | [] -> false
  | _ :: rest -> n = 0 || longer_than (n - 1) rest

(* The form serving [t], chosen on its first lookup: deciding walks at
   most [scan_limit + 1] cells, and a small table allocates nothing. *)
let form t =
  match t.form with
  | Unknown ->
    let f =
      if longer_than scan_limit t.entries then Compiled (build t.entries)
      else Scan
    in
    t.form <- f;
    f
  | f -> f

(* Index into [c.targets] of the longest sub-32 prefix holding [key],
   or -1.  Top-level and closure-free: a local [let rec] capturing [c]
   and [key] would allocate on every lookup. *)
let rec shorter_match c key i =
  if i >= Array.length c.lens then -1
  else
    match
      Ipv4.Int_table.find c.len_tbls.(i) (key land c.masks.(i)) ~default:(-1)
    with
    | -1 -> shorter_match c key (i + 1)
    | idx -> idx

(* The first match of the descending list: the longest. *)
let rec scan addr = function
  | [] -> raise Not_found
  | e :: rest ->
    if Ipv4.Addr.Prefix.mem addr e.prefix then e.target else scan addr rest

(* The /32 entries lead the list. *)
let rec scan_host addr = function
  | e :: rest when e.prefix.Ipv4.Addr.Prefix.len = 32 ->
    if Ipv4.Addr.equal e.prefix.Ipv4.Addr.Prefix.base addr then Some e.target
    else scan_host addr rest
  | _ -> None

(* Raising rather than returning an option keeps a hit allocation-free:
   every routed packet runs it.  [lookup] wraps it for callers that want
   the option. *)
let find t addr =
  match form t with
  | Compiled c ->
    let key = Ipv4.Addr.to_key addr in
    let idx =
      match Ipv4.Int_table.find c.hosts key ~default:(-1) with
      | -1 -> shorter_match c key 0
      | idx -> idx
    in
    if idx < 0 then raise Not_found else c.targets.(idx)
  | Unknown | Scan -> scan addr t.entries

let lookup t addr =
  match find t addr with tg -> Some tg | exception Not_found -> None

let host_target t addr =
  match form t with
  | Compiled c ->
    (match
       Ipv4.Int_table.find c.hosts (Ipv4.Addr.to_key addr) ~default:(-1)
     with
     | -1 -> None
     | idx -> Some c.targets.(idx))
  | Unknown | Scan -> scan_host addr t.entries

let entries t = t.entries
let size t = List.length t.entries

let compiled_footprint_bytes t =
  let c =
    match form t with Compiled c -> c | Unknown | Scan -> build t.entries
  in
  Array.fold_left
    (fun acc tbl -> acc + Ipv4.Int_table.footprint_bytes tbl)
    (Ipv4.Int_table.footprint_bytes c.hosts
     + ((Array.length c.targets + 1) * 8))
    c.len_tbls
