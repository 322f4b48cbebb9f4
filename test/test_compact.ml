(* Tests for the compact int-keyed state backing: the
   [Ipv4.Int_table] store, packed [Addr] keys and the re-compiled
   [Net.Route] lookup structures. *)

module Addr = Ipv4.Addr
module Int_table = Ipv4.Int_table
module Route = Net.Route

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let arb_addr =
  QCheck.map
    (fun n -> Addr.of_int (n land 0xFFFF_FFFF))
    QCheck.(int_bound 0x3FFFFFFF)

(* --- packed Addr keys --- *)

let addr_key_tests =
  [ qtest
      (QCheck.Test.make ~name:"packed key roundtrip (of_key . to_key = id)"
         ~count:1000 arb_addr (fun a ->
           Addr.to_key a >= 0 && Addr.equal a (Addr.of_key (Addr.to_key a))));
    Alcotest.test_case "of_key rejects non-keys" `Quick (fun () ->
        Alcotest.check_raises "negative"
          (Invalid_argument "Addr.of_int: out of range") (fun () ->
            ignore (Addr.of_key (-1)));
        Alcotest.check_raises "too wide"
          (Invalid_argument "Addr.of_int: out of range") (fun () ->
            ignore (Addr.of_key 0x1_0000_0000))) ]

(* --- Int_table vs a reference Hashtbl model --- *)

(* A random operation sequence applied to both the compact table and a
   reference [Hashtbl]; all observations must agree.  Keys are drawn
   from a small space so inserts, overwrites and removes all collide
   frequently and the backward-shift deletion repair gets exercised. *)
let table_agrees_with_model ops =
  let t = Int_table.create () in
  let m : (int, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (op, k, v) ->
       match op mod 3 with
       | 0 | 1 ->
         Int_table.replace t k v;
         Hashtbl.replace m k v
       | _ ->
         Int_table.remove t k;
         Hashtbl.remove m k)
    ops;
  let sorted_bindings fold t =
    fold (fun k v acc -> (k, v) :: acc) t []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  Int_table.length t = Hashtbl.length m
  && sorted_bindings Int_table.fold t
     = sorted_bindings (fun f t acc -> Hashtbl.fold f t acc) m
  && List.for_all
       (fun k ->
          Int_table.find_opt t k = Hashtbl.find_opt m k
          && Int_table.mem t k = Hashtbl.mem m k
          && Int_table.find t k ~default:(-1)
             = Option.value (Hashtbl.find_opt m k) ~default:(-1))
       (List.init 64 (fun i -> i))

let int_table_tests =
  [ qtest
      (QCheck.Test.make ~name:"int_table agrees with Hashtbl model"
         ~count:300
         QCheck.(small_list (triple small_nat (int_bound 63) small_nat))
         table_agrees_with_model);
    Alcotest.test_case "grows through many inserts" `Quick (fun () ->
        let t = Int_table.create () in
        for i = 0 to 9_999 do
          Int_table.replace t (i * 7) i
        done;
        check Alcotest.int "length" 10_000 (Int_table.length t);
        for i = 0 to 9_999 do
          if Int_table.find t (i * 7) ~default:(-1) <> i then
            Alcotest.failf "lost key %d" (i * 7)
        done;
        check Alcotest.bool "footprint sane" true
          (Int_table.footprint_bytes t >= 10_000 * 16));
    Alcotest.test_case "negative keys rejected / absent" `Quick (fun () ->
        let t = Int_table.create () in
        Alcotest.check_raises "replace"
          (Invalid_argument "Int_table.replace: negative key") (fun () ->
            Int_table.replace t (-5) 1);
        check Alcotest.bool "mem" false (Int_table.mem t (-5));
        check (Alcotest.option Alcotest.int) "find_opt" None
          (Int_table.find_opt t (-5)));
    Alcotest.test_case "reset keeps capacity, drops bindings" `Quick
      (fun () ->
         let t = Int_table.create () in
         for i = 0 to 999 do
           Int_table.replace t i i
         done;
         let cap = Int_table.capacity t in
         Int_table.reset t;
         check Alcotest.int "empty" 0 (Int_table.length t);
         check Alcotest.int "capacity kept" cap (Int_table.capacity t);
         check (Alcotest.option Alcotest.int) "gone" None
           (Int_table.find_opt t 3)) ]

(* --- compiled Route lookups vs the entry-list reference --- *)

let target_equal (a : Route.target) b = a = b

(* first match over the descending entry list: the semantics the
   compiled per-length tables must reproduce *)
let ref_lookup table addr =
  let rec go = function
    | [] -> None
    | (e : Route.entry) :: rest ->
      if Addr.Prefix.mem addr e.prefix then Some e.target else go rest
  in
  go (Route.entries table)

(* Random mix of /32 host routes, aggregates of random length, and a
   default route; the lookup — a scan of a table of at most 8 entries,
   the compiled form of a larger one — must equal the list scan for
   hosts inside, near, and far from every prefix. *)
let random_table pairs =
  let pairs =
    List.map
      (fun (net_id, len, gw) ->
         let len = 8 + (len mod 25) in
         (* /8../32 *)
         let p = Addr.Prefix.network_of (Addr.host (net_id mod 600) 1) len in
         (p, Route.Via (Addr.host (gw mod 600) 254)))
      pairs
  in
  Route.bulk ((Addr.Prefix.make Addr.zero 0, Route.Direct 0) :: pairs)

let lookup_equals_reference table probes =
  List.for_all
    (fun (net_id, host_id) ->
       let a = Addr.host (net_id mod 600) (host_id mod 256) in
       match Route.lookup table a, ref_lookup table a with
       | Some x, Some y -> target_equal x y
       | None, None -> true
       | _ -> false)
    probes

let compiled_equals_reference (pairs, probes) =
  lookup_equals_reference (random_table pairs) probes

(* The same check with [sizes] tallying the tables on each side of the
   limit. *)
let split_equals_reference sizes (pairs, probes) =
  let table = random_table pairs in
  let small, large = !sizes in
  sizes :=
    if Route.size table <= 8 then (small + 1, large) else (small, large + 1);
  lookup_equals_reference table probes

(* One region prefix vs one /32 per host must route identically for
   every host of the region — the aggregation the E19 topology relies
   on to collapse a region's mobile hosts to one entry. *)
let aggregate_equals_host_routes (net_id, gw_net) =
  let net_id = net_id mod 600 and gw_net = gw_net mod 600 in
  let gw = Route.Via (Addr.host gw_net 254) in
  let prefix = Addr.net net_id in
  let aggregated = Route.bulk [(prefix, gw)] in
  let per_host =
    Route.bulk
      (List.init 254 (fun i ->
           (Addr.Prefix.make (Addr.Prefix.host prefix (i + 1)) 32, gw)))
  in
  List.for_all
    (fun i ->
       let a = Addr.Prefix.host prefix (i + 1) in
       match Route.lookup aggregated a, Route.lookup per_host a with
       | Some x, Some y -> target_equal x y
       | _ -> false)
    (List.init 254 (fun i -> i))
  (* hosts outside the region must miss both tables *)
  && Route.lookup aggregated (Addr.host ((net_id + 1) mod 600) 9)
     = Route.lookup per_host (Addr.host ((net_id + 1) mod 600) 9)

(* The filter/partition [Route.add] over entry lists, kept as the
   reference for the one-pass insertion: drop the same prefix, then put
   the entry after every entry at least as long. *)
let reference_add entries prefix target =
  let rest =
    List.filter
      (fun (e : Route.entry) -> not (Addr.Prefix.equal e.prefix prefix))
      entries
  in
  let longer (e : Route.entry) =
    e.prefix.Addr.Prefix.len >= prefix.Addr.Prefix.len
  in
  let before, after = List.partition longer rest in
  before @ ({ Route.prefix; target } :: after)

let reference_remove entries prefix =
  List.filter
    (fun (e : Route.entry) -> not (Addr.Prefix.equal e.prefix prefix))
    entries

(* Any run of adds and removes, from an empty or a bulk-built table,
   gives the reference's entry list.  Prefixes come from a small space
   (/0, /16, /24, /32 over a few networks and hosts), so replacements
   of an existing prefix are frequent. *)
let add_equals_reference (start, ops) =
  let prefix_of (kind, net, host) =
    match kind mod 4 with
    | 0 -> Addr.Prefix.make Addr.zero 0
    | 1 -> Addr.net_len (net mod 4) 16
    | 2 -> Addr.net (net mod 4)
    | _ -> Addr.Prefix.make (Addr.host (net mod 4) (host mod 6)) 32
  in
  let target_of g =
    if g mod 2 = 0 then Route.Direct g else Route.Via (Addr.host 0 g)
  in
  let init = List.map (fun (p, g) -> (prefix_of p, target_of g)) start in
  let table = Route.bulk init in
  let table, entries =
    List.fold_left
      (fun (table, entries) (add, p, g) ->
         let prefix = prefix_of p in
         if add then
           (Route.add table prefix (target_of g),
            reference_add entries prefix (target_of g))
         else (Route.remove table prefix, reference_remove entries prefix))
      (table, Route.entries table)
      ops
  in
  Route.entries table = entries

let arb_prefix = QCheck.(triple small_nat small_nat small_nat)

let route_tests =
  [ qtest
      (QCheck.Test.make
         ~name:"compiled lookup = descending first-match reference"
         ~count:200
         QCheck.(
           pair
             (small_list (triple small_nat small_nat small_nat))
             (small_list (pair small_nat small_nat)))
         compiled_equals_reference);
    Alcotest.test_case "lookup = reference on both sides of the 8-entry limit"
      `Quick (fun () ->
        (* Up to 24 random routes plus the default: tables of 1 to 25
           entries (fewer after deduplication), searched in place up to
           8 and compiled beyond.  The fixed seed makes the split a
           known figure: 178 of the 400 tables are searched in place and
           222 compiled; each side must get at least 120. *)
        let sizes = ref (0, 0) in
        QCheck.Test.check_exn ~rand:(Random.State.make [| 25 |])
          (QCheck.Test.make ~name:"lookup = first-match reference" ~count:400
             QCheck.(
               pair
                 (list_of_size Gen.(int_range 0 24)
                    (triple small_nat small_nat small_nat))
                 (small_list (pair small_nat small_nat)))
             (split_equals_reference sizes));
        let small, large = !sizes in
        check Alcotest.bool
          (Printf.sprintf "%d tables of at most 8 entries, %d larger" small
             large)
          true
          (small >= 120 && large >= 120));
    qtest
      (QCheck.Test.make
         ~name:"one-pass add = filter/partition reference" ~count:500
         QCheck.(
           pair
             (small_list (pair arb_prefix small_nat))
             (small_list (triple bool arb_prefix small_nat)))
         add_equals_reference);
    qtest
      (QCheck.Test.make
         ~name:"prefix-aggregated lookup = per-/32 lookup" ~count:100
         QCheck.(pair small_nat small_nat)
         aggregate_equals_host_routes);
    Alcotest.test_case "aggregate is one compiled entry" `Quick (fun () ->
        let gw = Route.Via (Addr.host 9 254) in
        let aggregated = Route.bulk [(Addr.net 3, gw)] in
        let per_host =
          Route.bulk
            (List.init 254 (fun i ->
                 (Addr.Prefix.make (Addr.host 3 (i + 1)) 32, gw)))
        in
        check Alcotest.int "entries" 1 (Route.size aggregated);
        check Alcotest.bool "compiled footprint collapses" true
          (Route.compiled_footprint_bytes aggregated * 10
           < Route.compiled_footprint_bytes per_host)) ]

(* --- allocation: every forwarded packet runs these lookups --- *)

(* Exact minor-heap words allocated by [f ()]; [Gc.minor_words] returns
   an unboxed float, so the reading itself allocates nothing. *)
let minor_words_during f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let alloc_tests =
  [ Alcotest.test_case "find, mem and replace of a present key allocate 0"
      `Quick (fun () ->
        let t = Int_table.create () in
        for i = 0 to 999 do
          Int_table.replace t (i * 7919) i
        done;
        (* half the probed keys are present, half absent *)
        let words =
          minor_words_during (fun () ->
              for i = 0 to 1999 do
                let k = i * 7919 in
                ignore (Sys.opaque_identity (Int_table.find t k ~default:(-1)));
                ignore (Sys.opaque_identity (Int_table.mem t k))
              done;
              for i = 0 to 999 do
                Int_table.replace t (i * 7919) (i + 1)
              done)
        in
        check (Alcotest.float 0.0) "minor words" 0.0 words;
        check Alcotest.int "replaced" 1000
          (Int_table.find t (999 * 7919) ~default:0));
    Alcotest.test_case "route lookup allocates at most its Some" `Quick
      (fun () ->
         let table =
           Route.bulk
             [ (Addr.Prefix.make (Addr.host 3 7) 32, Route.Direct 0);
               (Addr.net 4, Route.Direct 1);
               (Addr.net_len 5 16, Route.Direct 2);
               (Addr.Prefix.make Addr.zero 0, Route.Direct 3) ]
         in
         (* one probe per entry: /32, /24, /16, default *)
         let probes =
           [| Addr.host 3 7; Addr.host 4 9; Addr.host 9 9;
              Addr.of_octets 192 168 1 1 |]
         in
         Array.iteri
           (fun i a ->
              check Alcotest.bool "longest match" true
                (Route.lookup table a = Some (Route.Direct i)))
           probes;
         let n = 4000 in
         let words =
           minor_words_during (fun () ->
               for i = 0 to n - 1 do
                 ignore
                   (Sys.opaque_identity (Route.lookup table probes.(i land 3)))
               done)
         in
         check Alcotest.bool
           (Printf.sprintf "%.0f words for %d lookups" words n)
           true
           (words <= 2.0 *. float_of_int n));
    Alcotest.test_case "route find allocates 0 words" `Quick (fun () ->
        (* [find] is the lookup every routed packet runs: a hit returns
           the target itself, a miss raises [Not_found]. *)
        let table =
          Route.bulk
            [ (Addr.Prefix.make (Addr.host 3 7) 32, Route.Direct 0);
              (Addr.net 4, Route.Via (Addr.host 4 1));
              (Addr.net_len 5 16, Route.Direct 2) ]
        in
        let probes = [| Addr.host 3 7; Addr.host 4 9; Addr.host 5 9 |] in
        Array.iter
          (fun a ->
             check Alcotest.bool "find = lookup" true
               (Some (Route.find table a) = Route.lookup table a))
          probes;
        Alcotest.check_raises "no covering entry" Not_found (fun () ->
            ignore (Route.find table (Addr.of_octets 192 168 1 1)));
        let words =
          minor_words_during (fun () ->
              for i = 0 to 2999 do
                ignore
                  (Sys.opaque_identity (Route.find table probes.(i mod 3)))
              done)
        in
        check (Alcotest.float 0.0) "minor words" 0.0 words);
    Alcotest.test_case "a table of at most 8 entries is searched in place"
      `Quick (fun () ->
        (* A mobile host's table is rebuilt at every move, and its first
           lookup used to compile it: about 200 words per handoff.  On a
           table of up to 8 entries [find] scans the list and allocates
           nothing, from the first lookup after an [add] on; [lookup]
           and [host_target] allocate only the [Some] they return. *)
        let direct = Route.Direct 0 and gw = Route.Via (Addr.host 4 1) in
        let mobile () =
          Route.add_default (Route.add Route.empty (Addr.net 4) direct) gw
        in
        let eight () =
          List.fold_left
            (fun t k ->
               Route.add_host t (Addr.host 4 (10 + k))
                 (Route.Via (Addr.host 4 k)))
            (mobile ()) (List.init 6 Fun.id)
        in
        (* on the LAN, off it, and the host route of [eight] *)
        let probes = [| Addr.host 4 9; Addr.host 9 9; Addr.host 4 12 |] in
        List.iter
          (fun (name, build, size) ->
             let t = build () in
             check Alcotest.int (name ^ " entries") size (Route.size t);
             let words =
               minor_words_during (fun () ->
                   for i = 0 to 2999 do
                     ignore
                       (Sys.opaque_identity (Route.find t probes.(i mod 3)))
                   done)
             in
             check (Alcotest.float 0.0) (name ^ ": find words") 0.0 words;
             let words =
               minor_words_during (fun () ->
                   for i = 0 to 2999 do
                     ignore
                       (Sys.opaque_identity (Route.lookup t probes.(i mod 3)));
                     ignore
                       (Sys.opaque_identity
                          (Route.host_target t probes.(i mod 3)))
                   done)
             in
             check Alcotest.bool
               (Printf.sprintf "%s: %.0f words for 6000 lookups" name words)
               true (words <= 2.0 *. 6000.0);
             Array.iter
               (fun a ->
                  check Alcotest.bool (name ^ ": lookup = reference") true
                    (Route.lookup t a = ref_lookup t a))
               probes)
          [ ("mobile", mobile, 2); ("eight", eight, 8) ];
        check Alcotest.bool "host route" true
          (Route.host_target (eight ()) (Addr.host 4 12)
           = Some (Route.Via (Addr.host 4 2))));
    Alcotest.test_case "add onto a 1-entry table: <= 15 words" `Quick
      (fun () ->
        (* One pass copies the cells before the new entry's place and
           shares the rest: the entry, at most two list cells and the
           table.  Filtering, partitioning and appending cost up to
           37. *)
        let one = Route.add Route.empty (Addr.net 4) (Route.Direct 0) in
        let gw = Route.Via (Addr.host 4 1) in
        let default = Addr.Prefix.make Addr.zero 0 in
        let host = Addr.Prefix.make (Addr.host 4 7) 32 in
        let words_per_add prefix =
          minor_words_during (fun () ->
              for _ = 1 to 1000 do
                ignore (Sys.opaque_identity (Route.add one prefix gw))
              done)
          /. 1000.0
        in
        List.iter
          (fun (name, prefix, size) ->
             check Alcotest.int name size
               (Route.size (Route.add one prefix gw));
             let words = words_per_add prefix in
             check Alcotest.bool
               (Printf.sprintf "%s: %.1f words per add" name words)
               true (words <= 15.0))
          [ ("after it", default, 2); ("before it", host, 2);
            ("in its place", Addr.net 4, 1) ]) ]

let suite =
  [ ("compact-addr-keys", addr_key_tests);
    ("compact-int-table", int_table_tests);
    ("compact-route", route_tests);
    ("compact-alloc", alloc_tests) ]
