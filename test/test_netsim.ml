(* Unit and property tests for the discrete-event engine substrate. *)

module Time = Netsim.Time
module Rng = Netsim.Rng
module Eq = Netsim.Event_queue
module Engine = Netsim.Engine
module Stats = Netsim.Stats

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* --- Time --- *)

let time_tests =
  [ Alcotest.test_case "conversions" `Quick (fun () ->
        check Alcotest.int "ms" 5_000 (Time.to_us (Time.of_ms 5));
        check Alcotest.int "sec" 1_500_000 (Time.to_us (Time.of_sec 1.5));
        check (Alcotest.float 1e-9) "roundtrip" 2.25
          (Time.to_sec (Time.of_sec 2.25)));
    Alcotest.test_case "negative rejected" `Quick (fun () ->
        Alcotest.check_raises "of_us" (Invalid_argument "Time.of_us: negative")
          (fun () -> ignore (Time.of_us (-1)));
        Alcotest.check_raises "diff"
          (Invalid_argument "Time.diff: negative interval") (fun () ->
            ignore (Time.diff (Time.of_us 1) (Time.of_us 2))));
    Alcotest.test_case "arithmetic and order" `Quick (fun () ->
        let a = Time.of_ms 3 and b = Time.of_ms 7 in
        check Alcotest.int "add" 10_000 (Time.to_us (Time.add a b));
        check Alcotest.int "diff" 4_000 (Time.to_us (Time.diff b a));
        check Alcotest.bool "lt" true Time.(a < b);
        check Alcotest.bool "ge" true Time.(b >= a));
    Alcotest.test_case "pp" `Quick (fun () ->
        check Alcotest.string "format" "1.250000s"
          (Time.to_string (Time.of_ms 1250)));
    qtest
      (QCheck.Test.make ~name:"add/diff inverse" ~count:200
         QCheck.(pair (int_bound 1_000_000) (int_bound 1_000_000))
         (fun (a, b) ->
            let ta = Time.of_us a and tb = Time.of_us b in
            Time.to_us (Time.diff (Time.add ta tb) tb) = a)) ]

(* --- Rng --- *)

let rng_tests =
  [ Alcotest.test_case "deterministic for equal seeds" `Quick (fun () ->
        let a = Rng.of_int 7 and b = Rng.of_int 7 in
        for _ = 1 to 100 do
          check Alcotest.int "draw" (Rng.int a 1000) (Rng.int b 1000)
        done);
    Alcotest.test_case "split streams are independent" `Quick (fun () ->
        let a = Rng.of_int 7 in
        let b = Rng.split a in
        let xs = List.init 50 (fun _ -> Rng.int a 1_000_000) in
        let ys = List.init 50 (fun _ -> Rng.int b 1_000_000) in
        check Alcotest.bool "different" true (xs <> ys));
    Alcotest.test_case "copy preserves stream" `Quick (fun () ->
        let a = Rng.of_int 3 in
        ignore (Rng.int a 10);
        let b = Rng.copy a in
        check Alcotest.int "same next" (Rng.int a 1000) (Rng.int b 1000));
    Alcotest.test_case "bounds validation" `Quick (fun () ->
        let a = Rng.of_int 1 in
        Alcotest.check_raises "int" (Invalid_argument "Rng.int: bound <= 0")
          (fun () -> ignore (Rng.int a 0)));
    qtest
      (QCheck.Test.make ~name:"int within bound" ~count:500
         QCheck.(pair small_int (int_range 1 10_000))
         (fun (seed, bound) ->
            let r = Rng.of_int seed in
            let v = Rng.int r bound in
            v >= 0 && v < bound));
    qtest
      (QCheck.Test.make ~name:"int_in within range" ~count:500
         QCheck.(triple small_int (int_range (-100) 100) (int_range 0 1000))
         (fun (seed, lo, span) ->
            let r = Rng.of_int seed in
            let v = Rng.int_in r lo (lo + span) in
            v >= lo && v <= lo + span));
    qtest
      (QCheck.Test.make ~name:"float within bound" ~count:500
         QCheck.small_int (fun seed ->
             let r = Rng.of_int seed in
             let v = Rng.float r 5.0 in
             v >= 0.0 && v < 5.0));
    Alcotest.test_case "exponential positive with given mean" `Quick
      (fun () ->
         let r = Rng.of_int 11 in
         let acc = Stats.Acc.create () in
         for _ = 1 to 20_000 do
           let v = Rng.exponential r 4.0 in
           check Alcotest.bool "positive" true (v >= 0.0);
           Stats.Acc.add acc v
         done;
         let mean = Stats.Acc.mean acc in
         check Alcotest.bool "mean close to 4"
           true (mean > 3.8 && mean < 4.2));
    Alcotest.test_case "shuffle is a permutation" `Quick (fun () ->
        let r = Rng.of_int 5 in
        let a = Array.init 100 Fun.id in
        Rng.shuffle r a;
        let sorted = Array.copy a in
        Array.sort compare sorted;
        check (Alcotest.array Alcotest.int) "permutation"
          (Array.init 100 Fun.id) sorted) ]

(* --- Event queue --- *)

let eq_tests =
  [ Alcotest.test_case "pops in time order" `Quick (fun () ->
        let q = Eq.create () in
        ignore (Eq.push q (Time.of_us 30) "c");
        ignore (Eq.push q (Time.of_us 10) "a");
        ignore (Eq.push q (Time.of_us 20) "b");
        let order =
          List.init 3 (fun _ ->
              match Eq.pop q with Some (_, x) -> x | None -> "?")
        in
        check (Alcotest.list Alcotest.string) "order" ["a"; "b"; "c"] order);
    Alcotest.test_case "FIFO within equal timestamps" `Quick (fun () ->
        let q = Eq.create () in
        for i = 0 to 9 do
          ignore (Eq.push q (Time.of_us 5) i)
        done;
        let order =
          List.init 10 (fun _ ->
              match Eq.pop q with Some (_, x) -> x | None -> -1)
        in
        check (Alcotest.list Alcotest.int) "fifo" (List.init 10 Fun.id)
          order);
    Alcotest.test_case "cancel removes exactly one event" `Quick (fun () ->
        let q = Eq.create () in
        let _h1 = Eq.push q (Time.of_us 1) 1 in
        let h2 = Eq.push q (Time.of_us 2) 2 in
        let _h3 = Eq.push q (Time.of_us 3) 3 in
        check Alcotest.bool "cancelled" true (Eq.cancel q h2);
        check Alcotest.bool "double-cancel" false (Eq.cancel q h2);
        check Alcotest.int "length" 2 (Eq.length q);
        let order =
          List.init 2 (fun _ ->
              match Eq.pop q with Some (_, x) -> x | None -> -1)
        in
        check (Alcotest.list Alcotest.int) "remaining" [1; 3] order);
    Alcotest.test_case "cancel after pop is refused" `Quick (fun () ->
        let q = Eq.create () in
        let h = Eq.push q (Time.of_us 1) () in
        ignore (Eq.pop q);
        check Alcotest.bool "gone" false (Eq.cancel q h));
    Alcotest.test_case "peek_time skips cancellations" `Quick (fun () ->
        let q = Eq.create () in
        let h = Eq.push q (Time.of_us 1) 1 in
        ignore (Eq.push q (Time.of_us 9) 2);
        ignore (Eq.cancel q h);
        check (Alcotest.option Alcotest.int) "peek" (Some 9)
          (Option.map Time.to_us (Eq.peek_time q)));
    qtest
      (QCheck.Test.make ~name:"heap pops sorted" ~count:100
         QCheck.(list_of_size Gen.(int_range 0 200) (int_bound 10_000))
         (fun times ->
            let q = Eq.create () in
            List.iter (fun t -> ignore (Eq.push q (Time.of_us t) t)) times;
            let rec drain acc =
              match Eq.pop q with
              | None -> List.rev acc
              | Some (_, v) -> drain (v :: acc)
            in
            let out = drain [] in
            out = List.stable_sort compare times));
    Alcotest.test_case "cancellation inside a tie group keeps FIFO order"
      `Quick (fun () ->
        let q = Eq.create () in
        let hs = List.init 6 (fun i -> (i, Eq.push q (Time.of_us 7) i)) in
        (* Cancel the middle of the group; survivors must keep their
           relative scheduling order, not re-sort around the hole. *)
        List.iter
          (fun (i, h) -> if i = 2 || i = 3 then ignore (Eq.cancel q h))
          hs;
        let rec drain acc =
          match Eq.pop q with
          | None -> List.rev acc
          | Some (_, v) -> drain (v :: acc)
        in
        check (Alcotest.list Alcotest.int) "survivors in order" [0; 1; 4; 5]
          (drain []));
    Alcotest.test_case "cancelling the head exposes the next event" `Quick
      (fun () ->
        let q = Eq.create () in
        let h = Eq.push q (Time.of_us 1) 1 in
        ignore (Eq.push q (Time.of_us 2) 2);
        check Alcotest.bool "cancelled" true (Eq.cancel q h);
        check Alcotest.int "length skips the corpse" 1 (Eq.length q);
        check
          (Alcotest.option (Alcotest.pair Alcotest.int Alcotest.int))
          "pop skips the corpse" (Some (2, 2))
          (Option.map (fun (t, v) -> (Time.to_us t, v)) (Eq.pop q));
        check Alcotest.bool "empty after" true (Eq.is_empty q));
    Alcotest.test_case "a stale handle never cancels a newer event" `Quick
      (fun () ->
        let q = Eq.create () in
        let h = Eq.push q (Time.of_us 5) "old" in
        check Alcotest.bool "first cancel" true (Eq.cancel q h);
        (* Same timestamp, scheduled after the cancellation: the retired
           handle must not alias it. *)
        ignore (Eq.push q (Time.of_us 5) "new");
        check Alcotest.bool "stale handle refused" false (Eq.cancel q h);
        check
          (Alcotest.option Alcotest.string)
          "newer event survives" (Some "new")
          (Option.map snd (Eq.pop q)));
    Alcotest.test_case "ties straddling a pop still fire in push order"
      `Quick (fun () ->
        let q = Eq.create () in
        ignore (Eq.push q (Time.of_us 5) "a");
        ignore (Eq.push q (Time.of_us 5) "b");
        check (Alcotest.option Alcotest.string) "first" (Some "a")
          (Option.map snd (Eq.pop q));
        (* Pushed after a pop, at the same instant: the sequence counter
           is monotone for the queue's lifetime, so "c" follows "b". *)
        ignore (Eq.push q (Time.of_us 5) "c");
        check (Alcotest.option Alcotest.string) "second" (Some "b")
          (Option.map snd (Eq.pop q));
        check (Alcotest.option Alcotest.string) "third" (Some "c")
          (Option.map snd (Eq.pop q)));
    qtest
      (QCheck.Test.make
         ~name:"random cancellations preserve stable order of survivors"
         ~count:100
         QCheck.(
           list_of_size
             Gen.(int_range 0 100)
             (pair (int_bound 50) bool))
         (fun events ->
            (* Schedule everything, cancel the flagged ones, and require
               the drain to equal a stable sort of the survivors. *)
            let q = Eq.create () in
            let handles =
              List.mapi
                (fun i (t, dead) -> (t, i, dead, Eq.push q (Time.of_us t) (t, i)))
                events
            in
            List.iter
              (fun (_, _, dead, h) ->
                 if dead then
                   ignore (Eq.cancel q h))
              handles;
            let rec drain acc =
              match Eq.pop q with
              | None -> List.rev acc
              | Some (_, v) -> drain (v :: acc)
            in
            let expected =
              List.filter_map
                (fun (t, i, dead, _) -> if dead then None else Some (t, i))
                handles
              |> List.stable_sort (fun (t, _) (t', _) -> compare t t')
            in
            drain [] = expected)) ]

(* --- Event queue against a reference model --- *)

(* [Cancel k] picks the [k mod n]-th of the [n] handles issued so far,
   which may be live, fired or already cancelled. *)
type op = Push of int | Cancel of int | Pop | Take | Peek | Length | Is_empty

let show_op = function
  | Push t -> Printf.sprintf "push %d" t
  | Cancel k -> Printf.sprintf "cancel #%d" k
  | Pop -> "pop"
  | Take -> "min_time+take"
  | Peek -> "peek"
  | Length -> "length"
  | Is_empty -> "is_empty"

let op_gen =
  QCheck.Gen.(
    frequency
      [ (6, map (fun t -> Push t) (int_bound 7));
        (3, map (fun k -> Cancel k) (int_bound 1_000));
        (2, return Pop); (1, return Take); (1, return Peek);
        (1, return Length); (1, return Is_empty) ])

let ops_arb =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show_op ops))
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (int_range 0 300) op_gen)

(* The model is the list of live events, (time, push index), sorted by
   time and then push index: exactly the order the queue promises. *)
let model_agrees ops =
  let q = Eq.create () in
  let live = ref [] and handles = ref [||] in
  let insert t v =
    let rec go = function
      | (t', _) as e :: rest when t' <= t -> e :: go rest
      | rest -> (t, v) :: rest
    in
    live := go !live
  in
  let model_pop () =
    match !live with
    | [] -> None
    | e :: rest ->
      live := rest;
      Some e
  in
  let step op =
    match op with
    | Push t ->
      let v = Array.length !handles in
      handles := Array.append !handles [| Eq.push q (Time.of_us t) v |];
      insert t v;
      true
    | Cancel k ->
      let n = Array.length !handles in
      n = 0
      ||
      let v = k mod n in
      let expect = List.exists (fun (_, v') -> v' = v) !live in
      live := List.filter (fun (_, v') -> v' <> v) !live;
      Eq.cancel q !handles.(v) = expect
    | Pop ->
      Option.map (fun (t, v) -> (Time.to_us t, v)) (Eq.pop q) = model_pop ()
    | Take -> (
      match model_pop () with
      | None -> Eq.min_time q = max_int
      | Some (t, v) -> Eq.min_time q = t && Eq.take q = v)
    | Peek ->
      Option.map Time.to_us (Eq.peek_time q)
      = (match !live with [] -> None | (t, _) :: _ -> Some t)
    | Length -> Eq.length q = List.length !live
    | Is_empty -> Eq.is_empty q = (!live = [])
  in
  List.for_all step ops

let eq_model_tests =
  [ qtest
      (QCheck.Test.make ~name:"random operations agree with a sorted-list model"
         ~count:500 ops_arb model_agrees);
    Alcotest.test_case "take on an empty queue is refused" `Quick (fun () ->
        let q = Eq.create () in
        ignore (Eq.cancel q (Eq.push q (Time.of_us 3) ()));
        check Alcotest.int "min_time" max_int (Eq.min_time q);
        Alcotest.check_raises "take"
          (Invalid_argument "Event_queue.take: empty") (fun () -> Eq.take q)) ]

(* --- Event queue: retention and allocation --- *)

(* Pushes [n] fresh payloads, each also held by [w]; pops [fired] of them
   and cancels every third of the rest.  Returns which indices were
   fired or cancelled.  Kept out of line so no payload stays in a
   register of the caller. *)
let[@inline never] churn q w n ~fired =
  let handles =
    Array.init n (fun i ->
        let payload = ref i in
        Weak.set w i (Some payload);
        Eq.push q (Time.of_us (i mod 5)) payload)
  in
  let gone = Array.make n false in
  for _ = 1 to fired do
    match Eq.pop q with
    | Some (_, payload) -> gone.(!payload) <- true
    | None -> ()
  done;
  Array.iteri
    (fun i h -> if i mod 3 = 0 && Eq.cancel q h then gone.(i) <- true)
    handles;
  gone

let[@inline never] drain q =
  while not (Eq.is_empty q) do
    ignore (Eq.take q)
  done

(* [churn] for calls: call [i]'s function, a fresh closure, is held by
   [wf] at [i], and its two arguments by [wargs] at [2i] and [2i+1].  A
   call marks its index when it fires. *)
let[@inline never] churn_calls q wf wargs n ~fired =
  let gone = Array.make n false in
  let handles =
    Array.init n (fun i ->
        let f (_ : int ref) (_ : int ref) = gone.(i) <- true in
        let a = ref i and b = ref (-i) in
        Weak.set wf i (Some f);
        Weak.set wargs (2 * i) (Some a);
        Weak.set wargs ((2 * i) + 1) (Some b);
        Eq.push_call q (Time.of_us (i mod 5)) f a b)
  in
  for _ = 1 to fired do
    Eq.fire q
  done;
  Array.iteri
    (fun i h -> if i mod 3 = 0 && Eq.cancel q h then gone.(i) <- true)
    handles;
  gone

let[@inline never] fire_all q =
  while not (Eq.is_empty q) do
    Eq.fire q
  done

(* Whether call [i]'s function and arguments are still reachable. *)
let call_entries_held wf wargs i =
  [ ("function", Weak.check wf i);
    ("first argument", Weak.check wargs (2 * i));
    ("second argument", Weak.check wargs ((2 * i) + 1)) ]

let retention_tests =
  [ Alcotest.test_case
      "fired and cancelled payloads and call arguments are not retained"
      `Quick (fun () ->
        let n = 300 in
        let q = Eq.create () and w = Weak.create n in
        let gone = churn q w n ~fired:100 in
        Gc.full_major ();
        Array.iteri
          (fun i gone ->
             check Alcotest.bool
               (Printf.sprintf "payload %d reachable iff live" i)
               (not gone) (Weak.check w i))
          gone;
        drain (Sys.opaque_identity q);
        Gc.full_major ();
        for i = 0 to n - 1 do
          check Alcotest.bool
            (Printf.sprintf "payload %d released after drain" i)
            false (Weak.check w i)
        done;
        check Alcotest.int "queue still usable" 0
          (Eq.length (Sys.opaque_identity q));
        let calls = Eq.create () in
        let wf = Weak.create n and wargs = Weak.create (2 * n) in
        let gone = churn_calls calls wf wargs n ~fired:100 in
        Gc.full_major ();
        Array.iteri
          (fun i gone ->
             List.iter
               (fun (entry, held) ->
                  check Alcotest.bool
                    (Printf.sprintf "call %d's %s reachable iff live" i entry)
                    (not gone) held)
               (call_entries_held wf wargs i))
          gone;
        fire_all (Sys.opaque_identity calls);
        Gc.full_major ();
        for i = 0 to n - 1 do
          List.iter
            (fun (entry, held) ->
               check Alcotest.bool
                 (Printf.sprintf "call %d's %s released after firing" i entry)
                 false held)
            (call_entries_held wf wargs i)
        done;
        check Alcotest.int "call queue still usable" 0
          (Eq.length (Sys.opaque_identity calls))) ]

(* Exact minor-heap words allocated by [f ()].  [Gc.minor_words] returns
   an unboxed float, so the reading itself allocates nothing. *)
let minor_words_during f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let add_to r k = r := !r + k

let alloc_tests =
  [ Alcotest.test_case "dispatch allocates nothing; schedule <= 3 words"
      `Quick (fun () ->
        let n = 10_000 in
        let e = Engine.create () in
        let fired = ref 0 in
        let f () = incr fired in
        let schedule_all () =
          for i = 1 to n do
            ignore
              (Engine.schedule e
                 ~at:(Time.add (Engine.now e) (Time.of_us (i mod 97)))
                 f)
          done
        in
        (* grow the queue to depth [n] first *)
        schedule_all ();
        Engine.run e;
        let scheduled = minor_words_during schedule_all in
        let ran = minor_words_during (fun () -> Engine.run e) in
        check Alcotest.int "all fired" (2 * n) !fired;
        check Alcotest.bool
          (Printf.sprintf "schedule: %.0f words for %d events" scheduled n)
          true
          (scheduled <= 3.0 *. float_of_int n);
        check (Alcotest.float 0.0) "run: words for all events" 0.0 ran);
    Alcotest.test_case "call_after of a top-level function allocates 0 words"
      `Quick (fun () ->
        (* The per-packet events (a LAN delivery, a node's processing
           delay) are calls of top-level functions: scheduling one
           stores its function and arguments in the queue's slot, and a
           closure would cost the caller words per event. *)
        let n = 10_000 in
        let e = Engine.create () in
        let fired = ref 0 in
        let call_all () =
          for i = 1 to n do
            ignore
              (Engine.call_after e ~delay:(Time.of_us (i mod 97)) add_to fired
                 i)
          done
        in
        (* grow the queue to depth [n] first *)
        call_all ();
        Engine.run e;
        let words =
          minor_words_during (fun () ->
              call_all ();
              Engine.run e)
        in
        check Alcotest.int "all fired" (n * (n + 1)) !fired;
        check (Alcotest.float 0.0) "words to schedule and run them" 0.0
          words);
    Alcotest.test_case "a periodic series allocates nothing per tick" `Quick
      (fun () ->
        let e = Engine.create () in
        let ticks = ref 0 in
        Engine.every e ~interval:(Time.of_us 10) ~until:(Time.of_us 100_000)
          (fun () -> incr ticks);
        let ran = minor_words_during (fun () -> Engine.run e) in
        check Alcotest.int "ticks" 10_000 !ticks;
        check (Alcotest.float 0.0) "words for all ticks" 0.0 ran) ]

(* --- Engine --- *)

let engine_tests =
  [ Alcotest.test_case "clock advances to event times" `Quick (fun () ->
        let e = Engine.create () in
        let seen = ref [] in
        ignore (Engine.schedule e ~at:(Time.of_ms 5) (fun () ->
            seen := Time.to_us (Engine.now e) :: !seen));
        ignore (Engine.schedule e ~at:(Time.of_ms 2) (fun () ->
            seen := Time.to_us (Engine.now e) :: !seen));
        Engine.run e;
        check (Alcotest.list Alcotest.int) "times" [2000; 5000]
          (List.rev !seen));
    Alcotest.test_case "run ~until leaves later events queued" `Quick
      (fun () ->
         let e = Engine.create () in
         let fired = ref 0 in
         ignore (Engine.schedule e ~at:(Time.of_ms 1) (fun () -> incr fired));
         ignore (Engine.schedule e ~at:(Time.of_ms 10) (fun () -> incr fired));
         Engine.run ~until:(Time.of_ms 5) e;
         check Alcotest.int "one fired" 1 !fired;
         check Alcotest.int "one pending" 1 (Engine.pending e);
         check Alcotest.int "clock at until" 5000
           (Time.to_us (Engine.now e)));
    Alcotest.test_case "schedule in the past rejected" `Quick (fun () ->
        let e = Engine.create () in
        ignore (Engine.schedule e ~at:(Time.of_ms 2) (fun () -> ()));
        Engine.run e;
        Alcotest.check_raises "past"
          (Invalid_argument "Engine.schedule: time in the past") (fun () ->
            ignore (Engine.schedule e ~at:(Time.of_ms 1) (fun () -> ()))));
    Alcotest.test_case "cancel suppresses callback" `Quick (fun () ->
        let e = Engine.create () in
        let fired = ref false in
        let h = Engine.schedule e ~at:(Time.of_ms 1) (fun () ->
            fired := true)
        in
        check Alcotest.bool "cancelled" true (Engine.cancel e h);
        Engine.run e;
        check Alcotest.bool "not fired" false !fired);
    Alcotest.test_case "every fires periodically until deadline" `Quick
      (fun () ->
         let e = Engine.create () in
         let n = ref 0 in
         Engine.every e ~interval:(Time.of_ms 10) ~until:(Time.of_ms 45)
           (fun () -> incr n);
         Engine.run e;
         check Alcotest.int "fired 4 times" 4 !n);
    Alcotest.test_case "events scheduled during run are executed" `Quick
      (fun () ->
         let e = Engine.create () in
         let log = ref [] in
         ignore (Engine.schedule e ~at:(Time.of_ms 1) (fun () ->
             log := "outer" :: !log;
             ignore (Engine.schedule_after e ~delay:(Time.of_ms 1)
                       (fun () -> log := "inner" :: !log))));
         Engine.run e;
         check (Alcotest.list Alcotest.string) "both" ["outer"; "inner"]
           (List.rev !log);
         check Alcotest.int "processed" 2 (Engine.events_processed e)) ]

(* --- Stats --- *)

let stats_tests =
  [ Alcotest.test_case "acc mean/stddev" `Quick (fun () ->
        let a = Stats.Acc.create () in
        List.iter (Stats.Acc.add a) [2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0];
        check (Alcotest.float 1e-9) "mean" 5.0 (Stats.Acc.mean a);
        check Alcotest.int "count" 8 (Stats.Acc.count a);
        check (Alcotest.float 1e-6) "stddev" 2.13809 (Stats.Acc.stddev a);
        check (Alcotest.float 1e-9) "min" 2.0 (Stats.Acc.min a);
        check (Alcotest.float 1e-9) "max" 9.0 (Stats.Acc.max a));
    Alcotest.test_case "acc empty behaviour" `Quick (fun () ->
        let a = Stats.Acc.create () in
        check (Alcotest.float 0.0) "mean" 0.0 (Stats.Acc.mean a);
        Alcotest.check_raises "min" (Invalid_argument "Stats.Acc.min: empty")
          (fun () -> ignore (Stats.Acc.min a)));
    Alcotest.test_case "percentiles nearest-rank" `Quick (fun () ->
        let s = Stats.Samples.create () in
        List.iter (Stats.Samples.add s)
          (List.init 100 (fun i -> float_of_int (i + 1)));
        check (Alcotest.float 1e-9) "p50" 50.0 (Stats.Samples.percentile s 50.0);
        check (Alcotest.float 1e-9) "p99" 99.0 (Stats.Samples.percentile s 99.0);
        check (Alcotest.float 1e-9) "p100" 100.0
          (Stats.Samples.percentile s 100.0));
    Alcotest.test_case "hist buckets and mode" `Quick (fun () ->
        let h = Stats.Hist.create () in
        List.iter (Stats.Hist.add h) [3; 1; 3; 2; 3; 1];
        check Alcotest.int "mode" 3 (Stats.Hist.mode h);
        check Alcotest.int "count" 6 (Stats.Hist.count h);
        check (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
          "buckets" [(1, 2); (2, 1); (3, 3)] (Stats.Hist.buckets h));
    qtest
      (QCheck.Test.make ~name:"acc mean matches naive mean" ~count:200
         QCheck.(list_of_size Gen.(int_range 1 50) (float_bound_inclusive 100.0))
         (fun xs ->
            let a = Stats.Acc.create () in
            List.iter (Stats.Acc.add a) xs;
            let naive =
              List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
            in
            abs_float (Stats.Acc.mean a -. naive) < 1e-9)) ]

(* --- Trace --- *)

let trace_tests =
  [ Alcotest.test_case "emit and filter" `Quick (fun () ->
        let tr = Netsim.Trace.create () in
        Netsim.Trace.set_enabled tr true;
        Netsim.Trace.emit tr ~at:Time.zero ~node:"a" ~kind:"x" "one";
        Netsim.Trace.emit tr ~at:(Time.of_us 2) ~node:"b" ~kind:"y" "two";
        Netsim.Trace.emit tr ~at:(Time.of_us 3) ~node:"a" ~kind:"x" "three";
        check Alcotest.int "count x" 2 (Netsim.Trace.count tr ~kind:"x");
        check Alcotest.int "all" 3 (List.length (Netsim.Trace.events tr)));
    Alcotest.test_case "disabled trace records nothing" `Quick (fun () ->
        (* a new trace is disabled; it records only while enabled *)
        let tr = Netsim.Trace.create () in
        let emit detail =
          Netsim.Trace.emit tr ~at:Time.zero ~node:"a" ~kind:"x" detail
        in
        emit "new";
        List.iter
          (fun on ->
             Netsim.Trace.set_enabled tr on;
             emit (string_of_bool on))
          [true; false];
        check
          Alcotest.(list string)
          "only while enabled" ["true"]
          (List.map (fun e -> e.Netsim.Trace.detail) (Netsim.Trace.events tr)));
    Alcotest.test_case "capacity keeps newest" `Quick (fun () ->
        (* halving a capacity of 1 would keep nothing *)
        List.iter
          (fun capacity ->
             let tr = Netsim.Trace.create ~capacity () in
             Netsim.Trace.set_enabled tr true;
             for i = 1 to 25 do
               Netsim.Trace.emit tr ~at:(Time.of_us i) ~node:"n" ~kind:"k"
                 (string_of_int i);
               let evs = Netsim.Trace.events tr in
               let where = Printf.sprintf "capacity %d, emit %d" capacity i in
               check Alcotest.bool (where ^ ": bounded") true
                 (List.length evs <= capacity);
               match List.rev evs with
               | newest :: _ ->
                 check Alcotest.string (where ^ ": newest kept")
                   (string_of_int i) newest.Netsim.Trace.detail
               | [] -> Alcotest.fail (where ^ ": nothing kept")
             done)
          [1; 2; 3; 10]);
    Alcotest.test_case "wraparound keeps a contiguous newest suffix" `Quick
      (fun () ->
        let tr = Netsim.Trace.create ~capacity:8 () in
        Netsim.Trace.set_enabled tr true;
        for i = 1 to 100 do
          Netsim.Trace.emit tr ~at:(Time.of_us i) ~node:"n"
            ~kind:(if i mod 2 = 0 then "even" else "odd")
            (string_of_int i)
        done;
        let evs = Netsim.Trace.events tr in
        let n = List.length evs in
        check Alcotest.bool "bounded" true (n <= 8);
        check Alcotest.bool "non-empty" true (n > 0);
        (* Whatever survives the wrap must be exactly the newest [n]
           events, in emission order — no gaps, no stale entries. *)
        List.iteri
          (fun idx e ->
             check Alcotest.string
               (Printf.sprintf "slot %d" idx)
               (string_of_int (100 - n + 1 + idx))
               e.Netsim.Trace.detail)
          evs;
        (* The per-kind index stays consistent with the buffer. *)
        check Alcotest.int "kind counts partition the buffer" n
          (Netsim.Trace.count tr ~kind:"even"
           + Netsim.Trace.count tr ~kind:"odd");
        check Alcotest.int "find agrees with filter"
          (List.length
             (List.filter (fun e -> e.Netsim.Trace.kind = "even") evs))
          (List.length (Netsim.Trace.find tr ~kind:"even"))) ]

let suite =
  [ ("time", time_tests); ("rng", rng_tests); ("event-queue", eq_tests);
    ("event-queue-model", eq_model_tests);
    ("event-queue-retention", retention_tests);
    ("engine-alloc", alloc_tests);
    ("engine", engine_tests); ("stats", stats_tests);
    ("trace", trace_tests) ]
