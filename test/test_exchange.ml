(* Tests for Mhrp.Exchange, the one retransmission rule behind every
   acknowledged control exchange: the doubling backoff and give-up,
   supersession, acknowledgement and node failure, on a one-node engine
   with the default 300 ms initial timeout and 5 retries. *)

module Time = Netsim.Time
module Engine = Netsim.Engine
module Exchange = Mhrp.Exchange

let check = Alcotest.check
let reliable = Mhrp.Config.make ~reliable_control:true ()

type world = {
  engine : Engine.t;
  node : Net.Node.t;
  counters : Mhrp.Counters.t;
  mutable log : (string * int) list;  (* what ran, at which ms; newest first *)
}

let world () =
  let engine = Engine.create () in
  { engine;
    node =
      Net.Node.create ~engine ~mac_alloc:(Net.Mac.Alloc.create ()) "n";
    counters = Mhrp.Counters.create ();
    log = [] }

let note w what =
  w.log <- (what, Time.to_us (Engine.now w.engine) / 1000) :: w.log

(* Start a generation of [x] at [sec], logging its resends and give-up
   under [tag]. *)
let start_at ?supersede ?(config = reliable) w x sec tag =
  ignore
    (Engine.schedule w.engine ~at:(Time.of_sec sec) (fun () ->
         Exchange.start ?supersede x w.node config w.counters
           ~resend:(fun () -> note w tag)
           ~give_up:(fun () -> note w (tag ^ " gives up"))))

let at w sec f = ignore (Engine.schedule w.engine ~at:(Time.of_sec sec) f)

let run w =
  Engine.run ~until:(Time.of_sec 60.0) w.engine;
  List.rev w.log

let log = Alcotest.(list (pair string int))

let tests =
  [ Alcotest.test_case "resends double, then one give-up" `Quick (fun () ->
        let w = world () in
        let x = Exchange.create () in
        start_at w x 0.0 "a";
        check log "schedule"
          [ ("a", 300); ("a", 900); ("a", 2100); ("a", 4500); ("a", 9300);
            ("a gives up", 18900) ]
          (run w);
        check Alcotest.int "gave up once" 1
          w.counters.Mhrp.Counters.retransmit_gave_up;
        check Alcotest.bool "still unacknowledged" true (Exchange.pending x));
    Alcotest.test_case "a newer start silences the older chain" `Quick
      (fun () ->
         let w = world () in
         let x = Exchange.create () in
         start_at w x 0.0 "a";
         start_at w x 1.0 "b";
         check log "only b after 1 s"
           [ ("a", 300); ("a", 900); ("b", 1300); ("b", 1900); ("b", 3100);
             ("b", 5500); ("b", 10300); ("b gives up", 19900) ]
           (run w);
         check Alcotest.int "gave up once" 1
           w.counters.Mhrp.Counters.retransmit_gave_up);
    Alcotest.test_case "non-superseding chains both live until one ack"
      `Quick (fun () ->
          let w = world () in
          let x = Exchange.create () in
          start_at ~supersede:false w x 0.0 "a";
          start_at ~supersede:false w x 0.5 "b";
          at w 1.0 (fun () -> Exchange.ack x);
          check log "both until the ack"
            [ ("a", 300); ("b", 800); ("a", 900) ]
            (run w);
          check Alcotest.bool "acknowledged" false (Exchange.pending x);
          check Alcotest.int "no give-up" 0
            w.counters.Mhrp.Counters.retransmit_gave_up);
    Alcotest.test_case "a node down at a firing ends the chain" `Quick
      (fun () ->
         let w = world () in
         let x = Exchange.create () in
         start_at w x 0.0 "a";
         at w 0.5 (fun () -> Net.Node.set_up w.node false);
         at w 1.0 (fun () -> Net.Node.set_up w.node true);
         check log "nothing after the 0.9 s firing" [ ("a", 300) ] (run w);
         check Alcotest.int "no give-up" 0
           w.counters.Mhrp.Counters.retransmit_gave_up);
    Alcotest.test_case "unreliable control schedules nothing but tracks"
      `Quick (fun () ->
          let w = world () in
          let x = Exchange.create () in
          check Alcotest.bool "nothing sent yet" false (Exchange.pending x);
          Exchange.start x w.node Mhrp.Config.default w.counters
            ~resend:(fun () -> note w "a")
            ~give_up:(fun () -> note w "a gives up");
          check Alcotest.int "no timer" 0 (Engine.pending w.engine);
          check Alcotest.bool "pending" true (Exchange.pending x);
          Exchange.ack x;
          check Alcotest.bool "acknowledged" false (Exchange.pending x);
          start_at ~config:Mhrp.Config.default w x 1.0 "b";
          check log "never resent" [] (run w);
          check Alcotest.bool "pending again" true (Exchange.pending x));
    Alcotest.test_case "a firing allocates nothing" `Quick (fun () ->
        (* Each timeout resends and arms the next timer, the call of a
           top-level function on the chain: a closure per arm cost 7
           words. *)
        let w = world () in
        let x = Exchange.create () in
        let resends = ref 0 in
        Exchange.start x w.node reliable w.counters
          ~resend:(fun () -> incr resends)
          ~give_up:ignore;
        let until = Some (Time.of_sec 5.0) in
        let w0 = Gc.minor_words () in
        Engine.run ?until w.engine;
        let words = Gc.minor_words () -. w0 in
        check Alcotest.int "four firings" 4 !resends;
        check (Alcotest.float 0.0) "minor words" 0.0 words) ]

let suite = [ ("exchange", tests) ]
