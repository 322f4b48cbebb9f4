(* Rounds and runs.  A round builds a fresh world, warms it up and runs
   the timed horizon serially in this process.  A run times untraced
   rounds of one workload until the requested seconds of horizon have
   been measured (one round when that is 0), then with [trace] one traced
   round.  Rounds of one run share the seed, so they repeat the same
   simulation and must agree on every deterministic counter. *)

module Time = Netsim.Time
module Engine = Netsim.Engine
module Topology = Net.Topology

type metric = string * float * string  (* name, value, unit *)

type round = {
  setup_s : float;
  wall_s : float;
  events : int;  (* engine events in the horizon, the sampler's excluded *)
  words : float;  (* minor-heap words allocated in the horizon *)
  heap_mb : float;  (* the process's peak heap when the horizon ended *)
  attempted : int;
  completed : int;
  digest : string;
  violations : string list;
  extra : metric list;
  layers : metric list;  (* traced rounds only *)
}

let median = function
  | [] -> Float.nan
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let warm (spec : World.spec) calls ~seed ~smoke =
  let t0 = Clock.now () in
  let w = spec.World.build calls ~seed ~smoke in
  Topology.run ~until:(Time.of_us (Time.to_us w.World.start - 1)) w.World.topo;
  (w, Clock.since t0)

let digest ~events ~(w : World.t) ~completed total =
  ("events", events) :: ("attempted", w.World.attempted)
  :: ("completed", completed) :: total
  |> List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v)
  |> String.concat ";" |> Digest.string |> Digest.to_hex

let round (spec : World.spec) ~seed ~smoke ~traced =
  Gc.full_major ();
  let probe = if traced then Some (Probe.create ()) else None in
  let calls =
    match probe with Some p -> Probe.calls p | None -> World.direct
  in
  let w, setup_s = warm spec calls ~seed ~smoke in
  let topo = w.World.topo in
  let hygiene =
    World.violation
      (Netsim.Trace.active (Some (Topology.trace topo)))
      "tracing is enabled: it turns the forwarding fast path off"
  in
  let engine = Topology.engine topo in
  let gc = Option.map (fun p -> Probe.attach p w) probe in
  let before = Tally.take w in
  let ev0 = Engine.events_processed engine in
  let words0 = Gc.minor_words () in
  let t0 = Clock.now () in
  Topology.run ~until:w.World.stop topo;
  let wall_s = Clock.since t0 in
  let words = Gc.minor_words () -. words0 in
  let events = Engine.events_processed engine - ev0 in
  let heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.0
  in
  (match probe, gc with Some p, Some cb -> Probe.detach p cb | _ -> ());
  let events =
    match probe with Some p -> events - p.Probe.probe_events | None -> events
  in
  let total = Tally.take w in
  let completed = w.World.completed () in
  let digest = digest ~events ~w ~completed total in
  let layers =
    match probe with
    | Some p ->
      Probe.layers p w ~wall_s ~ops:completed ~events
        ~h:(Tally.diff total before) ~total
    | None -> []
  in
  { setup_s; wall_s; events; words; heap_mb; attempted = w.World.attempted;
    completed;
    digest; violations = hygiene @ w.World.check (); extra = w.World.extra ();
    layers }

type result = {
  spec : World.spec;
  seed : int;
  rounds : round list;  (* untraced, in run order *)
  traced : round option;
  e2e : metric list;
  per_layer : metric list;
  correct : bool;
  violations : string list;
}

(* The median of at least five set-ups: the rounds' own, and when there
   are fewer rounds, more worlds built and warmed after the horizons, so
   they leave the first round's heap peak alone. *)
let setup_s (spec : World.spec) ~seed ~smoke rounds =
  median
    (List.map (fun r -> r.setup_s) rounds
     @ List.init
         (max 0 (5 - List.length rounds))
         (fun _ -> snd (warm spec World.direct ~seed ~smoke)))

(* The clock metrics come from the fastest round.  Other load on the
   host only ever slows a round, and it comes in spells that span several
   rounds, so the fastest round varies less from run to run than the
   median round does.  The counts are the median round's. *)
let end_to_end ~setup_s rounds =
  let med f = median (List.map f rounds) in
  let per_op r x = x /. float_of_int (max 1 r.completed) in
  let fast =
    List.fold_left
      (fun a r -> if r.wall_s < a.wall_s then r else a)
      (List.hd rounds) rounds
  in
  [ ("setup_s", setup_s, "s");
    ("wall_s", fast.wall_s, "s");
    ("ops_per_s", float_of_int fast.completed /. fast.wall_s, "op/s");
    ("events_per_s", float_of_int fast.events /. fast.wall_s, "1/s");
    ("events_per_op", med (fun r -> per_op r (float_of_int r.events)), "events");
    ("words_per_op", med (fun r -> per_op r r.words), "words");
    (* the first round's: the process was fresh, so this is one world's
       peak, whatever the number of rounds that followed *)
    ("peak_heap_mb", (List.hd rounds).heap_mb, "MiB");
    ( "failed_share",
      med (fun r ->
          float_of_int (r.attempted - r.completed)
          /. float_of_int (max 1 r.attempted)),
      "ratio" ) ]

let per_layer ~untraced = function
  | None -> []
  | Some r ->
    r.layers
    @ [ ("wall_s", r.wall_s, "s");
        ( "trace.overhead",
          (r.wall_s /. median (List.map (fun r -> r.wall_s) untraced)) -. 1.0,
          "ratio" ) ]

let run ?(smoke = false) (spec : World.spec) ~seed ~seconds ~trace =
  let rec untraced acc elapsed =
    if acc <> [] && elapsed >= seconds then List.rev acc
    else
      let r = round spec ~seed ~smoke ~traced:false in
      untraced (r :: acc) (elapsed +. r.wall_s)
  in
  let rounds = untraced [] 0.0 in
  let setup_s = setup_s spec ~seed ~smoke rounds in
  let traced =
    if trace then Some (round spec ~seed ~smoke ~traced:true) else None
  in
  let all = rounds @ Option.to_list traced in
  let digests = List.sort_uniq compare (List.map (fun r -> r.digest) all) in
  let violations =
    List.sort_uniq compare
      (List.concat_map (fun (r : round) -> r.violations) all)
    @ World.violation
        (List.length digests > 1)
        "rounds with one seed diverged: %d distinct outputs digests"
        (List.length digests)
  in
  { spec; seed; rounds; traced; e2e = end_to_end ~setup_s rounds;
    per_layer = per_layer ~untraced:rounds traced;
    correct = violations = []; violations }

let all_rounds r = r.rounds @ Option.to_list r.traced
let attempted r = List.fold_left (fun a x -> a + x.attempted) 0 (all_rounds r)

let failed r =
  List.fold_left (fun a x -> a + x.attempted - x.completed) 0 (all_rounds r)
