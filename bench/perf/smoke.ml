(* The benchmark's runtest check: every workload at smoke size, run twice
   in this process with one seed, each run one untraced and one traced
   round.  Fails unless

   - every output check passes;
   - all four rounds of a workload have one outputs digest, so events,
     forwards, ops and control messages are identical and tracing did
     not change what ran;
   - the two untraced rounds allocate within 1 % of each other;
   - the traced parts add up to the traced wall time;
   - the --json document and the final line parse with Obs.Json. *)

let fail fmt =
  Printf.ksprintf
    (fun s ->
       prerr_endline ("smoke: " ^ s);
       exit 1)
    fmt

let check (a : Run.result) (b : Run.result) =
  let name = a.Run.spec.World.name in
  List.iter
    (fun (r : Run.result) ->
       if not r.Run.correct then
         fail "%s: %s" name (String.concat "; " r.Run.violations))
    [ a; b ];
  let first (r : Run.result) = List.hd r.Run.rounds in
  if (first a).Run.digest <> (first b).Run.digest then
    fail "%s: the two runs have different outputs digests" name;
  let wa = (first a).Run.words and wb = (first b).Run.words in
  if Float.abs (wa -. wb) > 0.01 *. wa then
    fail "%s: words %.0f vs %.0f differ by more than 1%%" name wa wb;
  let g n =
    match Report.find n a.Run.per_layer with
    | Some v -> v
    | None -> fail "%s: no %s" name n
  in
  let parts =
    g "workload.self_s" +. g "mhrp.send_s" +. g "mhrp.move_s"
    +. g "netsim.loop_self_s"
  in
  if Float.abs (parts -. g "wall_s") > 0.01 *. g "wall_s"
     || g "netsim.loop_self_s" < 0.0
  then fail "%s: traced parts sum to %g, wall %g" name parts (g "wall_s")

let () =
  let t0 = Clock.now () in
  let run spec = Run.run ~smoke:true spec ~seed:1 ~seconds:0.0 ~trace:true in
  let results =
    List.map
      (fun spec ->
         let a = run spec in
         check a (run spec);
         a)
      World.all
  in
  let doc =
    Obs.Json.to_string ~pretty:true (Report.document ~trace:true results)
  in
  (match Obs.Json.of_string doc with
   | Ok parsed ->
     (match Option.bind (Obs.Json.member "workloads" parsed) Obs.Json.to_list with
      | Some ws when List.length ws = List.length World.all -> ()
      | _ -> fail "--json document lacks its workloads")
   | Error e -> fail "--json document does not parse: %s" e);
  let _, line = Report.final_line ~benchmark:None ~trace:true results in
  (match Obs.Json.of_string line with
   | Ok _ -> ()
   | Error e -> fail "final line does not parse: %s" e);
  Printf.printf "smoke: %d workloads ok in %.2f s\n" (List.length results)
    (Clock.since t0)
