(* The reference-world benchmark: see README.md.

     perf.exe [--workload NAME] [--seed N] [--seconds S] [--trace]
              [--json FILE]
     perf.exe compare PARENT.json... vs CHANGE.json...

   Runs each selected workload serially in this one process, checks its
   outputs, prints every metric with its unit, and ends with one JSON
   line: {"correct", "attempted", "failed", "metrics"}.  Exits 1 when an
   output check fails.

   A run times one round per workload, or with --seconds as many as fill
   S seconds and reports medians.  BENCHMARK.json's calling convention
   appends "--seconds S --trace 0|1" to its command, so --trace also
   takes that value. *)

let usage () =
  prerr_string
    "usage: perf.exe [--workload transit|campus|handoff|sockets] [--seed N]\n\
    \                [--seconds S] [--trace] [--json FILE]\n\
    \       perf.exe compare PARENT.json... vs CHANGE.json...\n";
  exit 2

type options = {
  workload : string option;
  seed : int;
  seconds : float;
  trace : bool;
  json : string option;
}

let rec parse o = function
  | [] -> o
  | "--workload" :: w :: rest -> parse { o with workload = Some w } rest
  | "--seed" :: n :: rest ->
    (match int_of_string_opt n with
     | Some seed -> parse { o with seed } rest
     | None -> usage ())
  | "--seconds" :: s :: rest ->
    (match float_of_string_opt s with
     | Some seconds when seconds >= 0.0 -> parse { o with seconds } rest
     | _ -> usage ())
  | "--trace" :: (("0" | "1") as v) :: rest ->
    parse { o with trace = v = "1" } rest
  | "--trace" :: rest -> parse { o with trace = true } rest
  | "--json" :: file :: rest -> parse { o with json = Some file } rest
  | _ -> usage ()

let benchmark () = Report.load_benchmark "BENCHMARK.json"

let bench o =
  let specs =
    match o.workload with
    | None -> World.all
    | Some name ->
      (match List.find_opt (fun s -> s.World.name = name) World.all with
       | Some s -> [ s ]
       | None -> usage ())
  in
  let results =
    List.map
      (fun s ->
         let r = Run.run s ~seed:o.seed ~seconds:o.seconds ~trace:o.trace in
         Report.print_result r;
         r)
      specs
  in
  Option.iter
    (fun file ->
       Out_channel.with_open_bin file (fun oc ->
           output_string oc
             (Obs.Json.to_string ~pretty:true
                (Report.document ~trace:o.trace results));
           output_char oc '\n'))
    o.json;
  let correct, line =
    Report.final_line ~benchmark:(benchmark ()) ~trace:o.trace results
  in
  print_endline line;
  exit (if correct then 0 else 1)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "compare" :: files ->
    let rec split acc = function
      | "vs" :: rest -> (List.rev acc, rest)
      | f :: rest -> split (f :: acc) rest
      | [] -> usage ()
    in
    let parents, changes = split [] files in
    if parents = [] || changes = [] then usage ();
    (match benchmark () with
     | None ->
       prerr_endline "compare: BENCHMARK.json not found in this directory";
       exit 2
     | Some benchmark ->
       exit (if Report.compare ~benchmark parents changes then 0 else 1))
  | args ->
    bench
      (parse
         { workload = None; seed = 1; seconds = 0.0; trace = false;
           json = None }
         args)
