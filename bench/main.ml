(* The experiment harness: regenerates every table and figure in
   EXPERIMENTS.md (see DESIGN.md Section 3 for the experiment index),
   recording every reported number into the Obs registry alongside the
   pretty-printed tables.

   Run everything:        dune exec bench/main.exe
   Run one experiment:    dune exec bench/main.exe -- E5
   All experiments:       dune exec bench/main.exe -- tables
   Parallel sweeps:       dune exec bench/main.exe -- tables --jobs 4
   Dump metrics JSON:     dune exec bench/main.exe -- tables --json out.json
   Regression gate:       dune exec bench/main.exe -- tables \
                            --baseline bench/baselines.json --check

   Each experiment is an [Exp_util.Experiment.t] descriptor exported by
   its module; this file only folds the list.  The heavy sweeps (E6, E16,
   E17, A) fan their independent trials out over a domain pool sized by
   --jobs (default: the machine's recommended domain count); results are
   bit-identical whatever the job count, so --jobs only moves wall-clock.

   The JSON schema ({schema_version, commit, experiments: {E1..E21, A,
   alloc}}) and the baseline workflow are documented in README.md and
   DESIGN.md.  --no-info drops Info-tolerance metrics (wall-clock
   readings) from the dump, making dumps from different machines or job
   counts byte-comparable — CI's serial-vs-parallel equivalence check
   diffs exactly those. *)

module Experiment = Exp_util.Experiment

let experiments : Experiment.t list =
  [ Exp_overhead.experiment;
    Exp_figure1.experiment;
    Exp_header.experiment;
    Exp_convergence.experiment;
    Exp_loops.experiment;
    Exp_scalability.experiment;
    Exp_recovery.experiment;
    Exp_icmp.experiment;
    Exp_lsrr.experiment;
    Exp_consistency.experiment;
    Exp_recovery.experiment_e12;
    Exp_replication.experiment;
    Exp_fragmentation.experiment;
    Exp_security.experiment;
    Exp_scale.experiment;
    Exp_faults.experiment;
    Exp_ablations.experiment;
    Exp_lsr.experiment;
    Exp_alloc.experiment;
    Exp_e19.experiment;
    Exp_e20.experiment;
    Exp_e21.experiment ]

let all_ids = List.map (fun e -> e.Experiment.id) experiments

let find_experiment id =
  List.find_opt (fun e -> e.Experiment.id = id) experiments

(* Registry experiment ids a run of [ids] legitimately produces: each
   experiment's own id plus whatever else its descriptor declares it
   records (E2 also records E9's at-home phase). *)
let recorded_ids ids =
  List.concat_map
    (fun id ->
       match find_experiment id with
       | Some e -> Experiment.recorded_ids e
       | None -> [id])
    ids

let commit () =
  match Sys.getenv_opt "GITHUB_SHA" with
  | Some sha -> sha
  | None ->
    let read path =
      try Some (String.trim (In_channel.with_open_bin path In_channel.input_all))
      with Sys_error _ -> None
    in
    (match read ".git/HEAD" with
     | Some head when String.length head > 5
                   && String.sub head 0 5 = "ref: " ->
       let r = String.sub head 5 (String.length head - 5) in
       Option.value ~default:head (read (Filename.concat ".git" r))
     | Some head -> head
     | None -> "unknown")

let usage () =
  Format.eprintf
    "usage: main.exe [IDS|tables|--list] [--jobs N] [--json FILE] \
     [--no-info] [--baseline FILE] [--check]@.known ids:@.";
  List.iter
    (fun e ->
       Format.eprintf "  %-5s %s@." e.Experiment.id e.Experiment.title)
    experiments;
  exit 1

(* --list: the registered experiment descriptors, one per line, to
   stdout — the machine-readable cousin of the usage screen. *)
let list_experiments () =
  List.iter
    (fun e ->
       Format.printf "%-5s %s@." e.Experiment.id e.Experiment.title)
    experiments;
  exit 0

type opts = {
  ids : string list;  (* in run order; empty means everything *)
  json_out : string option;
  include_info : bool;
  baseline : string option;
  check : bool;
}

let parse_args args =
  let rec go acc = function
    | [] -> acc
    | "--list" :: _ -> list_experiments ()
    | "--jobs" :: n :: rest ->
      (match int_of_string_opt n with
       | Some n when n >= 1 ->
         Parallel.Sweep.set_default_jobs n;
         go acc rest
       | _ ->
         Format.eprintf "--jobs needs a positive integer@.";
         usage ())
    | "--json" :: file :: rest -> go { acc with json_out = Some file } rest
    | "--no-info" :: rest -> go { acc with include_info = false } rest
    | "--baseline" :: file :: rest ->
      go { acc with baseline = Some file } rest
    | "--check" :: rest -> go { acc with check = true } rest
    | ("--json" | "--baseline" | "--jobs") :: [] ->
      Format.eprintf "missing argument@.";
      usage ()
    | "tables" :: rest -> go { acc with ids = acc.ids @ all_ids } rest
    | id :: rest when find_experiment id <> None ->
      go { acc with ids = acc.ids @ [id] } rest
    | id :: _ ->
      Format.eprintf "unknown experiment %s (known: %s, tables)@." id
        (String.concat ", " all_ids);
      exit 1
  in
  go
    { ids = []; json_out = None; include_info = true; baseline = None;
      check = false }
    args

let () =
  let opts = parse_args (List.tl (Array.to_list Sys.argv)) in
  let ids =
    match opts.ids with
    | [] ->
      Format.printf
        "MHRP experiment harness — reproducing the paper's tables and \
         figures@.";
      all_ids
    | ids ->
      (* run in the canonical order, deduplicated *)
      List.filter (fun id -> List.mem id ids) all_ids
  in
  List.iter
    (fun id -> (Option.get (find_experiment id)).Experiment.run ())
    ids;
  let registry = Obs.Registry.default in
  (match opts.json_out with
   | None -> ()
   | Some file ->
     let json =
       Obs.Registry.to_json ~include_info:opts.include_info registry
         ~commit:(commit ())
     in
     Out_channel.with_open_bin file (fun oc ->
         Out_channel.output_string oc (Obs.Json.to_string ~pretty:true json);
         Out_channel.output_char oc '\n');
     Format.printf "@.wrote %s (%d experiments)@." file
       (List.length (Obs.Registry.experiments registry)));
  match opts.baseline with
  | None ->
    if opts.check then begin
      Format.eprintf "--check needs --baseline FILE@.";
      exit 1
    end
  | Some file ->
    (match Obs.Baseline.load_file file with
     | Error e ->
       Format.eprintf "cannot load baseline: %s@." e;
       exit 1
     | Ok baseline ->
       let only =
         if ids = all_ids then None else Some (recorded_ids ids)
       in
       let report =
         Obs.Baseline.compare ?only ~baseline ~current:registry ()
       in
       Format.printf "@.%a@." Obs.Baseline.pp_report report;
       if opts.check && report.Obs.Baseline.drifts <> [] then exit 1)
