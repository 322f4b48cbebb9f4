(* Printing, the --json document, BENCHMARK.json, and comparison of
   parent and change runs. *)

module J = Obs.Json

let value_string v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6g" v

let print_metrics ms =
  List.iter
    (fun (n, v, u) -> Printf.printf "  %-26s %14s %s\n" n (value_string v) u)
    ms

let find name ms =
  List.find_map (fun (n, v, _) -> if n = name then Some v else None) ms

let print_result (r : Run.result) =
  let first = List.hd r.Run.rounds in
  Printf.printf "== %s: op = %s; seed %d; untraced rounds: %d ==\n"
    r.Run.spec.World.name r.Run.spec.World.op r.Run.seed
    (List.length r.Run.rounds);
  print_metrics r.Run.e2e;
  print_metrics first.Run.extra;
  Printf.printf "  %-26s %14d of %d\n" "ops completed per round"
    first.Run.completed first.Run.attempted;
  Printf.printf "  %-26s %s\n" "outputs_digest" first.Run.digest;
  if r.Run.traced <> None then begin
    Printf.printf "  -- traced round --\n";
    print_metrics r.Run.per_layer;
    let g n = Option.value ~default:Float.nan (find n r.Run.per_layer) in
    let parts =
      [ "workload.self_s"; "mhrp.send_s"; "mhrp.move_s"; "netsim.loop_self_s" ]
    in
    Printf.printf "  wall_s %.4f = %s\n" (g "wall_s")
      (String.concat " + "
         (List.map (fun n -> Printf.sprintf "%s %.4f" n (g n)) parts));
    Printf.printf "    of which gc %.4f (minor %.4f, major %.4f)\n"
      (g "gc.minor_s" +. g "gc.major_s")
      (g "gc.minor_s") (g "gc.major_s")
  end;
  (match r.Run.violations with
   | [] -> Printf.printf "  checks: ok\n"
   | vs -> List.iter (Printf.printf "  CHECK FAILED: %s\n") vs);
  flush stdout

let metrics_json ms =
  J.Obj
    (List.map
       (fun (n, v, u) ->
          (n, J.Obj [ ("value", J.Float v); ("unit", J.String u) ]))
       ms)

let result_json (r : Run.result) =
  let first = List.hd r.Run.rounds in
  J.Obj
    [ ("workload", J.String r.Run.spec.World.name);
      ("op", J.String r.Run.spec.World.op);
      ("seed", J.Int r.Run.seed);
      ("rounds", J.Int (List.length r.Run.rounds));
      ("traced", J.Bool (r.Run.traced <> None));
      ("correct", J.Bool r.Run.correct);
      ("attempted", J.Int (Run.attempted r));
      ("failed", J.Int (Run.failed r));
      ("outputs_digest", J.String first.Run.digest);
      ("violations", J.List (List.map (fun s -> J.String s) r.Run.violations));
      ("metrics", metrics_json r.Run.e2e);
      ("per_layer", metrics_json r.Run.per_layer);
      ("extra", metrics_json first.Run.extra);
      ( "round_wall_s",
        J.List (List.map (fun x -> J.Float x.Run.wall_s) r.Run.rounds) ) ]

let document ~trace results =
  J.Obj
    [ ("trace", J.Bool trace);
      ("workloads", J.List (List.map result_json results)) ]

(* --- BENCHMARK.json --- *)

type bound = { name : string; lower_better : bool; bound : float }

(* What BENCHMARK.json says about the metrics. *)
type benchmark = { end_to_end : bound list; per_layer : string list }

let ( let* ) = Option.bind

let load_benchmark path =
  let* text =
    try Some (In_channel.with_open_bin path In_channel.input_all)
    with Sys_error _ -> None
  in
  let* doc = Result.to_option (J.of_string text) in
  let names key f =
    let* l = Option.bind (J.member key doc) J.to_list in
    Some (List.filter_map f l)
  in
  let str k m = Option.bind (J.member k m) J.to_string_opt in
  let* end_to_end =
    names "end_to_end" (fun m ->
        let* name = str "name" m in
        let* better = str "better" m in
        let* bound = Option.bind (J.member "bound" m) J.to_float in
        Some { name; lower_better = better = "lower"; bound })
  in
  let* per_layer = names "per_layer" (str "name") in
  Some { end_to_end; per_layer }

(* The output's last line: the metrics BENCHMARK.json names (all of
   them when it is absent), keyed plainly for one workload and as
   workload/metric for several. *)
let final_line ~benchmark ~trace results =
  let wanted =
    match benchmark with
    | Some s when trace -> Some s.per_layer
    | Some s -> Some (List.map (fun b -> b.name) s.end_to_end)
    | None -> None
  in
  let missing = ref [] in
  let pick (r : Run.result) =
    let ms = if trace then r.Run.per_layer else r.Run.e2e in
    match wanted with
    | None -> ms
    | Some names ->
      List.filter_map
        (fun n ->
           match List.find_opt (fun (m, v, _) -> m = n && Float.is_finite v) ms with
           | Some m -> Some m
           | None ->
             missing := (r.Run.spec.World.name ^ "/" ^ n) :: !missing;
             None)
        names
  in
  let keyed =
    match results with
    | [ r ] -> pick r
    | _ ->
      List.concat_map
        (fun (r : Run.result) ->
           List.map
             (fun (n, v, u) -> (r.Run.spec.World.name ^ "/" ^ n, v, u))
             (pick r))
        results
  in
  let correct =
    !missing = [] && List.for_all (fun (r : Run.result) -> r.Run.correct) results
  in
  List.iter (Printf.eprintf "metric not measured: %s\n") !missing;
  let sum f = List.fold_left (fun a r -> a + f r) 0 results in
  ( correct,
    J.to_string
      (J.Obj
         [ ("correct", J.Bool correct);
           ("attempted", J.Int (sum Run.attempted));
           ("failed", J.Int (sum Run.failed));
           ("metrics", metrics_json keyed) ]) )

(* --- compare --- *)

(* Quartiles as Python's statistics.quantiles(values, n=4) gives them
   (the "exclusive" method). *)
let quartiles l =
  let a = Array.of_list l in
  Array.sort compare a;
  let ld = Array.length a in
  if ld = 1 then (a.(0), a.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 3)

(* Per workload, the values each file holds for [metric]. *)
let values files ~workload ~metric =
  List.filter_map
    (fun doc ->
       let* ws = Option.bind (J.member "workloads" doc) J.to_list in
       let* w =
         List.find_opt
           (fun w -> J.member "workload" w = Some (J.String workload))
           ws
       in
       let* ms = J.member "metrics" w in
       let* m = J.member metric ms in
       Option.bind (J.member "value" m) J.to_float)
    files

let verdict ~lower_better ~bound ps cs =
  let pm = Run.median ps and cm = Run.median cs in
  let spread l =
    let q1, q3 = quartiles l in
    (q3 -. q1) /. Float.abs (Run.median l)
  in
  let gain = (if lower_better then pm -. cm else cm -. pm) /. Float.abs pm in
  let beats c p = if lower_better then c < p else c > p in
  let every_run_better =
    List.for_all (fun c -> List.for_all (fun p -> beats c p) ps) cs
  in
  if Float.max (spread ps) (spread cs) > bound then
    if every_run_better then "better" else "unresolved"
  else if gain < -.bound then "worse"
  else if gain > bound then "better"
  else "unchanged"

(* One row per workload and end-to-end metric of BENCHMARK.json.  A run
   whose output checks failed, a failed op included, is listed and makes
   the comparison fail. *)
let compare ~benchmark parents changes =
  let load path =
    match
      J.of_string (In_channel.with_open_bin path In_channel.input_all)
    with
    | Ok doc -> (path, doc)
    | Error e -> failwith (path ^ ": " ^ e)
  in
  let workloads_of doc =
    Option.value ~default:[] (Option.bind (J.member "workloads" doc) J.to_list)
  in
  let name w =
    Option.value ~default:"?"
      (Option.bind (J.member "workload" w) J.to_string_opt)
  in
  let ps = List.map load parents and cs = List.map load changes in
  let failing =
    List.concat_map
      (fun (path, doc) ->
         List.filter_map
           (fun w ->
              if J.member "correct" w = Some (J.Bool true) then None
              else Some (Printf.sprintf "%s: %s" path (name w)))
           (workloads_of doc))
      (ps @ cs)
  in
  List.iter (Printf.printf "run failed its output checks: %s\n") failing;
  let ps = List.map snd ps and cs = List.map snd cs in
  let workloads =
    List.concat_map (fun doc -> List.map name (workloads_of doc)) ps
    |> List.sort_uniq compare
  in
  Printf.printf "%-9s %-14s %-34s %-34s %9s  %s\n" "workload" "metric"
    "parent median [q1, q3]" "change median [q1, q3]" "change" "verdict";
  let worse = ref false in
  List.iter
    (fun workload ->
       List.iter
         (fun b ->
            let pv = values ps ~workload ~metric:b.name
            and cv = values cs ~workload ~metric:b.name in
            if pv <> [] && cv <> [] then begin
              let cell l =
                let q1, q3 = quartiles l in
                Printf.sprintf "%s [%s, %s]"
                  (value_string (Run.median l)) (value_string q1)
                  (value_string q3)
              in
              let pm = Run.median pv and cm = Run.median cv in
              let v =
                verdict ~lower_better:b.lower_better ~bound:b.bound pv cv
              in
              if v = "worse" then worse := true;
              Printf.printf "%-9s %-14s %-34s %-34s %+8.1f%%  %s\n" workload
                b.name (cell pv) (cell cv)
                (100.0 *. (cm -. pm) /. pm)
                v
            end)
         benchmark.end_to_end)
    workloads;
  failing = [] && not !worse
