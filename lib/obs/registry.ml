type t = { tbl : (string, (string, Metric.t) Hashtbl.t) Hashtbl.t }

let create () = { tbl = Hashtbl.create 32 }
let default = create ()

let key name labels =
  match labels with
  | [] -> name
  | labels ->
    let rendered =
      String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels)
    in
    name ^ "{" ^ rendered ^ "}"

let exp_table t exp =
  match Hashtbl.find_opt t.tbl exp with
  | Some tbl -> tbl
  | None ->
    let tbl = Hashtbl.create 16 in
    Hashtbl.replace t.tbl exp tbl;
    tbl

let set t ~exp ?(labels = []) name metric =
  Hashtbl.replace (exp_table t exp) (key name labels) metric

let counter t ~exp ?labels ?(tol = Metric.Exact) name v =
  set t ~exp ?labels name { Metric.value = Metric.Counter v; tol }

let gauge t ~exp ?labels ?(tol = Metric.Exact) name v =
  set t ~exp ?labels name { Metric.value = Metric.Gauge v; tol }

let hist t ~exp name samples =
  set t ~exp name
    { Metric.value = Metric.hist_of_samples samples; tol = Metric.Exact }

exception Duplicate_metric of string

let merge_into ~into src =
  Hashtbl.iter
    (fun exp src_tbl ->
       let dst_tbl = exp_table into exp in
       (* Deterministic insertion order regardless of the source table's
          internal layout: sort the keys before inserting. *)
       let keys =
         Hashtbl.fold (fun k v acc -> (k, v) :: acc) src_tbl []
         |> List.sort (fun (a, _) (b, _) -> String.compare a b)
       in
       List.iter
         (fun (k, m) ->
            if Hashtbl.mem dst_tbl k then
              raise (Duplicate_metric (exp ^ "/" ^ k));
            Hashtbl.replace dst_tbl k m)
         keys)
    src.tbl

let experiments t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.tbl []
  |> List.sort String.compare

let metrics t ~exp =
  match Hashtbl.find_opt t.tbl exp with
  | None -> []
  | Some tbl ->
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let schema_version = 1

let to_json ?(include_info = true) t ~commit =
  let keep (m : Metric.t) = include_info || m.Metric.tol <> Metric.Info in
  let exps =
    List.filter_map
      (fun exp ->
         match
           List.filter_map
             (fun (k, m) -> if keep m then Some (k, Metric.to_json m) else None)
             (metrics t ~exp)
         with
         | [] when not include_info -> None
         | fields -> Some (exp, Json.Obj fields))
      (experiments t)
  in
  Json.Obj
    [ ("schema_version", Json.Int schema_version);
      ("commit", Json.String commit);
      ("experiments", Json.Obj exps) ]

let ( let* ) r f = Result.bind r f

let of_json j =
  let* () =
    match Option.bind (Json.member "schema_version" j) Json.to_int with
    | Some v when v = schema_version -> Ok ()
    | Some v ->
      Error
        (Printf.sprintf "schema_version %d, this build reads %d" v
           schema_version)
    | None -> Error "missing schema_version"
  in
  let* exps =
    match Option.bind (Json.member "experiments" j) Json.to_obj with
    | Some fields -> Ok fields
    | None -> Error "missing experiments object"
  in
  let t = create () in
  let rec load_exps = function
    | [] -> Ok t
    | (exp, v) :: rest ->
      let* fields =
        match Json.to_obj v with
        | Some fields -> Ok fields
        | None -> Error (Printf.sprintf "experiment %s is not an object" exp)
      in
      let rec load_metrics = function
        | [] -> Ok ()
        | (k, mj) :: rest ->
          (match Metric.of_json mj with
           | Ok m ->
             Hashtbl.replace (exp_table t exp) k m;
             load_metrics rest
           | Error e -> Error (Printf.sprintf "%s/%s: %s" exp k e))
      in
      let* () = load_metrics fields in
      load_exps rest
  in
  load_exps exps
