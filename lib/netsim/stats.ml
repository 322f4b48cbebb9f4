module Acc = struct
  type t = {
    mutable n : int;
    mutable mean : float;
    mutable m2 : float;
    mutable min : float;
    mutable max : float;
  }

  let create () =
    { n = 0; mean = 0.0; m2 = 0.0; min = infinity; max = neg_infinity }

  let add t x =
    t.n <- t.n + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x

  let count t = t.n
  let mean t = if t.n = 0 then 0.0 else t.mean

  let stddev t =
    if t.n < 2 then 0.0 else sqrt (t.m2 /. float_of_int (t.n - 1))

  let min t = if t.n = 0 then invalid_arg "Stats.Acc.min: empty" else t.min
  let max t = if t.n = 0 then invalid_arg "Stats.Acc.max: empty" else t.max
end

module Samples = struct
  type t = { mutable xs : float list; mutable n : int }

  let create () = { xs = []; n = 0 }

  let add t x =
    t.xs <- x :: t.xs;
    t.n <- t.n + 1

  let count t = t.n

  let percentile t p =
    if t.n = 0 then invalid_arg "Stats.Samples.percentile: empty";
    if p < 0.0 || p > 100.0 then
      invalid_arg "Stats.Samples.percentile: p out of range";
    let sorted = List.sort Float.compare t.xs in
    let arr = Array.of_list sorted in
    let rank =
      int_of_float (ceil (p /. 100.0 *. float_of_int t.n)) - 1
    in
    let rank = if rank < 0 then 0 else rank in
    arr.(rank)

  let to_metric ?(tol = Obs.Metric.Exact) t =
    { Obs.Metric.value = Obs.Metric.hist_of_samples t.xs; tol }
end

module Hist = struct
  type t = { tbl : (int, int) Hashtbl.t; mutable n : int }

  let create () = { tbl = Hashtbl.create 16; n = 0 }

  let add t v =
    let cur = Option.value ~default:0 (Hashtbl.find_opt t.tbl v) in
    Hashtbl.replace t.tbl v (cur + 1);
    t.n <- t.n + 1

  let count t = t.n

  let buckets t =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.tbl []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

  let mode t =
    if t.n = 0 then invalid_arg "Stats.Hist.mode: empty";
    let best, _ =
      List.fold_left
        (fun (bk, bv) (k, v) -> if v > bv then (k, v) else (bk, bv))
        (0, -1) (buckets t)
    in
    best
end
