(* lib/parallel: the domain pool's ordering and error contracts, and the
   determinism contract of Sweep — the job count may only move wall-clock,
   never results or recorded metrics.  The last test enforces that end to
   end by diffing --no-info JSON dumps from two bench/main.exe runs. *)

module Pool = Parallel.Pool
module Sweep = Parallel.Sweep
module Json = Obs.Json
module Registry = Obs.Registry

let qtest = QCheck_alcotest.to_alcotest
let check_int = Alcotest.(check int)

(* --- pool --- *)

let test_pool_order () =
  let out =
    Pool.map ~jobs:4 ~f:(fun i x -> (i, x * 3)) (Array.init 100 Fun.id)
  in
  Array.iteri
    (fun i (j, y) ->
       check_int "index passed through" i j;
       check_int "value in input order" (i * 3) y)
    out

let test_pool_single_job () =
  let out = Pool.map ~jobs:1 ~f:(fun _ x -> x + 1) (Array.init 10 Fun.id) in
  Alcotest.(check (array int)) "serial path" (Array.init 10 succ) out

exception Boom of int

let test_pool_exception () =
  let f i () = if i mod 7 = 3 then raise (Boom i) in
  match Pool.map ~jobs:4 ~f (Array.make 40 ()) with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom i -> check_int "lowest failing index re-raised" 3 i

(* --- sweep determinism --- *)

(* a stand-in for a real trial: burns the per-trial random stream and
   records into the per-trial registry *)
let trial ctx n =
  let rng = Netsim.Rng.of_int ctx.Sweep.seed in
  let total = ref 0 in
  for _ = 1 to n + 1 do total := !total + Netsim.Rng.int rng 1000 done;
  Registry.counter ctx.Sweep.registry ~exp:"T"
    (Registry.key "total" [("i", string_of_int ctx.Sweep.index)])
    !total;
  !total

let dump reg =
  Json.to_string ~pretty:true
    (Registry.to_json ~include_info:false reg ~commit:"test")

let run_sweep ~jobs ~seed points =
  let reg = Registry.create () in
  let res = Sweep.run ~jobs ~into:reg ~seed ~trial points in
  (res, dump reg)

let test_sweep_jobs_equal () =
  let r1, d1 = run_sweep ~jobs:1 ~seed:7 [3; 5; 8; 13; 2; 9] in
  let r4, d4 = run_sweep ~jobs:4 ~seed:7 [3; 5; 8; 13; 2; 9] in
  Alcotest.(check (list int)) "trial results" r1 r4;
  Alcotest.(check string) "registry dumps" d1 d4

let prop_jobs_invariant =
  QCheck.Test.make ~name:"sweep independent of job count" ~count:50
    QCheck.(pair small_nat (small_list small_nat))
    (fun (seed, points) ->
       run_sweep ~jobs:1 ~seed points = run_sweep ~jobs:4 ~seed points)

(* --- end-to-end: the experiment harness across --jobs --- *)

(* The harness is built beside this executable (test/dune's deps), so
   it is found from this executable's path, whatever the working
   directory. *)
let bench_exe =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bench" "main.exe")

let bench_dump jobs =
  let out = Filename.temp_file "sweep_eq" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove out) (fun () ->
      let null = if Sys.win32 then "NUL" else "/dev/null" in
      let cmd =
        Filename.quote_command bench_exe ~stdout:null
          [ "E6"; "E17"; "--jobs"; string_of_int jobs; "--no-info"; "--json";
            out ]
      in
      (match Sys.command cmd with
       | 0 -> ()
       | n -> Alcotest.failf "%s exited with %d" cmd n);
      In_channel.with_open_bin out In_channel.input_all)

let test_bench_equivalence () =
  Alcotest.(check string) "E6/E17 dumps byte-identical across --jobs"
    (bench_dump 1) (bench_dump 4)

let suite =
  [ ( "parallel",
      [ Alcotest.test_case "pool preserves input order" `Quick
          test_pool_order;
        Alcotest.test_case "pool jobs=1 serial path" `Quick
          test_pool_single_job;
        Alcotest.test_case "pool re-raises first exception" `Quick
          test_pool_exception;
        Alcotest.test_case "sweep jobs=1 = jobs=4" `Quick
          test_sweep_jobs_equal;
        qtest prop_jobs_invariant;
        Alcotest.test_case "bench dumps byte-identical across --jobs" `Slow
          test_bench_equivalence ] ) ]
