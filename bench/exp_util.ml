(* Shared helpers for the experiment harness: the experiment descriptor,
   table formatting, metric recording and common scenario plumbing. *)

module Time = Netsim.Time
module Addr = Ipv4.Addr
module Node = Net.Node
module Topology = Net.Topology
module Agent = Mhrp.Agent
module TG = Workload.Topo_gen

(* The first-class experiment: each [Exp_*] module exports one (or, for
   exp_recovery, two) of these and bench/main.ml just folds the list —
   no inline [(string * run) list], no special-cased id knowledge. *)
module Experiment = struct
  type t = {
    id : string;  (* the id accepted on the command line: "E6", "A", ... *)
    title : string;  (* one line for the usage screen *)
    records_ids : string list;
    (* registry experiment ids [run] records *beyond* [id]: E2 also
       records E9's at-home phase, so a baseline check restricted to a
       run of E2 must include E9 *)
    run : unit -> unit;
  }

  let make ?(records_ids = []) ~id ~title run =
    { id; title; records_ids; run }

  let recorded_ids t = t.id :: t.records_ids
end

let heading id title =
  Format.printf "@.=== %s: %s ===@." id title

let note fmt = Format.printf ("    " ^^ fmt ^^ "@.")

let table ~columns rows =
  let widths =
    List.mapi
      (fun i c ->
         List.fold_left
           (fun w row -> max w (String.length (List.nth row i)))
           (String.length c) rows)
      columns
  in
  let print_row cells =
    List.iteri
      (fun i cell -> Format.printf "  %-*s" (List.nth widths i + 2) cell)
      cells;
    Format.printf "@."
  in
  print_row columns;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row rows

(* Every number an experiment prints is also recorded here, so that
   bench/main.exe --json can dump it and --baseline --check can gate it.
   Counters and gauges default to exact comparison (the simulator is
   deterministic); use [rec_ms]/[~tol:(Pct _)] for timing-derived values.

   [?reg] selects the target registry: serial experiment code keeps the
   process-wide default, while sweep trials MUST pass their private
   [ctx.registry] — recording into the shared one from a worker domain
   is a race. *)
let registry = Obs.Registry.default

let rec_i ?(reg = registry) ~exp ?labels ?tol name v =
  Obs.Registry.counter reg ~exp ?labels ?tol name v

let rec_f ?(reg = registry) ~exp ?labels ?tol name v =
  Obs.Registry.gauge reg ~exp ?labels ?tol name v

let rec_flag ?reg ~exp ?labels name b =
  rec_i ?reg ~exp ?labels name (if b then 1 else 0)

let rec_ms ?(reg = registry) ~exp ?labels name us =
  Obs.Registry.gauge reg ~exp ?labels ~tol:(Obs.Metric.Pct 20.0) name
    (us /. 1000.0)

(* Run a sweep through the multicore runner and archive its wall-clock
   (never gated: Info tolerance, and the jobs label makes the key vary
   with the CLI's --jobs).  Sweep trials get a private registry in
   [ctx]; their metrics land in the default registry in grid order once
   every trial is done. *)
let sweep ~exp ?labels ~trial points =
  Parallel.Sweep.run ~trial points
    ~on_done:(fun s ->
        let labels =
          Option.value labels ~default:[]
          @ [("jobs", string_of_int s.Parallel.Sweep.jobs)]
        in
        rec_f ~exp ~labels ~tol:Obs.Metric.Info "sweep_wall_ms"
          (s.Parallel.Sweep.elapsed_s *. 1000.0))

let f1 v = Printf.sprintf "%.1f" v
let f2 v = Printf.sprintf "%.2f" v
let i v = string_of_int v
let ms_of_us us = Printf.sprintf "%.2f" (us /. 1000.0)

(* A standard 64-byte-payload UDP packet, the workloads' unit of traffic. *)
let sample_packet ?(id = 1) ~src ~dst () =
  Ipv4.Packet.make ~id ~proto:Ipv4.Proto.udp ~src ~dst
    (Ipv4.Udp.encode (Ipv4.Udp.make ~src_port:4000 ~dst_port:4000
                        (Bytes.make 64 '\000')))

type fig_env = {
  f : TG.figure1;
  metrics : Workload.Metrics.t;
  traffic : Workload.Traffic.t;
  m_addr : Addr.t;
}

let fig_setup ?config ?snoop_routers () =
  let f = TG.figure1 ?config ?snoop_routers () in
  let metrics = Workload.Metrics.create f.TG.topo in
  let traffic = Workload.Traffic.create metrics (Topology.engine f.TG.topo) in
  Workload.Metrics.watch_receiver metrics f.TG.m;
  Workload.Metrics.watch_receiver metrics f.TG.s;
  { f; metrics; traffic; m_addr = Agent.address f.TG.m }

let fig_at env sec g = Workload.Traffic.at env.traffic (Time.of_sec sec) g

let fig_send env sec =
  fig_at env sec (fun () ->
      Workload.Traffic.send_udp env.traffic ~src:env.f.TG.s ~dst:env.m_addr
        ())

let fig_move env sec lan =
  Workload.Mobility.move_at env.f.TG.topo env.f.TG.m ~at:(Time.of_sec sec)
    lan

let fig_run ?(until = 20.0) env =
  Topology.run ~until:(Time.of_sec until) env.f.TG.topo

(* Attach a second wireless cell (net E behind R3 via a new router R5),
   used by movement and failure experiments. *)
let add_second_cell env =
  let net_e = Topology.add_lan env.f.TG.topo ~net:5 "netE" in
  let r5n =
    Topology.add_router env.f.TG.topo "R5" [(env.f.TG.net_c, 3); (net_e, 1)]
  in
  Topology.compute_routes env.f.TG.topo;
  let r5 = Agent.create r5n in
  Agent.enable_foreign_agent r5
    ~iface:(Option.get (Node.iface_to r5n (Net.Lan.prefix net_e)));
  (net_e, r5)
