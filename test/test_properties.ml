(* Property-based tests of protocol-level invariants: random roaming
   itineraries always converge, the cache behaves like its functional
   model, re-tunneling respects the list bound, and the rate limiter never
   violates its interval. *)

module Time = Netsim.Time
module Addr = Ipv4.Addr
module Node = Net.Node
module Topology = Net.Topology
module Agent = Mhrp.Agent
module TG = Workload.Topo_gen

let qtest = QCheck_alcotest.to_alcotest

(* --- random roaming always converges --- *)

(* Build figure1 + second cell; apply a random itinerary of moves over
   {netB(home), netD, netE}; after quiescence, a packet from S must be
   delivered, the home-agent database must match the mobile host's own
   idea of its location, and a second packet must take the optimal path
   for that location. *)
let roaming_converges (seed, stops) =
  let f = TG.figure1 ~seed () in
  let topo = f.TG.topo in
  let net_e = Topology.add_lan topo ~net:5 "netE" in
  let r5n = Topology.add_router topo "R5" [(f.TG.net_c, 3); (net_e, 1)] in
  Topology.compute_routes topo;
  let r5 = Agent.create r5n in
  Agent.enable_foreign_agent r5
    ~iface:(Option.get (Node.iface_to r5n (Net.Lan.prefix net_e)));
  let metrics = Workload.Metrics.create topo in
  let traffic = Workload.Traffic.create metrics (Topology.engine topo) in
  Workload.Metrics.watch_receiver metrics f.TG.m;
  let m_addr = Agent.address f.TG.m in
  let lan_of = function
    | 0 -> f.TG.net_b
    | 1 -> f.TG.net_d
    | _ -> net_e
  in
  List.iteri
    (fun k stop ->
       Workload.Mobility.move_at topo f.TG.m
         ~at:(Time.of_sec (1.0 +. float_of_int k)) (lan_of stop))
    stops;
  let settle = 1.0 +. float_of_int (List.length stops) +. 1.0 in
  Workload.Traffic.at traffic (Time.of_sec settle) (fun () ->
      Workload.Traffic.send_udp traffic ~src:f.TG.s ~dst:m_addr ());
  Workload.Traffic.at traffic (Time.of_sec (settle +. 1.0)) (fun () ->
      Workload.Traffic.send_udp traffic ~src:f.TG.s ~dst:m_addr ());
  Topology.run ~until:(Time.of_sec (settle +. 4.0)) topo;
  let records = Workload.Metrics.records metrics in
  let all_delivered =
    List.for_all (fun r -> r.Workload.Metrics.delivered_at <> None) records
  in
  let db_matches =
    match Agent.home_agent f.TG.r2, Agent.mobile f.TG.m with
    | Some ha, Some mh ->
      let db = Mhrp.Home_agent.location ha m_addr in
      (match mh.Mhrp.Mobile_host.phase with
       | Mhrp.Mobile_host.At_home -> db = Some Addr.zero
       | Mhrp.Mobile_host.Registered fa -> db = Some fa
       | _ -> false)
    | _ -> false
  in
  all_delivered && db_matches

let arb_itinerary =
  QCheck.make
    ~print:(fun (seed, stops) ->
        Printf.sprintf "seed=%d stops=[%s]" seed
          (String.concat ";" (List.map string_of_int stops)))
    QCheck.Gen.(
      pair (int_bound 1000)
        (list_size (int_range 1 6) (int_bound 2)))

(* --- location cache vs a functional model --- *)

type cache_op =
  | Insert of int * int
  | Delete of int
  | Find of int

let arb_cache_ops =
  let gen_op =
    QCheck.Gen.(
      frequency
        [ (4, map2 (fun m f -> Insert (m, f)) (int_bound 20) (int_range 1 20));
          (1, map (fun m -> Delete m) (int_bound 20));
          (3, map (fun m -> Find m) (int_bound 20)) ])
  in
  QCheck.make
    ~print:(fun ops ->
        String.concat ";"
          (List.map
             (function
               | Insert (m, f) -> Printf.sprintf "I(%d,%d)" m f
               | Delete m -> Printf.sprintf "D(%d)" m
               | Find m -> Printf.sprintf "F(%d)" m)
             ops))
    QCheck.Gen.(list_size (int_range 0 200) gen_op)

(* With capacity >= key-space the cache must agree exactly with a Map. *)
let cache_matches_model ops =
  let cache = Mhrp.Location_cache.create ~capacity:32 in
  let module M = Map.Make (Int) in
  let model = ref M.empty in
  List.for_all
    (fun op ->
       match op with
       | Insert (m, f) ->
         Mhrp.Location_cache.insert cache ~mobile:(Addr.host 1 (m + 1))
           ~foreign_agent:(Addr.host 2 f);
         model := M.add m f !model;
         true
       | Delete m ->
         Mhrp.Location_cache.delete cache (Addr.host 1 (m + 1));
         model := M.remove m !model;
         true
       | Find m ->
         let got = Mhrp.Location_cache.find cache (Addr.host 1 (m + 1)) in
         let expect =
           Option.map (fun f -> Addr.host 2 f) (M.find_opt m !model)
         in
         got = expect)
    ops

(* --- re-tunneling invariants --- *)

let retunnel_list_bounded (max_list, hops) =
  let pkt =
    Ipv4.Packet.make ~proto:Ipv4.Proto.udp ~src:(Addr.host 100 1)
      ~dst:(Addr.host 2 10)
      (Ipv4.Udp.encode (Ipv4.Udp.make ~src_port:1 ~dst_port:2 Bytes.empty))
  in
  let rec walk k pkt =
    if k >= hops then true
    else begin
      let me = Addr.host 50 (k + 1) in
      let next = Addr.host 50 (k + 2) in
      match Mhrp.Encap.retunnel ~max_prev_sources:max_list ~me ~new_dst:next pkt with
      | Some (Mhrp.Encap.Retunneled p)
      | Some (Mhrp.Encap.Retunneled_overflow { packet = p; _ }) ->
        (match Mhrp.Encap.header_of p with
         | Some h ->
           List.length h.Mhrp.Mhrp_header.prev_sources <= max_list
           && walk (k + 1) p
         | None -> false)
      | Some (Mhrp.Encap.Loop_detected _) -> true (* distinct addrs: cannot happen *)
      | None -> false
    end
  in
  walk 0
    (Mhrp.Encap.tunnel_by_agent ~agent:(Addr.host 100 1)
       ~foreign_agent:(Addr.host 50 1) pkt)

(* --- routing over random topologies --- *)

(* Generate a random connected internetwork: [n] routers, each attached to
   its own stub LAN, joined by a random spanning tree plus extra random
   links.  Every pair of stub hosts must be mutually reachable and the
   computed routes must contain no forwarding loops (delivery implies
   loop-freedom: a loop would eat the TTL and drop). *)
let random_topology_routes (seed, n, extra_links) =
  let topo = Topology.create ~seed () in
  let rng = Netsim.Rng.of_int (seed + 1) in
  let stubs =
    Array.init n (fun i ->
        Topology.add_lan topo ~net:(10 + i) (Printf.sprintf "stub%d" i))
  in
  let link_lans = ref [] in
  let next_link = ref 0 in
  let attachments = Array.make n [] in
  let link a b =
    let lan =
      Topology.add_lan topo ~net:(100 + !next_link)
        (Printf.sprintf "link%d" !next_link)
    in
    incr next_link;
    link_lans := lan :: !link_lans;
    attachments.(a) <- (lan, 1) :: attachments.(a);
    attachments.(b) <- (lan, 2) :: attachments.(b)
  in
  (* spanning tree *)
  for i = 1 to n - 1 do
    link (Netsim.Rng.int rng i) i
  done;
  for _ = 1 to extra_links do
    let a = Netsim.Rng.int rng n and b = Netsim.Rng.int rng n in
    if a <> b then link a b
  done;
  let _routers =
    Array.init n (fun i ->
        Topology.add_router topo (Printf.sprintf "r%d" i)
          ((stubs.(i), 1) :: attachments.(i)))
  in
  let hosts =
    Array.init n (fun i ->
        Topology.add_host topo (Printf.sprintf "h%d" i) stubs.(i) 10)
  in
  Topology.compute_routes topo;
  let delivered = Hashtbl.create 16 in
  Array.iter
    (fun h ->
       Node.set_proto_handler h Ipv4.Proto.udp (fun node v ->
           let pkt = Ipv4.Packet.View.decode v in
           Hashtbl.replace delivered
             (Node.primary_addr node, pkt.Ipv4.Packet.id) ()))
    hosts;
  (* a few random host pairs *)
  let pairs =
    List.init (min 6 (n * (n - 1))) (fun k ->
        let a = Netsim.Rng.int rng n in
        let b = (a + 1 + Netsim.Rng.int rng (n - 1)) mod n in
        (k + 1, a, b))
  in
  List.iter
    (fun (id, a, b) ->
       Node.send hosts.(a)
         (Ipv4.Packet.make ~id ~proto:Ipv4.Proto.udp
            ~src:(Node.primary_addr hosts.(a))
            ~dst:(Node.primary_addr hosts.(b))
            (Ipv4.Udp.encode
               (Ipv4.Udp.make ~src_port:1 ~dst_port:2 Bytes.empty))))
    pairs;
  Topology.run ~until:(Time.of_sec 30.0) topo;
  List.for_all
    (fun (id, _, b) ->
       Hashtbl.mem delivered (Node.primary_addr hosts.(b), id))
    pairs

let arb_topology =
  QCheck.make
    ~print:(fun (seed, n, extra) ->
        Printf.sprintf "seed=%d n=%d extra=%d" seed n extra)
    QCheck.Gen.(
      triple (int_bound 10_000) (int_range 2 12) (int_range 0 8))

(* --- rate limiter interval invariant --- *)

let limiter_respects_interval times =
  let r =
    Mhrp.Rate_limiter.create ~capacity:1024
      ~min_interval:(Time.of_ms 100)
  in
  let sorted = List.sort compare (List.map (fun t -> t mod 10_000_000) times) in
  let last_allowed = ref None in
  List.for_all
    (fun us ->
       let now = Time.of_us us in
       let ok = Mhrp.Rate_limiter.allow r ~now (Addr.host 1 1) in
       if ok then begin
         let fine =
           match !last_allowed with
           | None -> true
           | Some prev -> us - prev >= 100_000
         in
         last_allowed := Some us;
         fine
       end
       else true)
    sorted

(* --- decoders are total --- *)

(* Hostile or corrupted wire bytes must never raise out of a decoder:
   the authenticated control plane rejects them with [None] and counts
   the drop, it does not crash the agent. *)
let decoders_total s =
  let buf = Bytes.of_string s in
  let no_raise name f =
    match f () with
    | _ -> true
    | exception e ->
      QCheck.Test.fail_reportf "%s raised %s on %S" name
        (Printexc.to_string e) s
  in
  let n = Bytes.length buf in
  let at off len =
    no_raise "Icmp.decode_at" (fun () -> Ipv4.Icmp.decode_at buf ~off ~len)
    && no_raise "Control.decode_at" (fun () ->
        Mhrp.Control.decode_at buf ~off ~len)
    && no_raise "Udp.length_at" (fun () -> Ipv4.Udp.length_at buf ~off ~len)
    && no_raise "Mhrp_header.decode_at" (fun () ->
        Mhrp.Mhrp_header.decode_at buf ~off ~len)
    && no_raise "Tcp_lite.valid_at" (fun () ->
        Ipv4.Tcp_lite.valid_at buf ~off ~len)
  in
  (* decoders that may reject with [Invalid_argument], and nothing else *)
  let rejects name f =
    no_raise name (fun () ->
        match f () with _ -> () | exception Invalid_argument _ -> ())
  in
  (* the baselines' decoders, fed the bytes as a packet payload *)
  let carried proto =
    Ipv4.Packet.make ~proto ~src:(Addr.host 1 1) ~dst:(Addr.host 2 1) buf
  in
  no_raise "Control.decode" (fun () -> Mhrp.Control.decode buf)
  && no_raise "Extension.decode" (fun () -> Auth.Extension.decode buf)
  && no_raise "Extension.split" (fun () -> Auth.Extension.split buf)
  && no_raise "Extension.decode_at" (fun () ->
      Auth.Extension.decode_at buf 0)
  && no_raise "Icmp.decode_opt" (fun () -> Ipv4.Icmp.decode_opt buf)
  && rejects "Udp.decode" (fun () -> Ipv4.Udp.decode buf)
  && no_raise "Lsr.Packet.decode_opt" (fun () -> Lsr.Packet.decode_opt buf)
  && no_raise "Packet.decode_prefix" (fun () ->
      Ipv4.Packet.decode_prefix buf)
  && no_raise "Mhrp_header.decode_prefix" (fun () ->
      Mhrp.Mhrp_header.decode_prefix buf)
  && rejects "Packet.decode" (fun () -> Ipv4.Packet.decode buf)
  && rejects "Ip_option.decode_all" (fun () -> Ipv4.Ip_option.decode_all buf)
  && rejects "Lsr.Packet.decode" (fun () -> Lsr.Packet.decode buf)
  && rejects "Tcp_lite.decode" (fun () -> Ipv4.Tcp_lite.decode buf)
  && no_raise "Ipip.decap" (fun () ->
      Baselines.Ipip.decap (carried Ipv4.Proto.ipip))
  && no_raise "Iptp.decap" (fun () ->
      Baselines.Iptp.decap (carried Ipv4.Proto.iptp))
  && no_raise "Viph.peek" (fun () ->
      Baselines.Viph.peek (carried Ipv4.Proto.vip))
  && no_raise "Viph.strip" (fun () ->
      Baselines.Viph.strip (carried Ipv4.Proto.vip))
  && at 0 n && at (n / 3) (n - (n / 3)) && at (n / 2) n && at (-1) 4

(* --- offset decoders agree with their whole-buffer forms --- *)

let of_hex h =
  Bytes.init (String.length h / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

(* The golden wire corpus: real encodings of every message kind, each
   under its name.  Found from [dune runtest]'s directory (the test
   directory) or from the repository root, whence [dune exec
   test/test_main.exe] runs. *)
let golden_entries =
  lazy
    (let path =
       List.find Sys.file_exists
         ["golden/wire_corpus.hex"; "test/golden/wire_corpus.hex"]
     in
     In_channel.with_open_text path In_channel.input_all
     |> String.split_on_char '\n'
     |> List.filter_map (fun line ->
         match String.split_on_char ' ' line with
         | [name; hex] -> Some (name, of_hex hex)
         | _ -> None)
     |> Array.of_list)

(* A copy of [msg] with [overwrites] random bytes overwritten and, one
   time in four, cut short. *)
let mutate int msg ~overwrites =
  let msg = Bytes.copy msg in
  let m = Bytes.length msg in
  for _ = 1 to overwrites do
    Bytes.set msg (int m) (Char.chr (int 256))
  done;
  Bytes.sub msg 0 (if int 4 = 0 then int (m + 1) else m)

(* A random corpus message, mutated. *)
let corrupted_message int ~overwrites =
  let corpus = Lazy.force golden_entries in
  mutate int (snd corpus.(int (Array.length corpus))) ~overwrites

(* One to four bytes overwritten: hostile bytes that get past the first
   field checks, which random strings rarely do. *)
let mutated_sample seed =
  let int = Netsim.Rng.int (Netsim.Rng.of_int seed) in
  Bytes.to_string (corrupted_message int ~overwrites:(1 + int 4))

(* The corpus's ICMP messages and TCP segments, each with the offset of
   its checksum, which covers the whole message: a mutation almost
   never gets past it, so [mutated_sample]s of these kinds pass their
   own decoders about 0.2 % (ICMP) and 0.1 % (TCP) of the time. *)
let checksummed_corpus =
  lazy
    (Lazy.force golden_entries
     |> Array.to_list
     |> List.filter_map (fun (name, msg) ->
         if String.starts_with ~prefix:"icmp-" name then Some (`Icmp, 2, msg)
         else if String.starts_with ~prefix:"tcp-" name then
           Some (`Tcp, 16, msg)
         else None)
     |> Array.of_list)

(* A corpus ICMP message or TCP segment mutated as in [mutated_sample],
   then re-checksummed when its checksum field survived the cut, so
   the mutation reaches the fields behind the checksum. *)
let rechecksummed_sample seed =
  let int = Netsim.Rng.int (Netsim.Rng.of_int seed) in
  let corpus = Lazy.force checksummed_corpus in
  let kind, at, msg = corpus.(int (Array.length corpus)) in
  let msg = mutate int msg ~overwrites:(1 + int 4) in
  let n = Bytes.length msg in
  if n >= at + 2 then Ipv4.Checksum.set msg ~at ~off:0 ~len:n;
  (kind, msg)

(* Whether a sample passes its own kind's decoder. *)
let accepted (kind, msg) =
  match kind with
  | `Icmp -> Option.is_some (Ipv4.Icmp.decode_opt msg)
  | `Tcp -> Option.is_some (Ipv4.Tcp_lite.decode msg)

(* A corpus message framed by random bytes, sometimes corrupted or cut
   short, and a window onto it: at the message, at its IP or IP+UDP
   payload, anywhere, or outside the buffer. *)
let framed_sample seed =
  let rng = Netsim.Rng.of_int seed in
  let int = Netsim.Rng.int rng in
  let msg = corrupted_message int ~overwrites:(int 2) in
  let cut = Bytes.length msg in
  let pre = int 24 and post = int 8 in
  let buf = Bytes.init (pre + cut + post) (fun _ -> Char.chr (int 256)) in
  Bytes.blit msg 0 buf pre cut;
  let n = Bytes.length buf in
  let off =
    match int 6 with
    | 0 -> pre
    | 1 -> pre + 20
    | 2 -> pre + 28
    | 3 -> int (n + 1)
    | 4 -> -1 - int 4
    | _ -> n + int 4
  in
  let len =
    match int 3 with
    | 0 -> n - off
    | 1 -> int (max 1 (n - off + 1))
    | _ -> int (n + 8) - 4
  in
  (buf, off, len)

(* The offset decoders never raise, reject windows outside the buffer,
   and on any window inside it answer exactly what the whole-buffer
   decoders answer on a copy of that window. *)
let offset_decoders_agree seed =
  let buf, off, len = framed_sample seed in
  let no_raise name f =
    match f () with
    | v -> v
    | exception e ->
      QCheck.Test.fail_reportf "%s raised %s at off=%d len=%d" name
        (Printexc.to_string e) off len
  in
  let icmp =
    no_raise "Icmp.decode_at" (fun () -> Ipv4.Icmp.decode_at buf ~off ~len)
  in
  let ctl =
    no_raise "Control.decode_at" (fun () ->
        Mhrp.Control.decode_at buf ~off ~len)
  in
  let udp =
    no_raise "Udp.length_at" (fun () -> Ipv4.Udp.length_at buf ~off ~len)
  in
  let mh =
    no_raise "Mhrp_header.decode_at" (fun () ->
        Mhrp.Mhrp_header.decode_at buf ~off ~len)
  in
  let tcp =
    no_raise "Tcp_lite.valid_at" (fun () ->
        Ipv4.Tcp_lite.valid_at buf ~off ~len)
  in
  if off < 0 || len < 0 || off + len > Bytes.length buf then
    icmp = None && ctl = None && udp < 0 && mh = None && not tcp
  else begin
    let window = Bytes.sub buf off len in
    icmp = Ipv4.Icmp.decode_opt window
    && tcp = Option.is_some (Ipv4.Tcp_lite.decode window)
    && ctl = Mhrp.Control.decode window
    && (match mh, Mhrp.Mhrp_header.decode window with
        | Some h, (h', _) -> Mhrp.Mhrp_header.equal h h'
        | None, _ -> false
        | exception Invalid_argument _ -> mh = None)
    &&
    match Ipv4.Udp.decode window with
    | d ->
      udp = Ipv4.Udp.header_length + Bytes.length d.Ipv4.Udp.data
      && Ipv4.Udp.dst_port_at buf ~off = d.Ipv4.Udp.dst_port
    | exception Invalid_argument _ -> udp < 0
  end

(* Truncating a genuine authenticated message anywhere must yield a clean
   rejection, never an exception, and never a still-valid extension. *)
let truncations_rejected (len, nonce) =
  let key = Auth.Siphash.of_string "property key" in
  let payload =
    Mhrp.Control.encode
      (Mhrp.Control.Reg_request
         { mobile = Addr.host 2 10; foreign_agent = Addr.host 4 1 })
  in
  let ext =
    Auth.Extension.sign ~key ~spi:9 ~timestamp:(Time.of_ms 250)
      ~nonce:(Int64.of_int nonce) payload
  in
  let wire = Bytes.cat payload (Auth.Extension.encode ext) in
  let cut = min len (Bytes.length wire - 1) in
  let truncated = Bytes.sub wire 0 cut in
  (match Auth.Extension.split truncated with
   | None -> true
   | Some (prefix, ext') ->
     (* A shorter prefix can still parse as some extension, but the MAC
        must no longer cover this payload. *)
     not (Auth.Extension.verify ~key prefix ext'))
  && (match Mhrp.Control.decode truncated with _ -> true)

(* Signing and verifying are inverses for any payload/nonce/timestamp. *)
let sign_verify_roundtrip (s, nonce, ts_us) =
  let key = Auth.Siphash.of_string "roundtrip" in
  let payload = Bytes.of_string s in
  let ext =
    Auth.Extension.sign ~key ~spi:1 ~timestamp:(Time.of_us ts_us)
      ~nonce:(Int64.of_int nonce) payload
  in
  match Auth.Extension.split (Bytes.cat payload (Auth.Extension.encode ext)) with
  | Some (payload', ext') ->
    Bytes.equal payload payload'
    && Auth.Extension.verify ~key payload' ext'
  | None -> false

(* Re-checksummed samples of each kind over 4,000 fixed seeds: the share
   its own decoder accepts.  A mutation that only breaks the checksum
   tests nothing behind it; these must reach the field checks. *)
let rechecksummed_reach_decoders () =
  let samples = List.init 4000 rechecksummed_sample in
  List.iter
    (fun (kind, name) ->
       let mine = List.filter (fun (k, _) -> k = kind) samples in
       let n = List.length mine in
       let ok = List.length (List.filter accepted mine) in
       Alcotest.(check bool)
         (Printf.sprintf "%s: %d of %d accepted (%.1f %%)" name ok n
            (100.0 *. float_of_int ok /. float_of_int n))
         true (ok * 5 >= n))
    [ (`Icmp, "ICMP"); (`Tcp, "TCP") ]

let suite =
  [ ( "protocol-properties",
      [ qtest
          (QCheck.Test.make ~name:"random roaming always converges"
             ~count:15 arb_itinerary roaming_converges);
        qtest
          (QCheck.Test.make
             ~name:"location cache agrees with a map model (no eviction)"
             ~count:200 arb_cache_ops cache_matches_model);
        qtest
          (QCheck.Test.make
             ~name:"re-tunnel chains never exceed the list bound" ~count:100
             QCheck.(pair (int_range 1 8) (int_range 1 40))
             retunnel_list_bounded);
        qtest
          (QCheck.Test.make
             ~name:"random connected topologies route every host pair"
             ~count:25 arb_topology random_topology_routes);
        qtest
          (QCheck.Test.make
             ~name:"rate limiter never allows two sends within the interval"
             ~count:200
             QCheck.(list_of_size Gen.(int_range 0 100) (int_bound 10_000_000))
             limiter_respects_interval);
        qtest
          (QCheck.Test.make
             ~name:"decoders never raise on arbitrary bytes" ~count:500
             QCheck.(string_of_size Gen.(int_range 0 64))
             decoders_total);
        qtest
          (QCheck.Test.make
             ~name:"decoders never raise on mutated corpus messages"
             ~count:10_000
             QCheck.(make ~print:string_of_int Gen.(int_bound 1_000_000))
             (fun seed -> decoders_total (mutated_sample seed)));
        qtest
          (QCheck.Test.make
             ~name:"decoders never raise on re-checksummed ICMP and TCP \
                    corpus messages"
             ~count:10_000
             QCheck.(make ~print:string_of_int Gen.(int_bound 1_000_000))
             (fun seed ->
                decoders_total
                  (Bytes.to_string (snd (rechecksummed_sample seed)))));
        Alcotest.test_case
          "re-checksummed ICMP and TCP corpus messages reach their decoders"
          `Quick rechecksummed_reach_decoders;
        qtest
          (QCheck.Test.make
             ~name:"offset decoders agree with whole-buffer decoders"
             ~count:2000
             QCheck.(make ~print:string_of_int Gen.(int_bound 1_000_000))
             offset_decoders_agree);
        qtest
          (QCheck.Test.make
             ~name:"truncated authenticated messages are cleanly rejected"
             ~count:200
             QCheck.(pair (int_range 0 64) (int_bound 1_000_000))
             truncations_rejected);
        qtest
          (QCheck.Test.make ~name:"sign/verify roundtrip" ~count:200
             QCheck.(triple (string_of_size Gen.(int_range 0 64))
                       (int_bound 1_000_000) (int_bound 1_000_000_000))
             sign_verify_roundtrip) ] ) ]
