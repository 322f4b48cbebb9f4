(* E14 — encapsulation overhead vs the link MTU (Section 4.1's "significant
   savings in space overhead", made concrete).

   A datagram sized near the 1500-byte Ethernet MTU fits unfragmented as
   plain IP, but each protocol's tunnel overhead lowers the payload at
   which fragmentation begins: MHRP's 8/12 bytes cost fragmentation over a
   5x smaller payload window than Matsushita's 40.  Fragment counts are
   computed with the real codecs and the real fragmenter. *)

open Exp_util
module Packet = Ipv4.Packet

let mtu = 1500

let udp_packet payload =
  Packet.make ~id:1 ~proto:Ipv4.Proto.udp ~src:(Addr.host 1 10)
    ~dst:(Addr.host 2 10)
    (Ipv4.Udp.encode
       (Ipv4.Udp.make ~src_port:4000 ~dst_port:4000
          (Bytes.make payload '\000')))

let encapsulations =
  [ ("plain IP", 0, fun pkt -> pkt);
    ("MHRP sender (8B)", 8,
     fun pkt -> Mhrp.Encap.tunnel_by_sender ~foreign_agent:(Addr.host 4 1) pkt);
    ("MHRP agent (12B)", 12,
     fun pkt ->
       Mhrp.Encap.tunnel_by_agent ~agent:(Addr.host 2 1)
         ~foreign_agent:(Addr.host 4 1) pkt);
    ("Columbia IPIP (24B)", 24,
     fun pkt ->
       Baselines.Ipip.encap ~outer_src:(Addr.host 2 1)
         ~outer_dst:(Addr.host 4 1) pkt);
    ("Sony VIP (28B)", 28,
     fun pkt ->
       Baselines.Viph.add
         { Baselines.Viph.vip_src = pkt.Packet.src;
           vip_dst = pkt.Packet.dst; hop_count = 0; timestamp = 1 }
         pkt);
    ("Matsushita IPTP (40B)", 40,
     fun pkt ->
       Baselines.Iptp.encap ~outer_src:(Addr.host 2 1)
         ~outer_dst:(Addr.host 4 1) pkt) ]

let fragments_of encap payload =
  List.length (Packet.fragment (encap (udp_packet payload)) ~mtu)

(* largest UDP payload that still travels in one frame *)
let onset encap =
  let rec search lo hi =
    if hi - lo <= 1 then lo
    else begin
      let mid = (lo + hi) / 2 in
      if fragments_of encap mid = 1 then search mid hi else search lo mid
    end
  in
  search 1 2000

let run () =
  heading "E14" "encapsulation overhead vs link MTU (fragmentation onset)";
  let payloads = [1400; 1432; 1440; 1452; 1464; 1472; 1600] in
  let slug name =
    match String.index_opt name ' ' with
    | Some k -> String.lowercase_ascii (String.sub name 0 k)
    | None -> String.lowercase_ascii name
  in
  let rows =
    List.map
      (fun (name, declared, encap) ->
         let proto =
           if String.length name > 5 && String.sub name 0 5 = "MHRP " then
             "mhrp_" ^ slug (String.sub name 5 (String.length name - 5))
           else slug name
         in
         rec_i ~exp:"E14" ~labels:[("protocol", proto)]
           "max_single_frame_payload" (onset encap);
         List.iter
           (fun p ->
              rec_i ~exp:"E14"
                ~labels:[("protocol", proto); ("payload", string_of_int p)]
                "fragments" (fragments_of encap p))
           payloads;
         name :: i declared
         :: i (onset encap)
         :: List.map (fun p -> i (fragments_of encap p)) payloads)
      encapsulations
  in
  table
    ~columns:("protocol" :: "overhead B" :: "max 1-frame payload"
              :: List.map (fun p -> i p ^ "B") payloads)
    rows;
  note
    "each protocol starts fragmenting full-size datagrams exactly its \
     overhead earlier than plain IP (MTU 1500, 28 bytes of IP+UDP \
     headers).  MHRP's small header keeps the widest fragmentation-free \
     window; IPTP's 40 bytes fragments datagrams that every other scheme \
     still carries whole — doubling frames, per-packet processing and \
     loss exposure for MTU-sized traffic."

let experiment =
  Experiment.make ~id:"E14"
    ~title:"encapsulation overhead vs link MTU (fragmentation onset)" run
