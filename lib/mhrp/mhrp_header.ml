type t = {
  orig_proto : Ipv4.Proto.t;
  mobile : Ipv4.Addr.t;
  prev_sources : Ipv4.Addr.t list;
}

let fixed_length = 8
let length t = fixed_length + (4 * List.length t.prev_sources)

let make ?(prev_sources = []) ~orig_proto ~mobile () =
  { orig_proto; mobile; prev_sources }

let append_source_max ~max t addr =
  if List.length t.prev_sources >= max then `Full
  else `Ok { t with prev_sources = t.prev_sources @ [addr] }

let truncate t addr = { t with prev_sources = [addr] }

(* Top-level, so a test on every re-tunnel allocates no closure. *)
let rec mem_addr a = function
  | [] -> false
  | x :: rest -> Ipv4.Addr.equal x a || mem_addr a rest

let mem_source t addr = mem_addr addr t.prev_sources

let tunnel_heads t ~incoming =
  if mem_source t incoming then t.prev_sources
  else t.prev_sources @ [incoming]

let original_sender t =
  match t.prev_sources with [] -> None | a :: _ -> Some a

let drop_last_source t =
  match List.rev t.prev_sources with
  | [] -> None
  | last :: rest ->
    Some ({ t with prev_sources = List.rev rest }, last)

let encode t transport =
  let count = List.length t.prev_sources in
  if count > 255 then invalid_arg "Mhrp_header.encode: list too long";
  let hlen = length t in
  let buf = Bytes.make (hlen + Bytes.length transport) '\000' in
  Bytes.set_uint8 buf 0 count;
  Bytes.set_uint8 buf 1 t.orig_proto;
  (* checksum at 2..3 *)
  Ipv4.Addr.set buf 4 t.mobile;
  List.iteri (fun i a -> Ipv4.Addr.set buf (8 + (4 * i)) a) t.prev_sources;
  Ipv4.Checksum.set buf ~at:2 ~off:0 ~len:hlen;
  Bytes.blit transport 0 buf hlen (Bytes.length transport);
  buf

(* The [k] list entries ending before [i], read back to front so the
   list is built without reversal or a closure. *)
let rec get_list buf i k acc =
  if k = 0 then acc
  else get_list buf (i - 4) (k - 1) (Ipv4.Addr.get buf (i - 4) :: acc)

let decode_at buf ~off ~len =
  if off < 0 || len < fixed_length || off > Bytes.length buf - len then None
  else begin
    let count = Bytes.get_uint8 buf off in
    let hlen = fixed_length + (4 * count) in
    if len < hlen || not (Ipv4.Checksum.valid_range buf ~off ~len:hlen) then
      None
    else
      Some
        { orig_proto = Bytes.get_uint8 buf (off + 1);
          mobile = Ipv4.Addr.get buf (off + 4);
          prev_sources = get_list buf (off + hlen) count [] }
  end

let decode_prefix buf =
  match decode_at buf ~off:0 ~len:(Bytes.length buf) with
  | None -> None
  | Some t -> Some (t, length t)

let decode buf =
  match decode_prefix buf with
  | None -> invalid_arg "Mhrp_header.decode: truncated or corrupt"
  | Some (t, hlen) -> (t, Bytes.sub buf hlen (Bytes.length buf - hlen))

let equal a b =
  a.orig_proto = b.orig_proto
  && Ipv4.Addr.equal a.mobile b.mobile
  && List.length a.prev_sources = List.length b.prev_sources
  && List.for_all2 Ipv4.Addr.equal a.prev_sources b.prev_sources

let pp ppf t =
  Format.fprintf ppf "mhrp{proto=%a mobile=%a prev=[%s]}" Ipv4.Proto.pp
    t.orig_proto Ipv4.Addr.pp t.mobile
    (String.concat ";" (List.map Ipv4.Addr.to_string t.prev_sources))
