type t =
  | End_of_options
  | Nop
  | Lsrr of { pointer : int; route : Addr.t array }
  | Record_route of { pointer : int; route : Addr.t array }

let lsrr addrs = Lsrr { pointer = 4; route = Array.of_list addrs }

let route_next pointer route =
  let idx = (pointer - 4) / 4 in
  if idx >= Array.length route then None else Some (route.(idx), pointer + 4)

let lsrr_next = function
  | Lsrr { pointer; route } ->
    (match route_next pointer route with
     | None -> None
     | Some (a, p) -> Some (a, Lsrr { pointer = p; route }))
  | Record_route { pointer; route } ->
    (match route_next pointer route with
     | None -> None
     | Some (a, p) -> Some (a, Record_route { pointer = p; route }))
  | End_of_options | Nop -> None

let lsrr_exhausted = function
  | Lsrr { pointer; route } | Record_route { pointer; route } ->
    (pointer - 4) / 4 >= Array.length route
  | End_of_options | Nop -> true

let encoded_length = function
  | End_of_options | Nop -> 1
  | Lsrr { route; _ } | Record_route { route; _ } ->
    3 + (4 * Array.length route)

let encode_one buf off = function
  | End_of_options -> Bytes.set_uint8 buf off 0; off + 1
  | Nop -> Bytes.set_uint8 buf off 1; off + 1
  | Lsrr { pointer; route } | Record_route { pointer; route } as o ->
    let ty = match o with Lsrr _ -> 131 | _ -> 7 in
    let len = 3 + (4 * Array.length route) in
    Bytes.set_uint8 buf off ty;
    Bytes.set_uint8 buf (off + 1) len;
    Bytes.set_uint8 buf (off + 2) pointer;
    Array.iteri (fun i a -> Addr.set buf (off + 3 + (4 * i)) a) route;
    off + len

let encode_all opts =
  let raw = List.fold_left (fun n o -> n + encoded_length o) 0 opts in
  let padded = (raw + 3) / 4 * 4 in
  if padded > 40 then invalid_arg "Ip_option.encode_all: options too long";
  let buf = Bytes.make padded '\000' in
  let off = List.fold_left (fun off o -> encode_one buf off o) 0 opts in
  ignore off;
  buf

let decode_all buf =
  let n = Bytes.length buf in
  let rec go off acc =
    if off >= n then List.rev acc
    else
      match Bytes.get_uint8 buf off with
      | 0 -> List.rev acc (* EOL: rest is padding *)
      | 1 -> go (off + 1) (Nop :: acc)
      | (131 | 7) as ty ->
        if off + 2 >= n then invalid_arg "Ip_option.decode_all: truncated";
        let len = Bytes.get_uint8 buf (off + 1) in
        let pointer = Bytes.get_uint8 buf (off + 2) in
        if len < 3 || off + len > n || (len - 3) mod 4 <> 0 then
          invalid_arg "Ip_option.decode_all: bad source-route length";
        let count = (len - 3) / 4 in
        let route =
          Array.init count (fun i -> Addr.get buf (off + 3 + (4 * i)))
        in
        let o =
          if ty = 131 then Lsrr { pointer; route }
          else Record_route { pointer; route }
        in
        go (off + len) (o :: acc)
      | ty ->
        ignore ty;
        invalid_arg "Ip_option.decode_all: unknown option type"
  in
  go 0 []
