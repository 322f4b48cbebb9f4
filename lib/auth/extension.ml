type t = {
  spi : int;
  timestamp : Netsim.Time.t;
  nonce : int64;
  mac : int64;
}

let ext_type = 32
let ext_body_len = 28 (* spi(4) + timestamp(8) + nonce(8) + mac(8) *)
let length = 2 + ext_body_len

let encode { spi; timestamp; nonce; mac } =
  let buf = Bytes.make length '\000' in
  Bytes.set_uint8 buf 0 ext_type;
  Bytes.set_uint8 buf 1 ext_body_len;
  Bytes.set_int32_be buf 2 (Int32.of_int spi);
  Bytes.set_int64_be buf 6 (Int64.of_int (Netsim.Time.to_us timestamp));
  Bytes.set_int64_be buf 14 nonce;
  Bytes.set_int64_be buf 22 mac;
  buf

let decode_at buf off =
  if off < 0 || off + length > Bytes.length buf then None
  else if Bytes.get_uint8 buf off <> ext_type then None
  else if Bytes.get_uint8 buf (off + 1) <> ext_body_len then None
  else begin
    let ts = Bytes.get_int64_be buf (off + 6) in
    (* A 64-bit wire timestamp only names a simulation time if it fits in
       a non-negative OCaml int; anything else is a malformed extension,
       not an exception. *)
    if Int64.compare ts 0L < 0
       || Int64.compare ts (Int64.of_int max_int) > 0 then None
    else
      Some
        {
          spi =
            Int32.to_int (Bytes.get_int32_be buf (off + 2)) land 0xFFFF_FFFF;
          timestamp = Netsim.Time.of_us (Int64.to_int ts);
          nonce = Bytes.get_int64_be buf (off + 14);
          mac = Bytes.get_int64_be buf (off + 22);
        }
  end

let decode buf =
  if Bytes.length buf <> length then None else decode_at buf 0

let split buf =
  let n = Bytes.length buf in
  if n < length then None
  else
    match decode_at buf (n - length) with
    | None -> None
    | Some ext -> Some (Bytes.sub buf 0 (n - length), ext)

(* The MAC covers the payload followed by the extension with the MAC
   field zeroed, so verification re-derives exactly what the signer
   hashed. *)
let signed_input payload ext =
  let ext_bytes = encode { ext with mac = 0L } in
  let buf = Bytes.create (Bytes.length payload + length) in
  Bytes.blit payload 0 buf 0 (Bytes.length payload);
  Bytes.blit ext_bytes 0 buf (Bytes.length payload) length;
  buf

let sign ~key ~spi ~timestamp ~nonce payload =
  let ext = { spi; timestamp; nonce; mac = 0L } in
  { ext with mac = Siphash.mac key (signed_input payload ext) }

let verify ~key payload ext =
  Int64.equal ext.mac (Siphash.mac key (signed_input payload ext))
