type content =
  | Ip of bytes
  | Arp of Arp.t

type t = {
  src : Mac.t;
  dst : Mac.t;
  content : content;
}

let ip ~src ~dst bytes = { src; dst; content = Ip bytes }
let arp ~src ~dst a = { src; dst; content = Arp a }

let ethernet_overhead = 18

let wire_length t =
  let payload =
    match t.content with
    | Ip b -> Bytes.length b
    | Arp _ -> Arp.wire_length
  in
  payload + ethernet_overhead
