type visitor = {
  mobile : Ipv4.Addr.t;
  mac : Net.Mac.t option;
  iface : int;
}

type t = { tbl : (Ipv4.Addr.t, visitor) Hashtbl.t }

let create () = { tbl = Hashtbl.create 8 }
let add t v = Hashtbl.replace t.tbl v.mobile v
let remove t mobile = Hashtbl.remove t.tbl mobile
let find t mobile = Hashtbl.find_opt t.tbl mobile
let mem t mobile = Hashtbl.mem t.tbl mobile

let clear t = Hashtbl.reset t.tbl
let count t = Hashtbl.length t.tbl
let state_bytes t = 12 * Hashtbl.length t.tbl
