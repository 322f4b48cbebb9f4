(* Backed by a compact int-keyed table: packed mobile address -> packed
   foreign-agent address (zero while at home).  One binding is two
   unboxed words; see {!Ipv4.Int_table}. *)

type t = {
  db : Ipv4.Int_table.t;
  persistent : bool;
}

let create ?(persistent = true) () =
  { db = Ipv4.Int_table.create (); persistent }

let add_mobile t mobile =
  Ipv4.Int_table.replace t.db (Ipv4.Addr.to_key mobile) 0

let serves t mobile = Ipv4.Int_table.mem t.db (Ipv4.Addr.to_key mobile)

let register t ~mobile ~foreign_agent =
  if not (serves t mobile) then
    invalid_arg "Home_agent.register: not my mobile host";
  Ipv4.Int_table.replace t.db (Ipv4.Addr.to_key mobile)
    (Ipv4.Addr.to_key foreign_agent)

let location t mobile =
  match Ipv4.Int_table.find t.db (Ipv4.Addr.to_key mobile) ~default:(-1) with
  | -1 -> None
  | fa -> Some (Ipv4.Addr.of_key fa)

let is_away t mobile =
  Ipv4.Int_table.find t.db (Ipv4.Addr.to_key mobile) ~default:0 <> 0

let away_mobiles t =
  Ipv4.Int_table.fold
    (fun mobile fa acc ->
       if fa = 0 then acc else Ipv4.Addr.of_key mobile :: acc)
    t.db []
  |> List.sort Ipv4.Addr.compare

let reboot t = if not t.persistent then Ipv4.Int_table.reset t.db
let state_bytes t = 8 * Ipv4.Int_table.length t.db
let footprint_bytes t = Ipv4.Int_table.footprint_bytes t.db
