(* Backed by the same compact int-keyed table as the home-agent
   database: packed mobile address -> packed foreign-agent address.
   See {!Ipv4.Int_table}.

   The failover extensions (binding lifetimes, inter-region forwarding
   pointers) each hang off a lazily created side table: a regional agent
   that never sees a lifetime or a forwarding pointer pins exactly the
   bytes it did before failover existed, which keeps E19's exact
   footprint gate honest. *)

type t = {
  bindings : Ipv4.Int_table.t;
  mutable expiry : Ipv4.Int_table.t option;
      (* packed mobile -> absolute expiry (us); only bindings registered
         with a lifetime appear here *)
  mutable forwards : Ipv4.Int_table.t option;
      (* packed mobile -> packed new regional agent *)
  mutable forward_expiry : Ipv4.Int_table.t option;
  mutable registrations : int;
  mutable refreshes : int;
  mutable withdrawals : int;
  mutable expirations : int;
  mutable invalidations : int;
}

let create () =
  { bindings = Ipv4.Int_table.create (); expiry = None; forwards = None;
    forward_expiry = None; registrations = 0; refreshes = 0;
    withdrawals = 0; expirations = 0; invalidations = 0 }

let force tbl set =
  match tbl with
  | Some t -> t
  | None ->
    let t = Ipv4.Int_table.create () in
    set t;
    t

let register t ?expires_at ~mobile ~foreign_agent () =
  if Ipv4.Addr.is_zero foreign_agent then
    invalid_arg "Regional.register: zero foreign agent (use withdraw)";
  let km = Ipv4.Addr.to_key mobile in
  let kf = Ipv4.Addr.to_key foreign_agent in
  let outcome =
    if Ipv4.Int_table.find t.bindings km ~default:(-1) = kf then begin
      t.refreshes <- t.refreshes + 1;
      `Refresh
    end
    else begin
      Ipv4.Int_table.replace t.bindings km kf;
      t.registrations <- t.registrations + 1;
      `Fresh
    end
  in
  (match expires_at with
   | Some at ->
     let e = force t.expiry (fun e -> t.expiry <- Some e) in
     Ipv4.Int_table.replace e km at
   | None ->
     (match t.expiry with
      | Some e -> Ipv4.Int_table.remove e km
      | None -> ()));
  outcome

let withdraw t mobile =
  let k = Ipv4.Addr.to_key mobile in
  if Ipv4.Int_table.mem t.bindings k then begin
    Ipv4.Int_table.remove t.bindings k;
    (match t.expiry with
     | Some e -> Ipv4.Int_table.remove e k
     | None -> ());
    t.withdrawals <- t.withdrawals + 1
  end

let invalidate t ~mobile ~foreign_agent =
  let km = Ipv4.Addr.to_key mobile in
  if Ipv4.Int_table.find t.bindings km ~default:(-1)
     = Ipv4.Addr.to_key foreign_agent
  then begin
    Ipv4.Int_table.remove t.bindings km;
    (match t.expiry with
     | Some e -> Ipv4.Int_table.remove e km
     | None -> ());
    t.invalidations <- t.invalidations + 1;
    true
  end
  else false

let find t mobile =
  match
    Ipv4.Int_table.find t.bindings (Ipv4.Addr.to_key mobile) ~default:(-1)
  with
  | -1 -> None
  | fa -> Some (Ipv4.Addr.of_key fa)

let expire t ~now =
  match t.expiry with
  | None -> []
  | Some e ->
    let dead =
      Ipv4.Int_table.fold
        (fun km at acc -> if Netsim.Time.(at <= now) then km :: acc else acc)
        e []
      (* fold order is table-internal; sort for deterministic eviction *)
      |> List.sort compare
    in
    List.filter_map
      (fun km ->
         Ipv4.Int_table.remove e km;
         match Ipv4.Int_table.find t.bindings km ~default:(-1) with
         | -1 -> None
         | kf ->
           Ipv4.Int_table.remove t.bindings km;
           t.expirations <- t.expirations + 1;
           Some (Ipv4.Addr.of_key km, Ipv4.Addr.of_key kf))
      dead

let set_forward t ~mobile ~new_regional ~expires_at =
  let km = Ipv4.Addr.to_key mobile in
  let f = force t.forwards (fun f -> t.forwards <- Some f) in
  let fe = force t.forward_expiry (fun fe -> t.forward_expiry <- Some fe) in
  Ipv4.Int_table.replace f km (Ipv4.Addr.to_key new_regional);
  Ipv4.Int_table.replace fe km expires_at

let forward t ~now mobile =
  match t.forwards, t.forward_expiry with
  | Some f, Some fe ->
    let km = Ipv4.Addr.to_key mobile in
    (match Ipv4.Int_table.find f km ~default:(-1) with
     | -1 -> None
     | target ->
       let at = Ipv4.Int_table.find fe km ~default:(-1) in
       if at = -1 || Netsim.Time.(at <= now) then begin
         Ipv4.Int_table.remove f km;
         Ipv4.Int_table.remove fe km;
         None
       end
       else Some (Ipv4.Addr.of_key target))
  | _ -> None

let forwards_size t =
  match t.forwards with None -> 0 | Some f -> Ipv4.Int_table.length f

let size t = Ipv4.Int_table.length t.bindings

let clear t =
  Ipv4.Int_table.reset t.bindings;
  (match t.expiry with Some e -> Ipv4.Int_table.reset e | None -> ());
  (match t.forwards with Some f -> Ipv4.Int_table.reset f | None -> ());
  (match t.forward_expiry with
   | Some fe -> Ipv4.Int_table.reset fe
   | None -> ())

let registrations t = t.registrations
let refreshes t = t.refreshes
let withdrawals t = t.withdrawals
let expirations t = t.expirations
let invalidations t = t.invalidations

let footprint_bytes t =
  let opt = function
    | None -> 0
    | Some tbl -> Ipv4.Int_table.footprint_bytes tbl
  in
  Ipv4.Int_table.footprint_bytes t.bindings
  + opt t.expiry + opt t.forwards + opt t.forward_expiry
