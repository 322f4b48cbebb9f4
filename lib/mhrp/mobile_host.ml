type phase =
  | At_home
  | Searching
  | Registering of Ipv4.Addr.t
  | Registered of Ipv4.Addr.t
  | Disconnected

type t = {
  home : Ipv4.Addr.t;
  home_agent : Ipv4.Addr.t;
  mutable phase : phase;
  mutable old_fa : Ipv4.Addr.t option;
  mutable own_fa_temp : Ipv4.Addr.t option;
  mutable moves : int;
  mutable registrations_completed : int;
  mutable last_advert : Netsim.Time.t;
  mutable implicit_disconnects : int;
  connect : Exchange.t;
  home_reg : Exchange.t;
  mutable regional : Ipv4.Addr.t option;
  mutable regional_backup : Ipv4.Addr.t option;
  region_reg : Exchange.t;
}

let create ~home ~home_agent =
  { home; home_agent; phase = At_home; old_fa = None; own_fa_temp = None;
    moves = 0; registrations_completed = 0;
    last_advert = Netsim.Time.zero; implicit_disconnects = 0;
    connect = Exchange.create (); home_reg = Exchange.create ();
    regional = None; regional_backup = None;
    region_reg = Exchange.create () }

let current_fa t =
  match t.phase with
  | Registered fa | Registering fa -> Some fa
  | At_home | Searching | Disconnected -> None

let is_home t = t.phase = At_home

let pp_phase ppf = function
  | At_home -> Format.pp_print_string ppf "at-home"
  | Searching -> Format.pp_print_string ppf "searching"
  | Registering fa ->
    Format.fprintf ppf "registering(%a)" Ipv4.Addr.pp fa
  | Registered fa -> Format.fprintf ppf "registered(%a)" Ipv4.Addr.pp fa
  | Disconnected -> Format.pp_print_string ppf "disconnected"
