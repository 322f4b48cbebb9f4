type on_loop =
  | Discard_packet
  | Tunnel_home

type t = {
  max_prev_sources : int;
  cache_capacity : int;
  update_min_interval : Netsim.Time.t;
  advert_interval : Netsim.Time.t;
  advert_lifetime : Netsim.Time.t;
  forwarding_pointers : bool;
  on_loop : on_loop;
  verify_recovered_visitors : bool;
  ha_persistent : bool;
  authenticate : bool;
  reliable_control : bool;
  control_rto : Netsim.Time.t;
  control_retries : int;
  hierarchy : bool;
  regional_lifetime : Netsim.Time.t;
  regional_refresh : Netsim.Time.t;
  regional_grace : Netsim.Time.t;
}

let default =
  { max_prev_sources = 8;
    cache_capacity = 64;
    update_min_interval = Netsim.Time.of_sec 1.0;
    advert_interval = Netsim.Time.of_sec 10.0;
    advert_lifetime = Netsim.Time.of_sec 30.0;
    forwarding_pointers = true;
    on_loop = Discard_packet;
    verify_recovered_visitors = false;
    ha_persistent = true;
    authenticate = false;
    reliable_control = false;
    control_rto = Netsim.Time.of_ms 300;
    control_retries = 5;
    hierarchy = false;
    regional_lifetime = Netsim.Time.of_sec 300.0;
    regional_refresh = Netsim.Time.zero;
    regional_grace = Netsim.Time.of_sec 2.0 }

let make ?max_prev_sources ?cache_capacity ?update_min_interval
    ?advert_interval ?advert_lifetime ?forwarding_pointers ?on_loop
    ?verify_recovered_visitors ?ha_persistent ?authenticate
    ?reliable_control ?control_rto ?control_retries ?hierarchy
    ?regional_lifetime ?regional_refresh ?regional_grace () =
  let v default = Option.value ~default in
  let regional_lifetime = v default.regional_lifetime regional_lifetime in
  (* [Reg_region] carries the lifetime as u16 whole seconds, rounded up *)
  if Netsim.Time.to_us regional_lifetime > 0xFFFF * 1_000_000 then
    invalid_arg "Config.make: regional_lifetime over 65,535 s";
  { max_prev_sources = v default.max_prev_sources max_prev_sources;
    cache_capacity = v default.cache_capacity cache_capacity;
    update_min_interval = v default.update_min_interval update_min_interval;
    advert_interval = v default.advert_interval advert_interval;
    advert_lifetime = v default.advert_lifetime advert_lifetime;
    forwarding_pointers = v default.forwarding_pointers forwarding_pointers;
    on_loop = v default.on_loop on_loop;
    verify_recovered_visitors =
      v default.verify_recovered_visitors verify_recovered_visitors;
    ha_persistent = v default.ha_persistent ha_persistent;
    authenticate = v default.authenticate authenticate;
    reliable_control = v default.reliable_control reliable_control;
    control_rto = v default.control_rto control_rto;
    control_retries = v default.control_retries control_retries;
    hierarchy = v default.hierarchy hierarchy;
    regional_lifetime;
    regional_refresh = v default.regional_refresh regional_refresh;
    regional_grace = v default.regional_grace regional_grace }
