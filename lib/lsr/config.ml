type t = {
  hello_interval : Netsim.Time.t;
  refresh_interval : Netsim.Time.t;
}

let default =
  { hello_interval = Netsim.Time.of_ms 500;
    refresh_interval = Netsim.Time.of_sec 10.0 }

let make ?(hello_interval = default.hello_interval)
    ?(refresh_interval = default.refresh_interval) () =
  { hello_interval; refresh_interval }
