type item =
  | Lan_down of {
      lan : string;
      at : Netsim.Time.t;
      duration : Netsim.Time.t;
    }
  | Crash of {
      node : string;
      at : Netsim.Time.t;
      duration : Netsim.Time.t;
    }
  | Partition of {
      lans : string list;
      at : Netsim.Time.t;
      duration : Netsim.Time.t;
    }
  | Control_loss of {
      rate : float;
      from_ : Netsim.Time.t;
      until : Netsim.Time.t;
    }

type t = item list
