module Node = Net.Node

type t = { mutable sent : int; mutable acked : int }

let create () = { sent = 0; acked = 0 }

let find tbl key =
  match Hashtbl.find_opt tbl key with
  | Some x -> x
  | None ->
    let x = create () in
    Hashtbl.add tbl key x;
    x

let ack x = x.acked <- x.sent
let pending x = x.acked < x.sent

(* One retransmission chain: a generation, what to do for it, and the
   delay and retries left for its next firing.  Its timer is the call
   [fire c ()], so arming one allocates nothing. *)
type chain = {
  x : t;
  gen : int;
  supersede : bool;
  node : Node.t;
  counters : Counters.t;
  resend : unit -> unit;
  give_up : unit -> unit;
  mutable delay : Netsim.Time.t;
  mutable retries_left : int;
}

let live c = c.x.acked < c.gen && ((not c.supersede) || c.x.sent = c.gen)

let rec fire c () =
  if Node.is_up c.node && live c then
    if c.retries_left <= 0 then begin
      c.counters.Counters.retransmit_gave_up <-
        c.counters.Counters.retransmit_gave_up + 1;
      if Node.tracing c.node then
        Node.tracef c.node "ctrl-give-up" "control exchange abandoned";
      c.give_up ()
    end
    else begin
      c.resend ();
      c.delay <- Netsim.Time.add c.delay c.delay;
      c.retries_left <- c.retries_left - 1;
      arm c
    end

and arm c =
  ignore
    (Netsim.Engine.call_after (Node.engine c.node) ~delay:c.delay fire c ())

let start ?(supersede = true) x node config counters ~resend ~give_up =
  x.sent <- x.sent + 1;
  if config.Config.reliable_control then
    arm
      { x; gen = x.sent; supersede; node; counters; resend; give_up;
        delay = config.Config.control_rto;
        retries_left = config.Config.control_retries }
