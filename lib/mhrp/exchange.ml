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

(* One retransmission chain: a generation and what to do for it.  The
   timer closures capture this record rather than each field. *)
type chain = {
  x : t;
  gen : int;
  supersede : bool;
  node : Node.t;
  counters : Counters.t;
  resend : unit -> unit;
  give_up : unit -> unit;
}

let live c = c.x.acked < c.gen && ((not c.supersede) || c.x.sent = c.gen)

let rec arm c ~delay ~retries_left =
  ignore
    (Netsim.Engine.schedule_after (Node.engine c.node) ~delay (fun () ->
         if Node.is_up c.node && live c then
           if retries_left <= 0 then begin
             c.counters.Counters.retransmit_gave_up <-
               c.counters.Counters.retransmit_gave_up + 1;
             if Node.tracing c.node then
               Node.tracef c.node "ctrl-give-up" "control exchange abandoned";
             c.give_up ()
           end
           else begin
             c.resend ();
             arm c ~delay:(Netsim.Time.add delay delay)
               ~retries_left:(retries_left - 1)
           end))

let start ?(supersede = true) x node config counters ~resend ~give_up =
  x.sent <- x.sent + 1;
  if config.Config.reliable_control then
    arm
      { x; gen = x.sent; supersede; node; counters; resend; give_up }
      ~delay:config.Config.control_rto
      ~retries_left:config.Config.control_retries
