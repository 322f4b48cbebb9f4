type t = {
  mutable clock : Time.t;
  queue : Event_queue.calls Event_queue.t;
  root_rng : Rng.t;
  mutable fired : int;
}

let create ?(seed = 42) () =
  { clock = Time.zero;
    queue = Event_queue.create ();
    root_rng = Rng.of_int seed;
    fired = 0 }

let now t = t.clock
let rng t = t.root_rng

let call t ~at f a b =
  if Time.(at < t.clock) then invalid_arg "Engine.call: time in the past";
  Event_queue.push_call t.queue at f a b

let call_after t ~delay f a b = call t ~at:(Time.add t.clock delay) f a b

(* A thunk is the call [run_thunk f ()]: one event representation. *)
let run_thunk f () = f ()

let schedule t ~at f =
  if Time.(at < t.clock) then
    invalid_arg "Engine.schedule: time in the past";
  Event_queue.push_call t.queue at run_thunk f ()

let schedule_after t ~delay f = schedule t ~at:(Time.add t.clock delay) f

let cancel t h = Event_queue.cancel t.queue h

let every t ~interval ?until f =
  if Time.to_us interval <= 0 then invalid_arg "Engine.every: zero interval";
  (* one pair of closures for the whole series, not one per tick *)
  let rec arm () =
    let next = Time.add t.clock interval in
    match until with
    | Some stop when Time.(next > stop) -> ()
    | _ -> ignore (schedule t ~at:next tick)
  and tick () =
    f ();
    arm ()
  in
  arm ()

(* Fire events up to [stop] through the option-free [min_time]/[fire]
   pair: dispatching an event allocates nothing. *)
let rec drain t stop =
  if not (Event_queue.is_empty t.queue) then begin
    let at = Event_queue.min_time t.queue in
    if Time.(at <= stop) then begin
      t.clock <- at;
      t.fired <- t.fired + 1;
      Event_queue.fire t.queue;
      drain t stop
    end
  end

let run ?until t =
  drain t (match until with Some stop -> stop | None -> max_int);
  match until with
  | Some stop when Time.(stop > t.clock) -> t.clock <- stop
  | _ -> ()

let pending t = Event_queue.length t.queue
let events_processed t = t.fired
