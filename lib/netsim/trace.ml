type event = {
  at : Time.t;
  node : string;
  kind : string;
  detail : string;
}

type t = {
  mutable events : event list; (* newest first *)
  mutable n : int;
  capacity : int;
  mutable on : bool;
}

let create ?(capacity = 65536) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity <= 0";
  { events = []; n = 0; capacity; on = false }

let set_enabled t v = t.on <- v

let active = function None -> false | Some t -> t.on

let emit t ~at ~node ~kind detail =
  if t.on then begin
    t.events <- { at; node; kind; detail } :: t.events;
    t.n <- t.n + 1;
    if t.n > t.capacity then begin
      (* Drop the oldest half, but never the newest event (a capacity of
         1 keeps nothing by halving).  Amortised O(1) per emit. *)
      let keep = max 1 (t.capacity / 2) in
      let rec take k = function
        | [] -> []
        | _ when k = 0 -> []
        | e :: rest -> e :: take (k - 1) rest
      in
      t.events <- take keep t.events;
      t.n <- keep
    end
  end

let events t = List.rev t.events
let find t ~kind = List.filter (fun e -> String.equal e.kind kind) (events t)
let count t ~kind = List.length (find t ~kind)

let pp_event ppf e =
  Format.fprintf ppf "[%a] %-12s %-14s %s" Time.pp e.at e.node e.kind e.detail

let dump ppf t =
  List.iter (fun e -> Format.fprintf ppf "%a@." pp_event e) (events t)
