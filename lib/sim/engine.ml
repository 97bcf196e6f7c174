(* [node] is the event's queue handle while it waits, [inert] once it has
   fired or been cancelled.  A fired event's node may already hold another
   event, so an inert event never reaches [Event_queue.remove].  [time] is
   kept boxed here so that firing sets the clock without allocating. *)
type event = { callback : unit -> unit; time : float; mutable node : int }

let inert = -1

type event_id = event

exception Livelock of { time : float; events : int }

let () =
  Printexc.register_printer (function
    | Livelock { time; events } ->
        Some
          (Printf.sprintf
             "Stob_sim.Engine.Livelock { time = %g; events = %d } (same-instant event budget \
              exceeded: a callback chain keeps rescheduling at the current instant)"
             time events)
    | _ -> None)

type t = {
  queue : event Event_queue.t;
  mutable clock : float;
  mutable live : int;
  mutable processed : int;
  mutable same_instant : int;  (* consecutive events executed at [clock] *)
  mutable same_instant_budget : int;
  mutable probe : (now:float -> unit) option;
}

let default_same_instant_budget = 1_000_000

let create ?queue () =
  {
    queue =
      (match queue with None -> Event_queue.create () | Some impl -> Event_queue.create_impl impl);
    clock = 0.0;
    live = 0;
    processed = 0;
    same_instant = 0;
    same_instant_budget = default_same_instant_budget;
    probe = None;
  }

let now t = t.clock

let set_same_instant_budget t budget =
  if budget < 1 then invalid_arg "Engine.set_same_instant_budget: budget must be positive";
  t.same_instant_budget <- budget

let same_instant_budget t = t.same_instant_budget

let set_probe t f = t.probe <- Some f
let clear_probe t = t.probe <- None

let schedule_at t ~time f =
  let time = if time < t.clock then t.clock else time in
  let ev = { callback = f; time; node = inert } in
  ev.node <- Event_queue.add t.queue ~time ev;
  t.live <- t.live + 1;
  ev

let schedule t ~delay f =
  let delay = if delay < 0.0 then 0.0 else delay in
  schedule_at t ~time:(t.clock +. delay) f

let cancel t ev =
  if ev.node <> inert then begin
    Event_queue.remove t.queue ev.node;
    ev.node <- inert;
    t.live <- t.live - 1
  end

(* Run [ev], just taken off the queue as its earliest live event. *)
let fire t ev =
  ev.node <- inert;
  let time = ev.time in
  (* Same-instant budget: a callback that keeps rescheduling itself with
     zero delay would otherwise spin the engine forever without ever
     advancing the clock. *)
  if t.processed > 0 && time <= t.clock then begin
    t.same_instant <- t.same_instant + 1;
    if t.same_instant > t.same_instant_budget then
      raise (Livelock { time; events = t.same_instant })
  end
  else t.same_instant <- 0;
  t.clock <- time;
  t.live <- t.live - 1;
  t.processed <- t.processed + 1;
  ev.callback ();
  match t.probe with None -> () | Some f -> f ~now:time

let rec step t =
  if Event_queue.is_empty t.queue then false
  else begin
    let ev = Event_queue.take t.queue in
    (* Only the heap oracle still holds cancelled events; skip through them
       so that [step] reports whether real work happened. *)
    if ev.node = inert then step t
    else begin
      fire t ev;
      true
    end
  end

let run ?until t =
  match until with
  | None -> while step t do () done
  | Some limit ->
      let continue = ref true in
      while !continue do
        if Event_queue.is_empty t.queue then continue := false
        else begin
          let ev = Event_queue.top t.queue in
          if ev.node = inert then ignore (Event_queue.take t.queue)
          else if ev.time > limit then continue := false
          else fire t (Event_queue.take t.queue)
        end
      done;
      if t.clock < limit then t.clock <- limit

let pending t = t.live
let events_processed t = t.processed
