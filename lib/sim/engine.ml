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

(* A NaN time compares false against everything, so the two queues would
   order it differently and the clock could run backwards or become NaN. *)
let schedule_at t ~time f =
  if Float.is_nan time then invalid_arg "Engine.schedule_at: time is NaN";
  let time = if time < t.clock then t.clock else time in
  let ev = { callback = f; time; node = inert } in
  ev.node <- Event_queue.add t.queue ~time ev;
  t.live <- t.live + 1;
  ev

let schedule t ~delay f =
  if Float.is_nan delay then invalid_arg "Engine.schedule: delay is NaN";
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
  (* Uncounted before the budget check: a [Livelock] leaves [pending]
     agreeing with the queue it leaves behind. *)
  t.live <- t.live - 1;
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
  t.processed <- t.processed + 1;
  ev.callback ();
  match t.probe with None -> () | Some f -> f ~now:time

(* --- constant-delay lines ---

   A push on a wheel engine takes the sequence number an ordinary
   [schedule] would have taken, and parks the value, its due time and that
   number in ring arrays.  Only the head is queued, as one event under its
   reserved number; when it fires, the next head is queued the same way.
   A fixed delay makes due times non-decreasing in push order, so every
   value fires exactly where its own [schedule] would have.  The heap
   oracle cannot queue under a reserved number, so there a push is that
   [schedule]. *)

type 'a line = {
  engine : t;
  delay : float;
  deliver : 'a -> unit;
  on_wheel : bool; (* else a push is an ordinary [schedule] *)
  mutable values : 'a array; (* ring, [count] values from [head] *)
  mutable times : float array;
  mutable seqs : int array;
  mutable head : int;
  mutable count : int;
  mutable fire_head : unit -> unit; (* built once per line *)
}

(* The value held by spare ring cells, as in the timing wheel: an
   immediate, so [values] is never a flat float array. *)
let vacant () : 'a = Obj.magic 0

let arm l =
  let ev = { callback = l.fire_head; time = l.times.(l.head); node = inert } in
  ev.node <- Event_queue.add_reserved l.engine.queue ~time:ev.time ~seq:l.seqs.(l.head) ev

let fire_head l () =
  let i = l.head in
  let value = l.values.(i) in
  l.values.(i) <- vacant ();
  l.head <- (i + 1) land (Array.length l.values - 1);
  l.count <- l.count - 1;
  if l.count > 0 then arm l;
  l.deliver value

let line t ~delay deliver =
  if not (delay >= 0.0) then invalid_arg "Engine.line: delay must be non-negative and not NaN";
  let l =
    {
      engine = t;
      delay;
      deliver;
      on_wheel = Event_queue.impl t.queue = Event_queue.Wheel;
      values = [||];
      times = [||];
      seqs = [||];
      head = 0;
      count = 0;
      fire_head = ignore;
    }
  in
  l.fire_head <- fire_head l;
  l

(* Double the ring, unrolling it to start at index 0. *)
let grow l =
  let cap = Array.length l.values in
  let cap' = if cap = 0 then 16 else 2 * cap in
  let values = Array.make cap' (vacant ()) in
  let times = Array.make cap' 0.0 and seqs = Array.make cap' 0 in
  for k = 0 to l.count - 1 do
    let j = (l.head + k) land (cap - 1) in
    values.(k) <- l.values.(j);
    times.(k) <- l.times.(j);
    seqs.(k) <- l.seqs.(j)
  done;
  l.values <- values;
  l.times <- times;
  l.seqs <- seqs;
  l.head <- 0

let push l value =
  let t = l.engine in
  if l.on_wheel then begin
    if l.count = Array.length l.values then grow l;
    let i = (l.head + l.count) land (Array.length l.values - 1) in
    l.values.(i) <- value;
    l.times.(i) <- t.clock +. l.delay;
    l.seqs.(i) <- Event_queue.reserve t.queue;
    l.count <- l.count + 1;
    t.live <- t.live + 1;
    if l.count = 1 then arm l
  end
  else ignore (schedule t ~delay:l.delay (fun () -> l.deliver value))

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
