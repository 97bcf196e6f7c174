(* Besides [Nothing], the queue holds three kinds of entry.  An [Event]
   is one [schedule] or one line head; its [time] is kept boxed so that
   firing sets the clock without allocating.  On the timing wheel a timer
   owns at most one entry, its [Timer], built once with the timer.  The
   heap oracle cannot remove or queue under a reserved number, so there
   every arm queues an [Arm] carrying the arm's count, and an entry whose
   count is no longer the timer's is skipped when it pops. *)
type t = {
  queue : entry Event_queue.t;
  on_wheel : bool;
  mutable clock : float;
  mutable live : int;
  mutable processed : int;
  mutable same_instant : int;  (* consecutive events executed at [clock] *)
  mutable same_instant_budget : int;
  mutable probe : (now:float -> unit) option;
}

and entry =
  | Nothing  (* what [Event_queue.take_due] returns when nothing is due *)
  | Event of { time : float; callback : unit -> unit }
  | Timer of timer
  | Arm of { timer : timer; count : int }

(* [due] and [key] share an all-float record, which stores them unboxed:
   re-arming a timer writes two floats and allocates nothing. *)
and timer = {
  engine : t;
  callback : unit -> unit;
  self : entry;  (* [Timer] of this timer *)
  times : times;
  mutable armed : bool;
  mutable seq : int;
      (* The wheel: the sequence number the latest arm reserved.  The
         heap: how many times the timer has been armed. *)
  mutable node : int;  (* the wheel node of its entry, or [none] *)
  mutable key_seq : int;  (* the sequence number its entry is queued under *)
}

and times = { mutable due : float; mutable key : float (* its entry's time *) }

let none = -1

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

let default_same_instant_budget = 1_000_000

let create ?queue () =
  let queue =
    match queue with None -> Event_queue.create () | Some impl -> Event_queue.create_impl impl
  in
  {
    queue;
    on_wheel = Event_queue.impl queue = Event_queue.Wheel;
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
  Event_queue.push t.queue ~time (Event { time; callback = f });
  t.live <- t.live + 1

let schedule t ~delay f =
  if Float.is_nan delay then invalid_arg "Engine.schedule: delay is NaN";
  let delay = if delay < 0.0 then 0.0 else delay in
  schedule_at t ~time:(t.clock +. delay) f

(* Run the callback of an event just taken off the queue as its earliest
   live entry. *)
let fire t time callback =
  (* Uncounted before the budget check: a [Livelock] leaves [pending]
     agreeing with the queue it leaves behind. *)
  t.live <- t.live - 1;
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
  callback ();
  match t.probe with None -> () | Some f -> f ~now:time

(* --- timers ---

   An arm takes the sequence number [schedule] would have taken at that
   moment, so the callback runs exactly where a cancel plus a schedule
   would run it.  On the wheel the timer's one entry stays keyed at or
   before that (time, seq): a re-arm to a later key leaves it where it is,
   and when it comes due early it is queued again under the logical key
   with [add_reserved] (a surfacing, which is not an event).  A re-arm to
   an earlier key moves it.  Each arm reserves a fresh number, so the
   entry is at the logical key exactly when their numbers agree. *)

let timer t callback =
  let rec tm =
    {
      engine = t;
      callback;
      self = Timer tm;
      times = { due = 0.0; key = 0.0 };
      armed = false;
      seq = 0;
      node = none;
      key_seq = 0;
    }
  in
  tm

let armed tm = tm.armed

let enqueue t tm =
  tm.node <- Event_queue.add_reserved t.queue ~time:tm.times.due ~seq:tm.seq tm.self;
  tm.times.key <- tm.times.due;
  tm.key_seq <- tm.seq

(* Arm [tm] at the due time just written to [tm.times.due], which is not
   before the clock. *)
let rearm tm =
  let t = tm.engine in
  if not tm.armed then begin
    tm.armed <- true;
    t.live <- t.live + 1
  end;
  if t.on_wheel then begin
    tm.seq <- Event_queue.reserve t.queue;
    if tm.node = none then enqueue t tm
    else if tm.times.due < tm.times.key then begin
      Event_queue.remove t.queue tm.node;
      enqueue t tm
    end
  end
  else begin
    tm.seq <- tm.seq + 1;
    Event_queue.push t.queue ~time:tm.times.due (Arm { timer = tm; count = tm.seq })
  end

let arm_at tm ~time =
  if Float.is_nan time then invalid_arg "Engine.arm_at: time is NaN";
  let clock = tm.engine.clock in
  tm.times.due <- (if time < clock then clock else time);
  rearm tm

let arm tm ~delay =
  if Float.is_nan delay then invalid_arg "Engine.arm: delay is NaN";
  let clock = tm.engine.clock in
  tm.times.due <- (if delay > 0.0 then clock +. delay else clock);
  rearm tm

let disarm tm =
  if tm.armed then begin
    tm.armed <- false;
    tm.engine.live <- tm.engine.live - 1
  end

let fire_timer t tm =
  tm.armed <- false;
  fire t tm.times.due tm.callback

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
  line_engine : t;
  delay : float;
  deliver : 'a -> unit;
  mutable values : 'a array; (* ring, [count] values from [head] *)
  mutable due_times : float array;
  mutable seqs : int array;
  mutable head : int;
  mutable count : int;
  mutable fire_head : unit -> unit; (* built once per line *)
}

(* The value held by spare ring cells, as in the timing wheel: an
   immediate, so [values] is never a flat float array. *)
let vacant () : 'a = Obj.magic 0

(* The head's entry boxes its due time once and the queue is handed that
   box: binding the float read from [due_times] and using it twice would
   box it twice. *)
let queue_head l =
  match Event { time = l.due_times.(l.head); callback = l.fire_head } with
  | Event { time; _ } as head ->
      ignore (Event_queue.add_reserved l.line_engine.queue ~time ~seq:l.seqs.(l.head) head)
  | Nothing | Timer _ | Arm _ -> assert false

let fire_head l () =
  let i = l.head in
  let value = l.values.(i) in
  l.values.(i) <- vacant ();
  l.head <- (i + 1) land (Array.length l.values - 1);
  l.count <- l.count - 1;
  if l.count > 0 then queue_head l;
  l.deliver value

let line t ~delay deliver =
  if not (delay >= 0.0) then invalid_arg "Engine.line: delay must be non-negative and not NaN";
  let l =
    {
      line_engine = t;
      delay;
      deliver;
      values = [||];
      due_times = [||];
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
  let due_times = Array.make cap' 0.0 and seqs = Array.make cap' 0 in
  for k = 0 to l.count - 1 do
    let j = (l.head + k) land (cap - 1) in
    values.(k) <- l.values.(j);
    due_times.(k) <- l.due_times.(j);
    seqs.(k) <- l.seqs.(j)
  done;
  l.values <- values;
  l.due_times <- due_times;
  l.seqs <- seqs;
  l.head <- 0

let push l value =
  let t = l.line_engine in
  if t.on_wheel then begin
    if l.count = Array.length l.values then grow l;
    let i = (l.head + l.count) land (Array.length l.values - 1) in
    l.values.(i) <- value;
    l.due_times.(i) <- t.clock +. l.delay;
    l.seqs.(i) <- Event_queue.reserve t.queue;
    l.count <- l.count + 1;
    t.live <- t.live + 1;
    if l.count = 1 then queue_head l
  end
  else schedule t ~delay:l.delay (fun () -> l.deliver value)

(* --- the event loop --- *)

(* Take entries due by [limit] until one is an event, and run it; [false]
   when nothing is due.  One queue operation per entry.  A surfacing (a
   timer's entry come due early, or a disarmed timer's entry dropped) and
   a stale heap [Arm] are not events: neither counts, moves the clock,
   runs the probe nor spends the same-instant budget. *)
let rec next t ~limit =
  match Event_queue.take_due t.queue ~limit Nothing with
  | Nothing -> false
  | Event { time; callback } ->
      fire t time callback;
      true
  | Timer tm ->
      tm.node <- none;
      if not tm.armed then next t ~limit
      else if tm.seq = tm.key_seq then begin
        fire_timer t tm;
        true
      end
      else begin
        enqueue t tm;
        next t ~limit
      end
  | Arm { timer = tm; count } ->
      if tm.armed && count = tm.seq then begin
        fire_timer t tm;
        true
      end
      else next t ~limit

let step t = next t ~limit:infinity

let run ?until t =
  match until with
  | None -> while next t ~limit:infinity do () done
  | Some limit ->
      while next t ~limit do () done;
      if t.clock < limit then t.clock <- limit

let pending t = t.live
let events_processed t = t.processed
