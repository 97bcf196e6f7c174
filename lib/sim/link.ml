(* The frame on the wire stays at the head of [waiting] until its
   serialization ends; [waiting_bytes] counts only the frames behind it.
   Propagation is one engine line per link, and the serialization-finish
   callback is built once, in [create], so a frame costs the engine one
   serialization event and one line push. *)
type 'a t = {
  engine : Engine.t;
  rate_bps : float;
  queue_capacity : int;
  size : 'a -> int;
  propagation : 'a Engine.line;
  waiting : 'a Queue.t;
  mutable waiting_bytes : int;
  mutable on_wire_bytes : int;
  mutable busy : bool;
  mutable frames_sent : int;
  mutable bytes_sent : int;
  mutable drops : int;
  mutable tap : (time:float -> 'a -> unit) option;
  mutable on_idle : (unit -> unit) option;
  mutable serialized : unit -> unit;
}

let transmit t frame =
  t.busy <- true;
  let bytes = t.size frame in
  t.on_wire_bytes <- bytes;
  (match t.tap with
  | None -> ()
  | Some tap -> tap ~time:(Engine.now t.engine) frame);
  let serialization = float_of_int (bytes * 8) /. t.rate_bps in
  ignore (Engine.schedule t.engine ~delay:serialization t.serialized)

(* The push comes before the next frame's [transmit]: that runs the tap,
   which may schedule events (TSQ), and the delivery must keep the
   sequence number it had when propagation was its own event. *)
let serialized t () =
  let frame = Queue.take t.waiting in
  t.frames_sent <- t.frames_sent + 1;
  t.bytes_sent <- t.bytes_sent + t.on_wire_bytes;
  (* Propagation happens in parallel with the next serialization. *)
  Engine.push t.propagation frame;
  if Queue.is_empty t.waiting then begin
    t.busy <- false;
    match t.on_idle with None -> () | Some f -> f ()
  end
  else begin
    let next = Queue.peek t.waiting in
    t.waiting_bytes <- t.waiting_bytes - t.size next;
    transmit t next
  end

let create engine ~rate_bps ~delay ?(queue_capacity = max_int) ~size ~deliver () =
  if rate_bps <= 0.0 then invalid_arg "Link.create: rate must be positive";
  if delay < 0.0 then invalid_arg "Link.create: delay must be non-negative";
  let t =
    {
      engine;
      rate_bps;
      queue_capacity;
      size;
      propagation = Engine.line engine ~delay deliver;
      waiting = Queue.create ();
      waiting_bytes = 0;
      on_wire_bytes = 0;
      busy = false;
      frames_sent = 0;
      bytes_sent = 0;
      drops = 0;
      tap = None;
      on_idle = None;
      serialized = ignore;
    }
  in
  t.serialized <- serialized t;
  t

let set_tap t f = t.tap <- Some f
let set_on_idle t f = t.on_idle <- Some f

let send t frame =
  if t.busy then begin
    let bytes = t.size frame in
    if t.waiting_bytes + bytes > t.queue_capacity then begin
      t.drops <- t.drops + 1;
      false
    end
    else begin
      Queue.add frame t.waiting;
      t.waiting_bytes <- t.waiting_bytes + bytes;
      true
    end
  end
  else begin
    Queue.add frame t.waiting;
    transmit t frame;
    true
  end

let frames_sent t = t.frames_sent
let bytes_sent t = t.bytes_sent
let drops t = t.drops
let busy t = t.busy
