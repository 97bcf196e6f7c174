type t = {
  engine : Engine.t;
  mutable busy_until : float;
  mutable busy_time : float;
  mutable depth : int;
  mutable overload : float;  (* cost multiplier; 1.0 = nominal *)
}

let create engine = { engine; busy_until = 0.0; busy_time = 0.0; depth = 0; overload = 1.0 }

let set_overload t factor =
  if not (factor > 0.0) then invalid_arg "Cpu.set_overload: factor must be positive";
  t.overload <- factor

let submit t ~cost f =
  let cost = if cost < 0.0 then 0.0 else cost *. t.overload in
  let now = Engine.now t.engine in
  let start = if t.busy_until > now then t.busy_until else now in
  let finish = start +. cost in
  t.busy_until <- finish;
  t.busy_time <- t.busy_time +. cost;
  t.depth <- t.depth + 1;
  ignore
    (Engine.schedule_at t.engine ~time:finish (fun () ->
         t.depth <- t.depth - 1;
         f ()))

let busy_until t = t.busy_until
let busy_time t = t.busy_time

let utilization t =
  let now = Engine.now t.engine in
  if now <= 0.0 then 0.0 else t.busy_time /. now

let queue_depth t = t.depth
