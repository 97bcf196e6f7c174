(* Columns, not a list of records: a capture sees every packet of a run, so
   each packet costs one slot of a float lane and one of an int lane
   holding [size lsl 1 lor dir_bit] (the packed word of Packed_trace and
   Arena), instead of a boxed [Trace.event] and a cons cell. *)
type t = {
  mutable times : float array;
  mutable meta : int array;
  mutable n : int;
  mutable rtx : int;
}

let create () = { times = [||]; meta = [||]; n = 0; rtx = 0 }

let add t ~dir ~time (p : Packet.t) =
  let n = t.n in
  if n = Array.length t.times then begin
    let cap = if n = 0 then 256 else 2 * n in
    let times = Array.make cap 0.0 and meta = Array.make cap 0 in
    Array.blit t.times 0 times 0 n;
    Array.blit t.meta 0 meta 0 n;
    t.times <- times;
    t.meta <- meta
  end;
  t.times.(n) <- time;
  t.meta.(n) <-
    (Packet.wire_size p lsl 1) lor (match dir with Packet.Outgoing -> 1 | Packet.Incoming -> 0);
  t.n <- n + 1;
  if p.rtx then t.rtx <- t.rtx + 1

let record t ~time (p : Packet.t) = add t ~dir:p.dir ~time p
let observe t ~dir ~time p = add t ~dir ~time p

let trace t =
  Trace.sort
    (Array.init t.n (fun i ->
         let m = t.meta.(i) in
         {
           Trace.time = t.times.(i);
           dir = (if m land 1 = 1 then Packet.Outgoing else Packet.Incoming);
           size = m asr 1;
         }))

let clear t =
  t.n <- 0;
  t.rtx <- 0

let count t = t.n
let rtx_count t = t.rtx
