(* Columns, not a list of records: a capture sees every packet of a run, so
   each packet costs one slot of a float array and one of an int array
   holding the trace word [size lsl 1 lor dir_bit].  [trace] fills a fresh
   trace's lanes straight from the used prefix of the columns, with no
   record per packet. *)

module BA1 = Bigarray.Array1

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
  t.meta.(n) <- Arena.word ~dir ~size:(Packet.wire_size p);
  t.n <- n + 1;
  if p.rtx then t.rtx <- t.rtx + 1

let record t ~time (p : Packet.t) = add t ~dir:p.dir ~time p

let trace t =
  let times = BA1.create Bigarray.float64 Bigarray.c_layout t.n in
  let meta = BA1.create Bigarray.int32 Bigarray.c_layout t.n in
  for i = 0 to t.n - 1 do
    BA1.unsafe_set times i (Array.unsafe_get t.times i);
    BA1.unsafe_set meta i (Int32.of_int (Array.unsafe_get t.meta i))
  done;
  Trace.sort (Trace.of_lanes ~times ~meta)

let count t = t.n
let rtx_count t = t.rtx
