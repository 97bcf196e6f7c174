(* Both transformations read the input's lanes and write the output's
   directly: no list and no record per packet.  [delay] changes times only,
   so its output shares the input's word lane. *)

module Trace = Stob_net.Trace
module Rng = Stob_util.Rng
module BA1 = Bigarray.Array1

let split ?(threshold = 1200) ?first_n trace =
  let n = Trace.length trace in
  let bound = Int.min n (Option.value ~default:n first_n) in
  let times = Trace.raw_times trace and meta = Trace.raw_meta trace in
  (* An incoming packet (direction bit 0) larger than the threshold. *)
  let splits m = m land 1 = 0 && m lsr 1 > threshold in
  let extra = ref 0 in
  for i = 0 to bound - 1 do
    if splits (Int32.to_int (BA1.unsafe_get meta i)) then incr extra
  done;
  let out_times = BA1.create Bigarray.float64 Bigarray.c_layout (n + !extra) in
  let out_meta = BA1.create Bigarray.int32 Bigarray.c_layout (n + !extra) in
  let k = ref 0 in
  for i = 0 to n - 1 do
    let t = BA1.unsafe_get times i and m = Int32.to_int (BA1.unsafe_get meta i) in
    if i < bound && splits m then begin
      let size = m lsr 1 in
      let first = size / 2 in
      (* The second half leaves immediately after the first; a negligible
         offset keeps the trace strictly ordered without shifting later
         packets (the paper treats the split as instantaneous). *)
      BA1.unsafe_set out_times !k t;
      BA1.unsafe_set out_meta !k (Int32.of_int (first lsl 1));
      BA1.unsafe_set out_times (!k + 1) (t +. 1e-7);
      BA1.unsafe_set out_meta (!k + 1) (Int32.of_int ((size - first) lsl 1));
      k := !k + 2
    end
    else begin
      BA1.unsafe_set out_times !k t;
      BA1.unsafe_set out_meta !k (BA1.unsafe_get meta i);
      incr k
    end
  done;
  Trace.sort (Trace.of_lanes ~times:out_times ~meta:out_meta)

let delay ?(lo = 0.1) ?(hi = 0.3) ?first_n ~rng trace =
  let n = Trace.length trace in
  let bound = Option.value ~default:n first_n in
  let times = Trace.raw_times trace and meta = Trace.raw_meta trace in
  let out = BA1.create Bigarray.float64 Bigarray.c_layout n in
  let offset = ref 0.0 in
  for i = 0 to n - 1 do
    let t = BA1.unsafe_get times i in
    if i < bound && i > 0 && Int32.to_int (BA1.unsafe_get meta i) land 1 = 0 then begin
      let gap = t -. BA1.unsafe_get times (i - 1) in
      offset := !offset +. (gap *. Rng.uniform rng lo hi)
    end;
    BA1.unsafe_set out i (t +. !offset)
  done;
  Trace.sort (Trace.of_lanes ~times:out ~meta)

let combined ?first_n ~rng trace = delay ?first_n ~rng (split ?first_n trace)
