module Trace = Stob_net.Trace
module Packet = Stob_net.Packet
module Rng = Stob_util.Rng
module Histogram = Stob_util.Histogram

type params = {
  gap_threshold : float;  (** Gaps above this get padded, seconds. *)
  max_dummies_per_gap : int;
  dummy_size : int;
}

let params = { gap_threshold = 0.05; max_dummies_per_gap = 6; dummy_size = 1500 }

let apply ~rng trace =
  (* Build the "typical gap" histogram from the trace's own sub-threshold
     inter-arrivals (the adaptive part of adaptive padding). *)
  let typical =
    Array.of_list
      (List.filter
         (fun g -> g > 0.0 && g <= params.gap_threshold)
         (Array.to_list (Trace.interarrivals trace)))
  in
  let hist =
    if Array.length typical = 0 then
      Histogram.of_samples ~lo:0.0 ~hi:params.gap_threshold ~bins:16 [| params.gap_threshold /. 4.0 |]
    else Histogram.of_samples ~lo:0.0 ~hi:params.gap_threshold ~bins:16 typical
  in
  let dummies = ref [] in
  for i = 1 to Trace.length trace - 1 do
    let e = Trace.get trace i and prev = Trace.get trace (i - 1) in
    let gap = e.Trace.time -. prev.Trace.time in
    if gap > params.gap_threshold then begin
      (* Fill the silence with dummies in the direction that went quiet. *)
      let t = ref (prev.Trace.time +. Histogram.sample hist rng) in
      let count = ref 0 in
      while !t < e.Trace.time && !count < params.max_dummies_per_gap do
        dummies := { Trace.time = !t; dir = prev.Trace.dir; size = params.dummy_size } :: !dummies;
        incr count;
        t := !t +. Histogram.sample hist rng
      done
    end
  done;
  Trace.concat_sorted [ trace; Trace.of_events (Array.of_list !dummies) ]
