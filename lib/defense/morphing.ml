module Trace = Stob_net.Trace
module Packet = Stob_net.Packet
module Rng = Stob_util.Rng
module Histogram = Stob_util.Histogram

type params = {
  target : Stob_util.Histogram.t;  (** Target incoming packet-size distribution. *)
}

let params =
  (* Bimodal small-packet target: lots of 100-400 B, some 600-900 B. *)
  let samples =
    Array.init 400 (fun i -> if i mod 4 = 0 then 600.0 +. float_of_int (i mod 300) else 100.0 +. float_of_int (i mod 300))
  in
  { target = Histogram.of_samples ~lo:80.0 ~hi:1000.0 ~bins:32 samples }

let apply ~rng trace =
  let out = ref [] in
  for i = 0 to Trace.length trace - 1 do
    let e = Trace.get trace i in
    if e.Trace.dir <> Packet.Incoming then out := e :: !out
    else begin
      (* Cover the real bytes with draws from the target distribution;
         the final draw's excess is padding. *)
      let remaining = ref e.Trace.size in
      let k = ref 0 in
      while !remaining > 0 do
        let size = Int.max 80 (int_of_float (Histogram.sample params.target rng)) in
        out :=
          { e with Trace.size; time = e.Trace.time +. (float_of_int !k *. 5e-5) } :: !out;
        remaining := !remaining - size;
        incr k
      done
    end
  done;
  Trace.concat_sorted [ Trace.of_events (Array.of_list (List.rev !out)) ]
