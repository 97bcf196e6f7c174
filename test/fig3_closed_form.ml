(* Fig 3 as the cost model's closed form, the oracle of "fig3 matches the
   closed form".

   The Fig 3 sender is CPU-bound (41.5 Gb/s on a 100 Gb/s link), so its
   throughput is the wire bytes of one cycle of the reduction schedules
   divided by the CPU time charged for them.  The payload schedule has 11
   steps and the TSO schedule 9, so the joint cycle is 99 segments.
   Segment [i] carries [n] packets of [p] payload bytes:

   - p = max 1 (1448 - alpha * (i mod 11)), or 1448 without the payload
     term;
   - n = max 1 (65160 / p - s * (i mod 9)), s = max 1 (alpha / 4), or
     65160 / p without the TSO term.

   The packet series keeps only the payload term, the TSO series only the
   TSO term, and the combined series both.  A segment puts n * (p + 52)
   bytes on the wire and costs 4 us + n * 80 ns + 0.08 ns per wire byte.

   Every constant is written out instead of read from the library, so a
   wrong MSS, header size, TSO cap (65160 = 45 MSS under 65535 bytes) or
   CPU cost makes the comparison fail. *)

type series = Packet | Tso | Combined

let segment ~alpha ~series i =
  let s = Int.max 1 (alpha / 4) in
  let payload_term, tso_term =
    match series with Packet -> (true, false) | Tso -> (false, true) | Combined -> (true, true)
  in
  let p = if payload_term then Int.max 1 (1448 - (alpha * (i mod 11))) else 1448 in
  let n = Int.max 1 ((65160 / p) - if tso_term then s * (i mod 9) else 0) in
  let wire = n * (p + 52) in
  (wire, 4e-6 +. (float_of_int n *. 80e-9) +. (float_of_int wire *. 0.08e-9))

let gbps ~alpha ~series =
  let wire = ref 0 and cpu = ref 0.0 in
  for i = 0 to 98 do
    let w, c = segment ~alpha ~series i in
    wire := !wire + w;
    cpu := !cpu +. c
  done;
  8.0 *. float_of_int !wire /. !cpu /. 1e9

(* With no reduction every series is the unmodified sender. *)
let baseline_gbps = gbps ~alpha:0 ~series:Packet
