module Trace = Stob_net.Trace

let ratio extra base = if base <= 0.0 then 0.0 else extra /. base

let bandwidth_overhead ~original ~defended =
  let o = float_of_int (Trace.bytes original) and d = float_of_int (Trace.bytes defended) in
  ratio (d -. o) o

let latency_overhead ~original ~defended =
  ratio (Trace.duration defended -. Trace.duration original) (Trace.duration original)

let packet_overhead ~original ~defended =
  let o = float_of_int (Trace.length original) and d = float_of_int (Trace.length defended) in
  ratio (d -. o) o

type summary = { bandwidth : float; latency : float; packets : float }

let summarize ~original ~defended =
  {
    bandwidth = bandwidth_overhead ~original ~defended;
    latency = latency_overhead ~original ~defended;
    packets = packet_overhead ~original ~defended;
  }

let mean_summary summaries =
  let n = float_of_int (max 1 (List.length summaries)) in
  let sum f = List.fold_left (fun acc s -> acc +. f s) 0.0 summaries in
  {
    bandwidth = sum (fun s -> s.bandwidth) /. n;
    latency = sum (fun s -> s.latency) /. n;
    packets = sum (fun s -> s.packets) /. n;
  }
