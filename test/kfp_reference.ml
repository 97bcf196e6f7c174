(* The seed k-FP featurizer, preserved as-is for the kfp.packed oracle.  Do
   not "improve" this file: its whole value is being the unoptimized
   original whose output Features.extract and Features.extract_packed must
   reproduce bit for bit.

   It carries its own copy of the seed's statistics (a fold per moment, a
   polymorphic [Array.sort compare] per order statistic), so a change to
   Stob_util.Stats cannot move the oracle along with the code under test. *)

module Trace = Stob_net.Trace
module Packet = Stob_net.Packet

module Stats = struct
  let sum a = Array.fold_left ( +. ) 0.0 a

  let mean a =
    let n = Array.length a in
    if n = 0 then 0.0 else sum a /. float_of_int n

  let variance a =
    let n = Array.length a in
    if n < 2 then 0.0
    else
      let m = mean a in
      let acc = Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 a in
      acc /. float_of_int n

  let std a = sqrt (variance a)
  let min_ a = if Array.length a = 0 then 0.0 else Array.fold_left min a.(0) a
  let max_ a = if Array.length a = 0 then 0.0 else Array.fold_left max a.(0) a

  let sorted_copy a =
    let b = Array.copy a in
    Array.sort compare b;
    b

  let percentile_sorted sorted p =
    let n = Array.length sorted in
    if n = 0 then 0.0
    else if n = 1 then sorted.(0)
    else begin
      let p = if p < 0.0 then 0.0 else if p > 100.0 then 100.0 else p in
      let rank = p /. 100.0 *. float_of_int (n - 1) in
      let lo = int_of_float (Float.floor rank) in
      let hi = int_of_float (Float.ceil rank) in
      if lo = hi then sorted.(lo)
      else
        let frac = rank -. float_of_int lo in
        sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
    end

  let percentile a p = percentile_sorted (sorted_copy a) p
  let median a = percentile a 50.0

  let cumulative a =
    let n = Array.length a in
    let out = Array.make n 0.0 in
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      acc := !acc +. a.(i);
      out.(i) <- !acc
    done;
    out
end

let chunk_size = 20

(* Evenly-spaced subsample of an arbitrary-length series, padded with 0. *)
let sampled n series =
  let len = Array.length series in
  Array.init n (fun i ->
      if len = 0 then 0.0
      else
        let idx = i * len / n in
        series.(min idx (len - 1)))

(* Size bands (wire bytes) counted per direction. *)
let size_bands = [| 100; 300; 600; 900; 1200; 1500 |]

let band_counts sizes =
  let counts = Array.make (Array.length size_bands) 0.0 in
  Array.iter
    (fun s ->
      let rec place i =
        if i >= Array.length size_bands - 1 then counts.(Array.length size_bands - 1) <- counts.(Array.length size_bands - 1) +. 1.0
        else if s <= float_of_int size_bands.(i) then counts.(i) <- counts.(i) +. 1.0
        else place (i + 1)
      in
      place 0)
    sizes;
  Array.to_list counts

(* Burst lengths: maximal runs of consecutive same-direction packets. *)
let burst_lengths trace dir =
  let bursts = ref [] and current = ref 0 in
  Array.iter
    (fun e ->
      if e.Trace.dir = dir then incr current
      else if !current > 0 then begin
        bursts := float_of_int !current :: !bursts;
        current := 0
      end)
    trace;
  if !current > 0 then bursts := float_of_int !current :: !bursts;
  Array.of_list (List.rev !bursts)

let count_ge bursts threshold =
  Array.fold_left (fun acc b -> if b >= threshold then acc +. 1.0 else acc) 0.0 bursts

let concentration trace =
  let n = Trace.length trace in
  let n_chunks = (n + chunk_size - 1) / chunk_size in
  Array.init n_chunks (fun c ->
      let lo = c * chunk_size and hi = min n ((c + 1) * chunk_size) in
      let count = ref 0 in
      for i = lo to hi - 1 do
        if trace.(i).Trace.dir = Packet.Outgoing then incr count
      done;
      float_of_int !count)

let packets_per_bucket trace ~bucket =
  let n = Trace.length trace in
  if n = 0 then [||]
  else begin
    let duration = Trace.duration trace in
    let buckets = max 1 (1 + int_of_float (duration /. bucket)) in
    let counts = Array.make buckets 0.0 in
    let t0 = trace.(0).Trace.time in
    Array.iter
      (fun e ->
        let b = min (buckets - 1) (int_of_float ((e.Trace.time -. t0) /. bucket)) in
        counts.(b) <- counts.(b) +. 1.0)
      trace;
    counts
  end

let time_percentiles times = List.map (Stats.percentile times) [ 25.0; 50.0; 75.0; 100.0 ]

let interarrival_block gaps =
  [ Stats.max_ gaps; Stats.mean gaps; Stats.std gaps; Stats.percentile gaps 75.0 ]

(* Positions (indices) of packets of one direction within the trace. *)
let positions trace dir =
  let pos = ref [] in
  Array.iteri (fun i e -> if e.Trace.dir = dir then pos := float_of_int i :: !pos) trace;
  Array.of_list (List.rev !pos)

let safe_frac num den = if den = 0.0 then 0.0 else num /. den

type view = {
  n : float;
  n_in : float;
  n_out : float;
  bytes_total : float;
  bytes_in : float;
  bytes_out : float;
  sizes_in : float array;
  sizes_out : float array;
  gaps : float array;
  gaps_in : float array;
  gaps_out : float array;
  rel_times : float array;
  rel_times_in : float array;
  rel_times_out : float array;
  pos_out : float array;
  pos_in : float array;
  conc : float array;
  pps : float array;
  first30_in : float;
  first30_out : float;
  last30_in : float;
  last30_out : float;
  bursts_out : float array;
  bursts_in : float array;
  cumul : float array;
  duration : float;
}

let view_of_trace trace =
  let rel_times_dir dir =
    let ts = Trace.times ~dir trace in
    let all = Trace.times trace in
    if Array.length all = 0 then [||] else Array.map (fun t -> t -. all.(0)) ts
  in
  let first30 = Trace.prefix trace 30 in
  let last30 =
    let len = Trace.length trace in
    if len <= 30 then Array.copy trace else Array.sub trace (len - 30) 30
  in
  {
    n = float_of_int (Trace.length trace);
    n_in = float_of_int (Trace.count ~dir:Packet.Incoming trace);
    n_out = float_of_int (Trace.count ~dir:Packet.Outgoing trace);
    bytes_total = float_of_int (Trace.bytes trace);
    bytes_in = float_of_int (Trace.bytes ~dir:Packet.Incoming trace);
    bytes_out = float_of_int (Trace.bytes ~dir:Packet.Outgoing trace);
    sizes_in = Trace.sizes ~dir:Packet.Incoming trace;
    sizes_out = Trace.sizes ~dir:Packet.Outgoing trace;
    gaps = Trace.interarrivals trace;
    gaps_in = Trace.interarrivals ~dir:Packet.Incoming trace;
    gaps_out = Trace.interarrivals ~dir:Packet.Outgoing trace;
    rel_times =
      (let ts = Trace.times trace in
       if Array.length ts = 0 then [||] else Array.map (fun t -> t -. ts.(0)) ts);
    rel_times_in = rel_times_dir Packet.Incoming;
    rel_times_out = rel_times_dir Packet.Outgoing;
    pos_out = positions trace Packet.Outgoing;
    pos_in = positions trace Packet.Incoming;
    conc = concentration trace;
    pps = packets_per_bucket trace ~bucket:0.25;
    first30_in = float_of_int (Trace.count ~dir:Packet.Incoming first30);
    first30_out = float_of_int (Trace.count ~dir:Packet.Outgoing first30);
    last30_in = float_of_int (Trace.count ~dir:Packet.Incoming last30);
    last30_out = float_of_int (Trace.count ~dir:Packet.Outgoing last30);
    bursts_out = burst_lengths trace Packet.Outgoing;
    bursts_in = burst_lengths trace Packet.Incoming;
    cumul = Stats.cumulative (Trace.signed_sizes trace);
    duration = Trace.duration trace;
  }

let assemble v =
  let n = v.n
  and n_in = v.n_in
  and n_out = v.n_out
  and bytes_total = v.bytes_total
  and bytes_in = v.bytes_in
  and bytes_out = v.bytes_out
  and sizes_in = v.sizes_in
  and sizes_out = v.sizes_out
  and gaps = v.gaps
  and gaps_in = v.gaps_in
  and gaps_out = v.gaps_out
  and rel_times = v.rel_times
  and pos_out = v.pos_out
  and pos_in = v.pos_in
  and conc = v.conc
  and pps = v.pps
  and bursts_out = v.bursts_out
  and bursts_in = v.bursts_in
  and cumul = v.cumul in
  let block name values = List.map (fun (suffix, v) -> (name ^ "." ^ suffix, v)) values in
  let stats_named prefix a =
    block prefix
      [ ("mean", Stats.mean a); ("std", Stats.std a); ("median", Stats.median a);
        ("min", Stats.min_ a); ("max", Stats.max_ a) ]
  in
  let indexed prefix values =
    List.mapi (fun i v -> (Printf.sprintf "%s.%02d" prefix i, v)) (Array.to_list values)
  in
  List.concat
    [
      (* 1. counts *)
      [
        ("count.total", n);
        ("count.in", n_in);
        ("count.out", n_out);
        ("count.frac_in", safe_frac n_in n);
        ("count.frac_out", safe_frac n_out n);
      ];
      (* 2. bytes and size stats *)
      [
        ("bytes.total", bytes_total);
        ("bytes.in", bytes_in);
        ("bytes.out", bytes_out);
        ("bytes.frac_in", safe_frac bytes_in bytes_total);
      ];
      stats_named "size.in" sizes_in;
      stats_named "size.out" sizes_out;
      (* 3. inter-arrival stats *)
      block "iat.total"
        (List.map2 (fun k v -> (k, v)) [ "max"; "mean"; "std"; "p75" ] (interarrival_block gaps));
      block "iat.in"
        (List.map2 (fun k v -> (k, v)) [ "max"; "mean"; "std"; "p75" ] (interarrival_block gaps_in));
      block "iat.out"
        (List.map2 (fun k v -> (k, v)) [ "max"; "mean"; "std"; "p75" ] (interarrival_block gaps_out));
      (* 4. transmission-time percentiles *)
      block "time.total"
        (List.map2 (fun k v -> (k, v)) [ "p25"; "p50"; "p75"; "p100" ] (time_percentiles rel_times));
      block "time.in"
        (List.map2
           (fun k v -> (k, v))
           [ "p25"; "p50"; "p75"; "p100" ]
           (time_percentiles v.rel_times_in));
      block "time.out"
        (List.map2
           (fun k v -> (k, v))
           [ "p25"; "p50"; "p75"; "p100" ]
           (time_percentiles v.rel_times_out));
      (* 5. ordering *)
      [
        ("order.out.mean", Stats.mean pos_out);
        ("order.out.std", Stats.std pos_out);
        ("order.in.mean", Stats.mean pos_in);
        ("order.in.std", Stats.std pos_in);
      ];
      (* 6. concentration of outgoing packets (20-packet chunks) *)
      stats_named "conc" conc;
      [ ("conc.sum", Stats.sum conc) ];
      indexed "conc.sample" (sampled 20 conc);
      (* 7. packets per 0.25 s *)
      stats_named "pps" pps;
      indexed "pps.sample" (sampled 20 pps);
      (* 8. first/last 30 packets *)
      [
        ("first30.in", v.first30_in);
        ("first30.out", v.first30_out);
        ("last30.in", v.last30_in);
        ("last30.out", v.last30_out);
      ];
      (* 9. bursts *)
      [
        ("burst.out.count", float_of_int (Array.length bursts_out));
        ("burst.out.mean", Stats.mean bursts_out);
        ("burst.out.max", Stats.max_ bursts_out);
        ("burst.out.ge5", count_ge bursts_out 5.0);
        ("burst.out.ge10", count_ge bursts_out 10.0);
        ("burst.in.count", float_of_int (Array.length bursts_in));
        ("burst.in.mean", Stats.mean bursts_in);
        ("burst.in.max", Stats.max_ bursts_in);
        ("burst.in.ge5", count_ge bursts_in 5.0);
        ("burst.in.ge10", count_ge bursts_in 10.0);
      ];
      (* 10. size bands *)
      List.mapi
        (fun i v -> (Printf.sprintf "band.in.%02d" i, v))
        (band_counts sizes_in);
      List.mapi
        (fun i v -> (Printf.sprintf "band.out.%02d" i, v))
        (band_counts sizes_out);
      (* 11. duration *)
      [ ("duration", v.duration) ];
      (* 12. CUMUL-style sampled cumulative signed size *)
      indexed "cumul" (sampled 20 cumul);
    ]

let named_features trace = assemble (view_of_trace trace)

let names = Array.of_list (List.map fst (named_features Trace.empty))

let extract trace = Array.of_list (List.map snd (named_features trace))
