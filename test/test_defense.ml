(* Tests for stob_defense: Section 3 emulation, literature defenses,
   overhead metrics, Table 1 registry. *)

module Rng = Stob_util.Rng
module Trace = Stob_net.Trace
module Packet = Stob_net.Packet
open Stob_defense

let ev time dir size = { Trace.time; dir; size }

(* The events of a trace, to iterate over in checks. *)
let events = Trace_reference.of_lanes
let out = Packet.Outgoing
let inc = Packet.Incoming

let web_like_trace () =
  (* Handshake-ish small packets, then big downloads with some out acks. *)
  Trace.of_events
    (Array.init 100 (fun i ->
         if i < 4 then ev (float_of_int i *. 0.02) (if i mod 2 = 0 then out else inc) 300
         else
           let dir = if i mod 6 = 0 then out else inc in
           ev (0.08 +. (float_of_int i *. 0.01)) dir (if dir = out then 92 else 1452)))

(* --- Emulate.split --- *)

let test_split_conserves_bytes () =
  let t = web_like_trace () in
  let s = Emulate.split t in
  Alcotest.(check int) "incoming bytes conserved" (Trace.bytes ~dir:inc t) (Trace.bytes ~dir:inc s);
  Alcotest.(check int) "outgoing untouched" (Trace.bytes ~dir:out t) (Trace.bytes ~dir:out s)

let test_split_caps_sizes () =
  let s = Emulate.split (web_like_trace ()) in
  Array.iter
    (fun e ->
      if e.Trace.dir = inc then Alcotest.(check bool) "capped" true (e.Trace.size <= 1200))
    (events s)

let test_split_only_incoming () =
  let t = Trace.of_events [| ev 0.0 out 1500; ev 0.1 inc 1500 |] in
  let s = Emulate.split t in
  Alcotest.(check int) "one outgoing still" 1 (Array.length (Trace.times ~dir:out s));
  Alcotest.(check int) "incoming split in two" 2 (Array.length (Trace.times ~dir:inc s));
  (* The outgoing packet keeps its size: the defense is server-side. *)
  Array.iter
    (fun e -> if e.Trace.dir = out then Alcotest.(check int) "unsplit" 1500 e.Trace.size)
    (events s)

let test_split_first_n_only () =
  let t = Trace.of_events (Array.init 20 (fun i -> ev (float_of_int i) inc 1500)) in
  let s = Emulate.split ~first_n:5 t in
  (* 5 split packets -> 10, remaining 15 untouched. *)
  Alcotest.(check int) "length" 25 (Trace.length s);
  let big = Array.to_list (events s) |> List.filter (fun e -> e.Trace.size > 1200) in
  Alcotest.(check int) "15 still large" 15 (List.length big)

let test_split_threshold_boundary () =
  let t = Trace.of_events [| ev 0.0 inc 1200; ev 0.1 inc 1201 |] in
  let s = Emulate.split t in
  Alcotest.(check int) "only above threshold splits" 3 (Trace.length s)

let test_split_sorted () =
  let s = Emulate.split (web_like_trace ()) in
  Alcotest.(check bool) "sorted" true (Trace.is_sorted s)

(* --- Emulate.delay --- *)

let test_delay_never_earlier () =
  let t = web_like_trace () in
  let d = Emulate.delay ~rng:(Rng.create 1) t in
  Alcotest.(check int) "same packet count" (Trace.length t) (Trace.length d);
  Array.iteri
    (fun i e -> Alcotest.(check bool) "time moved forward" true (e.Trace.time >= Trace.time t i))
    (events d)

let test_delay_preserves_sizes () =
  let t = web_like_trace () in
  let d = Emulate.delay ~rng:(Rng.create 2) t in
  Array.iteri (fun i e -> Alcotest.(check int) "size" (Trace.size t i) e.Trace.size) (events d)

let test_delay_stretches_duration () =
  let t = web_like_trace () in
  let d = Emulate.delay ~rng:(Rng.create 3) t in
  Alcotest.(check bool) "longer" true (Trace.duration d > Trace.duration t);
  (* Cumulative stretch is bounded by 30 % of the total duration plus some
     slack for the leading gap. *)
  Alcotest.(check bool) "bounded" true (Trace.duration d < Trace.duration t *. 1.5)

let test_delay_first_n_constant_tail_shift () =
  let t = Trace.of_events (Array.init 30 (fun i -> ev (float_of_int i *. 0.1) inc 1000)) in
  let d = Emulate.delay ~first_n:10 ~rng:(Rng.create 4) t in
  (* After the prefix, all gaps revert to the original 0.1. *)
  let gaps = Trace.interarrivals d in
  for i = 12 to 28 do
    Alcotest.(check (float 1e-9)) "tail gap unchanged" 0.1 gaps.(i - 1)
  done

let test_combined_splits_and_delays () =
  let t = web_like_trace () in
  let c = Emulate.combined ~rng:(Rng.create 5) t in
  Alcotest.(check bool) "more packets" true (Trace.length c > Trace.length t);
  Alcotest.(check bool) "longer" true (Trace.duration c > Trace.duration t);
  Alcotest.(check int) "incoming bytes conserved" (Trace.bytes ~dir:inc t) (Trace.bytes ~dir:inc c)

(* --- FRONT --- *)

let test_front_adds_dummies_both_directions () =
  let t = web_like_trace () in
  let f = Front.apply ~rng:(Rng.create 6) t in
  Alcotest.(check bool) "more packets" true (Trace.length f > Trace.length t);
  Alcotest.(check bool) "added out" true (Array.length (Trace.times ~dir:out f) > Array.length (Trace.times ~dir:out t));
  Alcotest.(check bool) "added in" true (Array.length (Trace.times ~dir:inc f) > Array.length (Trace.times ~dir:inc t))

let test_front_zero_latency () =
  let t = web_like_trace () in
  let f = Front.apply ~rng:(Rng.create 7) t in
  (* Real packets keep their timestamps: FRONT is zero-delay. *)
  let originals = Array.to_list (events t) in
  List.iter
    (fun (e : Trace.event) ->
      Alcotest.(check bool) "original event present" true (Array.exists (fun e' -> e' = e) (events f)))
    originals;
  Alcotest.(check bool) "duration not extended" true
    (Trace.duration f <= Trace.duration t +. 1e-9)

let test_front_bandwidth_overhead_order () =
  (* Across a small corpus, FRONT's bandwidth overhead is tens of percent
     or more (the paper cites ~80%). *)
  let rng = Rng.create 8 in
  let overheads =
    List.init 10 (fun _ ->
        let t = web_like_trace () in
        (Overhead.summarize ~original:t ~defended:(Front.apply ~rng t)).Overhead.bandwidth)
  in
  let mean = List.fold_left ( +. ) 0.0 overheads /. 10.0 in
  Alcotest.(check bool) (Printf.sprintf "mean overhead %.2f > 0.2" mean) true (mean > 0.2)

(* --- BuFLO --- *)

let test_buflo_constant_rate () =
  let b = Buflo.apply (web_like_trace ()) in
  let gaps_in = Trace.interarrivals ~dir:inc b in
  Array.iter
    (fun g -> Alcotest.(check (float 1e-9)) "constant interval" 0.004 g)
    gaps_in;
  Array.iter (fun e -> Alcotest.(check int) "fixed size" 1500 e.Trace.size) (events b)

let test_buflo_minimum_duration () =
  let tiny = Trace.of_events [| ev 0.0 out 100; ev 0.01 inc 2000 |] in
  let b = Buflo.apply tiny in
  Alcotest.(check bool) "padded to tau" true (Trace.duration b >= 9.9)

let test_buflo_carries_real_bytes () =
  let t = web_like_trace () in
  let b = Buflo.apply t in
  Alcotest.(check bool) "incoming capacity >= real bytes" true
    (Trace.bytes ~dir:inc b >= Trace.bytes ~dir:inc t)

let test_buflo_uniform_output () =
  (* Two very different traces yield the same stream when volumes fit under
     the tau-floor: regularization. *)
  let small1 = Trace.of_events [| ev 0.0 inc 5000; ev 0.1 out 300 |] in
  let small2 = Trace.of_events [| ev 0.0 inc 9000; ev 0.3 out 800; ev 0.5 inc 100 |] in
  let b1 = Buflo.apply small1 and b2 = Buflo.apply small2 in
  Alcotest.(check int) "same length" (Trace.length b1) (Trace.length b2);
  Alcotest.(check (float 1e-9)) "same duration" (Trace.duration b1) (Trace.duration b2)

(* --- RegulaTor --- *)

let test_regulator_reshapes_downloads () =
  let t = web_like_trace () in
  let r = Regulator.apply t in
  Alcotest.(check bool) "nonempty" true (Trace.length r > 0);
  Array.iter (fun e -> Alcotest.(check int) "uniform size" 1500 e.Trace.size) (events r);
  Alcotest.(check bool) "sorted" true (Trace.is_sorted r)

let test_regulator_carries_volume () =
  let t = web_like_trace () in
  let r = Regulator.apply t in
  Alcotest.(check bool) "at least as many downloads as real" true
    (Array.length (Trace.times ~dir:inc r) >= Array.length (Trace.times ~dir:inc t))

let test_regulator_decaying_rate () =
  (* A single burst at t=0: output gaps grow (rate decays). *)
  let t = Trace.of_events (Array.init 50 (fun i -> ev (float_of_int i *. 1e-4) inc 1500)) in
  let r = Regulator.apply t in
  let gaps = Trace.interarrivals ~dir:inc r in
  Alcotest.(check bool) "later gaps longer" true
    (Array.length gaps > 4 && gaps.(Array.length gaps - 1) > gaps.(0))

(* --- Tamaraw --- *)

let test_tamaraw_pads_to_multiple () =
  let t = web_like_trace () in
  let d = Tamaraw.apply t in
  let n_out = Array.length (Trace.times ~dir:out d) and n_in = Array.length (Trace.times ~dir:inc d) in
  Alcotest.(check int) "out count multiple of L" 0 (n_out mod 100);
  Alcotest.(check int) "in count multiple of L" 0 (n_in mod 100)

let test_tamaraw_constant_intervals () =
  let d = Tamaraw.apply (web_like_trace ()) in
  Array.iter
    (fun g -> Alcotest.(check (float 1e-9)) "in interval" 0.012 g)
    (Trace.interarrivals ~dir:inc d);
  Array.iter
    (fun g -> Alcotest.(check (float 1e-9)) "out interval" 0.04 g)
    (Trace.interarrivals ~dir:out d)

let test_tamaraw_quantizes_lengths () =
  (* Two traces with similar volume map to identical defended lengths. *)
  let t1 = Trace.of_events [| ev 0.0 inc 40_000; ev 0.1 out 2_000 |] in
  let t2 = Trace.of_events [| ev 0.0 inc 55_000; ev 0.2 out 3_000; ev 0.3 inc 10_000 |] in
  Alcotest.(check int) "same bucket"
    (Trace.length (Tamaraw.apply t1))
    (Trace.length (Tamaraw.apply t2))

(* --- WTF-PAD --- *)

let test_wtfpad_fills_gaps () =
  let t =
    Trace.of_events
      (Array.concat
         [
           Array.init 20 (fun i -> ev (float_of_int i *. 0.001) inc 1400);
           [| ev 1.0 inc 1400 |];  (* a 0.98 s silence before this *)
         ])
  in
  let w = Wtfpad.apply ~rng:(Rng.create 9) t in
  Alcotest.(check bool) "dummies added" true (Trace.length w > Trace.length t);
  (* Dummies land inside the silence (just after it opens, spaced like the
     flow's typical gaps) and are MTU-sized, unlike the real 1400 B
     packets. *)
  Alcotest.(check bool) "silence filled" true
    (Array.exists (fun e -> e.Trace.time > 0.0191 && e.Trace.time < 1.0 && e.Trace.size = 1500) (events w));
  Alcotest.(check bool) "bounded per gap" true
    (Trace.length w <= Trace.length t + 6)

let test_wtfpad_zero_latency () =
  let t = web_like_trace () in
  let w = Wtfpad.apply ~rng:(Rng.create 10) t in
  Alcotest.(check (float 1e-9)) "no latency overhead" 0.0
    (Overhead.summarize ~original:t ~defended:w).Overhead.latency

(* --- ALPaCA --- *)

let test_alpaca_pads_bursts_to_quantum () =
  let t = web_like_trace () in
  let d = Alpaca.apply t in
  Alcotest.(check bool) "padding added" true
    (Trace.bytes ~dir:inc d > Trace.bytes ~dir:inc t);
  (* All incoming bytes together quantize: every burst is a multiple of
     8 KiB, so the total is too (one burst in this trace shape). *)
  Alcotest.(check int) "quantized" 0 (Trace.bytes ~dir:inc d mod 8192)

let test_alpaca_outgoing_untouched () =
  let t = web_like_trace () in
  let d = Alpaca.apply t in
  Alcotest.(check int) "outgoing count" (Array.length (Trace.times ~dir:out t)) (Array.length (Trace.times ~dir:out d))

let test_alpaca_separate_bursts () =
  (* Two bursts separated by a long gap are padded independently. *)
  let t = Trace.of_events [| ev 0.0 inc 5000; ev 0.001 inc 5000; ev 1.0 inc 3000 |] in
  let d = Alpaca.apply t in
  let early = Array.to_list (events d) |> List.filter (fun e -> e.Trace.time < 0.5) in
  let late = Array.to_list (events d) |> List.filter (fun e -> e.Trace.time >= 0.5) in
  let bytes l = List.fold_left (fun acc e -> acc + e.Trace.size) 0 l in
  Alcotest.(check int) "burst 1 quantized" 0 (bytes early mod 8192);
  Alcotest.(check int) "burst 2 quantized" 0 (bytes late mod 8192)

(* --- Morphing --- *)

let test_morphing_wears_target_sizes () =
  let t = web_like_trace () in
  let d = Morphing.apply ~rng:(Rng.create 16) t in
  Array.iter
    (fun e ->
      if e.Trace.dir = inc then
        Alcotest.(check bool) "size from target domain" true (e.Trace.size >= 80 && e.Trace.size <= 1000))
    (events d);
  (* Real bytes are covered (padding allowed, loss not). *)
  Alcotest.(check bool) "covers real bytes" true
    (Trace.bytes ~dir:inc d >= Trace.bytes ~dir:inc t)

let test_morphing_outgoing_untouched () =
  let t = web_like_trace () in
  let d = Morphing.apply ~rng:(Rng.create 17) t in
  Alcotest.(check int) "outgoing bytes" (Trace.bytes ~dir:out t) (Trace.bytes ~dir:out d)

(* --- Surakav --- *)

let test_surakav_covers_payload () =
  let t = web_like_trace () in
  let d = Surakav.apply ~rng:(Rng.create 18) t in
  Alcotest.(check bool) "reference schedule covers real bytes" true
    (Trace.bytes ~dir:inc d >= Trace.bytes ~dir:inc t);
  Array.iter (fun e -> Alcotest.(check int) "uniform size" 1500 e.Trace.size) (events d)

let test_surakav_content_independent_schedule () =
  (* Same rng seed, different contents of similar size: identical shape. *)
  let t1 = Trace.of_events [| ev 0.0 inc 100_000 |]
  and t2 = Trace.of_events [| ev 0.0 inc 100_500; ev 0.1 inc 1000 |] in
  let d1 = Surakav.apply ~rng:(Rng.create 19) t1 in
  let d2 = Surakav.apply ~rng:(Rng.create 19) t2 in
  (* The schedules come from the same draws; lengths differ by at most one
     burst. *)
  Alcotest.(check bool) "similar lengths" true
    (abs (Trace.length d1 - Trace.length d2) <= 40)

(* --- Cactus --- *)

let test_cactus_quantizes_time_and_size () =
  let t = web_like_trace () in
  let d = Cactus.apply ~rng:(Rng.create 20) t in
  Array.iter (fun e -> Alcotest.(check int) "cell size" 1200 e.Trace.size) (events d);
  Alcotest.(check bool) "volume covered" true (Trace.bytes d >= Trace.bytes t);
  Alcotest.(check bool) "sorted" true (Trace.is_sorted d)

let test_cactus_preserves_per_direction_volume () =
  let t = web_like_trace () in
  let d = Cactus.apply ~rng:(Rng.create 21) t in
  Alcotest.(check bool) "incoming covered" true
    (Trace.bytes ~dir:inc d >= Trace.bytes ~dir:inc t);
  Alcotest.(check bool) "outgoing covered" true
    (Trace.bytes ~dir:out d >= Trace.bytes ~dir:out t)

(* --- NetShaper --- *)

let test_netshaper_fixed_sizes () =
  let d = Netshaper.apply ~rng:(Rng.create 12) (web_like_trace ()) in
  Array.iter
    (fun e ->
      if e.Trace.dir = inc then Alcotest.(check int) "uniform size" 1500 e.Trace.size)
    (events d);
  Alcotest.(check bool) "sorted" true (Trace.is_sorted d)

let test_netshaper_carries_volume () =
  let t = web_like_trace () in
  let d = Netshaper.apply ~rng:(Rng.create 13) t in
  Alcotest.(check bool) "incoming volume covered" true
    (Trace.bytes ~dir:inc d >= Trace.bytes ~dir:inc t)

let test_netshaper_pads_idle_windows () =
  (* A single small burst still produces at least the per-window floor. *)
  let t = Trace.of_events [| ev 0.0 inc 3000; ev 0.3 inc 2000 |] in
  let d = Netshaper.apply ~rng:(Rng.create 14) t in
  (* Between the two bursts (0.05..0.3 s) the floor keeps packets flowing. *)
  Alcotest.(check bool) "idle window padded" true
    (Array.exists (fun e -> e.Trace.time > 0.1 && e.Trace.time < 0.28) (events d))

let test_netshaper_outgoing_untouched () =
  let t = web_like_trace () in
  let d = Netshaper.apply ~rng:(Rng.create 15) t in
  Alcotest.(check int) "outgoing count" (Array.length (Trace.times ~dir:out t)) (Array.length (Trace.times ~dir:out d));
  Alcotest.(check int) "outgoing bytes" (Trace.bytes ~dir:out t) (Trace.bytes ~dir:out d)

(* --- Overhead --- *)

let test_overhead_zero_on_identity () =
  let t = web_like_trace () in
  let s = Overhead.summarize ~original:t ~defended:t in
  Alcotest.(check (float 1e-9)) "bw" 0.0 s.Overhead.bandwidth;
  Alcotest.(check (float 1e-9)) "lat" 0.0 s.Overhead.latency;
  Alcotest.(check (float 1e-9)) "pkt" 0.0 s.Overhead.packets

let test_overhead_values () =
  let original = Trace.of_events [| ev 0.0 inc 1000; ev 1.0 inc 1000 |] in
  let defended = Trace.of_events [| ev 0.0 inc 1000; ev 2.0 inc 2000 |] in
  let s = Overhead.summarize ~original ~defended in
  Alcotest.(check (float 1e-9)) "bw +50%" 0.5 s.Overhead.bandwidth;
  Alcotest.(check (float 1e-9)) "lat +100%" 1.0 s.Overhead.latency

let test_overhead_mean_summary () =
  let s1 = { Overhead.bandwidth = 0.2; latency = 0.0; packets = 0.4 } in
  let s2 = { Overhead.bandwidth = 0.4; latency = 0.2; packets = 0.0 } in
  let m = Overhead.mean_summary [ s1; s2 ] in
  Alcotest.(check (float 1e-9)) "bw mean" 0.3 m.Overhead.bandwidth;
  Alcotest.(check (float 1e-9)) "lat mean" 0.1 m.Overhead.latency

(* --- Registry --- *)

let test_registry_covers_table1 () =
  let expected =
    [ "ALPaCA"; "BuFLO"; "Tamaraw"; "RegulaTor"; "Surakav"; "Palette"; "WTF-PAD"; "FRONT"; "BLANKET";
      "Morphing"; "HTTPOS"; "Burst Defense"; "Cactus"; "Adv. FRONT"; "QCSD"; "pad-resource";
      "NetShaper" ]
  in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " present") true
        (List.exists (fun e -> e.Registry.name = name) Registry.all))
    expected

let test_registry_implemented_apply () =
  let rng = Rng.create 11 in
  let t = web_like_trace () in
  List.iter
    (fun e ->
      match e.Registry.apply with
      | None -> Alcotest.fail "implemented entry without apply"
      | Some f ->
          let defended = f ~rng t in
          Alcotest.(check bool) (e.Registry.name ^ " yields a sorted trace") true
            (Trace.is_sorted defended))
    (List.filter (fun e -> e.Registry.apply <> None) Registry.all)

let test_registry_find () =
  let front = List.find (fun e -> e.Registry.name = "FRONT") Registry.all in
  Alcotest.(check bool) "FRONT is implemented" true (front.Registry.apply <> None)

(* --- qcheck properties --- *)

let arbitrary_trace =
  QCheck.make
    QCheck.Gen.(
      list_size (int_range 2 80)
        (map3
           (fun t d s -> ev t (if d then out else inc) (40 + s))
           (float_range 0.0 5.0) bool (int_range 0 1460))
      |> map (fun evs -> Trace.sort (Trace.of_events (Array.of_list evs))))

let prop_split_conserves =
  QCheck.Test.make ~name:"split conserves per-direction bytes" ~count:200 arbitrary_trace
    (fun t ->
      let s = Emulate.split t in
      Trace.bytes ~dir:inc s = Trace.bytes ~dir:inc t
      && Trace.bytes ~dir:out s = Trace.bytes ~dir:out t
      && Trace.is_sorted s)

let prop_delay_monotone =
  QCheck.Test.make ~name:"delay only moves packets later" ~count:200
    QCheck.(pair arbitrary_trace small_int)
    (fun (t, seed) ->
      let d = Emulate.delay ~rng:(Rng.create seed) t in
      Trace.length d = Trace.length t
      && Trace.is_sorted d
      && Trace.duration d >= Trace.duration t -. 1e-12)

let prop_front_superset =
  QCheck.Test.make ~name:"front only adds packets" ~count:100
    QCheck.(pair arbitrary_trace small_int)
    (fun (t, seed) ->
      let f = Front.apply ~rng:(Rng.create seed) t in
      Trace.length f >= Trace.length t && Trace.bytes f >= Trace.bytes t)

(* --- Golden output pins --- *)

(* Every implemented defense, and the Section 3 emulations at a 15-packet
   prefix and over the whole trace, applied to three captured page loads.
   Each pin is the MD5 of the defended trace's packed bytes plus one
   [Rng.bits64] drawn after the call, so a change to either the output or
   the random draws a defense consumes moves a pin. *)
let golden_traces =
  lazy
    (List.map
       (fun (site, seed) ->
         let r = Stob_web.Browser.load ~rng:(Rng.create seed) (Stob_web.Sites.find site) in
         (site, r.Stob_web.Browser.trace))
       [ ("bing.com", 31); ("youtube.com", 32); ("wikipedia.org", 33) ])

let golden_defenses =
  List.filter_map
    (fun (e : Registry.entry) -> Option.map (fun f -> (e.Registry.name, f)) e.Registry.apply)
    Registry.all
  @ List.concat_map
      (fun (label, first_n) ->
        [
          ("split/" ^ label, fun ~rng:_ t -> Emulate.split ?first_n t);
          ("delay/" ^ label, fun ~rng t -> Emulate.delay ?first_n ~rng t);
          ("combined/" ^ label, fun ~rng t -> Emulate.combined ?first_n ~rng t);
        ])
      [ ("N=15", Some 15); ("all", None) ]

let golden_pins () =
  List.concat
    (List.mapi
       (fun i (site, trace) ->
         List.mapi
           (fun j (name, apply) ->
             let rng = Rng.create (900 + (100 * i) + j) in
             let defended = apply ~rng trace in
             let bytes = Stob_net.Trace.to_bytes defended in
             ( name ^ " on " ^ site,
               (Digest.to_hex (Digest.string bytes), Printf.sprintf "%016Lx" (Rng.bits64 rng)) ))
           golden_defenses)
       (Lazy.force golden_traces))

let golden_expected =
  [
    ("ALPaCA on bing.com", ("db7e3ca04d7767d10ff86c9b52226430", "00963fc14e068606"));
    ("BuFLO on bing.com", ("0230a47260457c39d11ff3cb5708bcb6", "ab56c96e4b71b2e6"));
    ("RegulaTor on bing.com", ("6767e032f2e5b488598afa87f51ac4e8", "db657bf4ea84fd9c"));
    ("Tamaraw on bing.com", ("2d5103d34e5e6cfe763e2a03153586c6", "f498553a48353b90"));
    ("Surakav on bing.com", ("c5c3ae693b26c4fe90b3a1587c889a6a", "e6ec0cd5d6f8e8de"));
    ("WTF-PAD on bing.com", ("648633a7d2979513d2519687dc1815d8", "c1911a826a81ca29"));
    ("FRONT on bing.com", ("a171c8d70e5fb0002e027b8365adb3fb", "4ba264c90c4ed610"));
    ("Morphing on bing.com", ("22bb5b8fc5e5219dd6a0b46ec41d8b2f", "b385d143221c8be2"));
    ("Cactus on bing.com", ("479731fe28af2798b852c2a8de608ce7", "80d929df62f3795b"));
    ("NetShaper on bing.com", ("9be48d355a2694a7095d71584a10b86c", "d7dedbbd07a6295b"));
    ("Stob-split on bing.com", ("692bfbfa40e248ae8330c625a38537b8", "01357c056c3669e9"));
    ("Stob-delay on bing.com", ("842de0833c1f059db5ddbc9f329c8bc9", "730b9ccbf62a68aa"));
    ("Stob-combined on bing.com", ("eb3842a77eff8ddb4eb0c92b2ba1f7c8", "fd6a7cbdddd62626"));
    ("split/N=15 on bing.com", ("c40c416bb54df1bc47c97d24ad6e3c33", "49d0296154c29615"));
    ("delay/N=15 on bing.com", ("b70b1e652b80b2f8b8d8af0e7dd02dbb", "7eb83269f1fb8309"));
    ("combined/N=15 on bing.com", ("0b02160340fe82757cb5159f31dedbdc", "2e8a53b253e7b9f6"));
    ("split/all on bing.com", ("692bfbfa40e248ae8330c625a38537b8", "5c89377645559e56"));
    ("delay/all on bing.com", ("0244bff2712b2fa414586907af0bb7bb", "8c9c99278fec076c"));
    ("combined/all on bing.com", ("fb15751007b8c8056afcad1c0dff626b", "ce3ae8145a77e9b7"));
    ("ALPaCA on youtube.com", ("59aad5f8166d4f20a2a8eabf30c198b1", "c6d7ffb7827ee1d1"));
    ("BuFLO on youtube.com", ("7ac31b6133f76c73acec44800d65861c", "586f70befa22bca2"));
    ("RegulaTor on youtube.com", ("fb5e21126072e9c6ef99d0623d2191d3", "f58b6a20da17e50b"));
    ("Tamaraw on youtube.com", ("1fccb953228f36319bb5091388d4e996", "cd96a69fa5d00b5a"));
    ("Surakav on youtube.com", ("ffdae61689a0cad1fbbe489a648d46ee", "d215d622550e520d"));
    ("WTF-PAD on youtube.com", ("30b45f431b4633c06d6ea0abd6405729", "b00f99bad70b3497"));
    ("FRONT on youtube.com", ("eabf2ff901560f46b6d4045d8b5400c0", "08a7fda768b6a713"));
    ("Morphing on youtube.com", ("796e6b3203e3f3fb96d583f39b12416c", "db6a6e35dd42c7c3"));
    ("Cactus on youtube.com", ("c3c6ccb94fbd43d25ba3ffd4b7802ce2", "3cf52d3668aec4c0"));
    ("NetShaper on youtube.com", ("3f78cfd18c484da34c48c7c3b1e45c43", "86837f83180b331d"));
    ("Stob-split on youtube.com", ("0e6a15b9c968c0eecec772cf03b80185", "957c75d2fdf36952"));
    ("Stob-delay on youtube.com", ("f42c64bfa8285748d851846de6fac1e6", "1943c1c3fa62de5b"));
    ("Stob-combined on youtube.com", ("45d1988123a2a458fa730147cc84f309", "26a449ecee2fea04"));
    ("split/N=15 on youtube.com", ("9751157b13a4d56802cdb48e020518e0", "f54fbd155de5a7f1"));
    ("delay/N=15 on youtube.com", ("f78be2e62a5556a1ee5bbf1ec7cf8e3d", "9b93ae858237ac5b"));
    ("combined/N=15 on youtube.com", ("2035d58ae6c25a29bbdc21144e923d63", "6eada392e909ec5a"));
    ("split/all on youtube.com", ("0e6a15b9c968c0eecec772cf03b80185", "ec34088980474e68"));
    ("delay/all on youtube.com", ("bde32b56382d46b67aa9557a193b0095", "24b95d10f9e4a4bc"));
    ("combined/all on youtube.com", ("fb2fe4fe0114a923430ce8e4c3c117bf", "e3ee9b268a9d1d5b"));
    ("ALPaCA on wikipedia.org", ("c581a9ba6cda5f4df5e255519ba9aacc", "c8e8d080dcd34edf"));
    ("BuFLO on wikipedia.org", ("0230a47260457c39d11ff3cb5708bcb6", "891a7666bbac55e8"));
    ("RegulaTor on wikipedia.org", ("95e09fdd48fb7cf8f9f9866ef32b32b2", "02decb16ce08d09a"));
    ("Tamaraw on wikipedia.org", ("c07d8c34f3e58c0ff6c0b25885c78e5b", "55a49cd8ecc6304b"));
    ("Surakav on wikipedia.org", ("8719f9e8a024336d9a14c98e82c0af41", "9bd3be33389356ae"));
    ("WTF-PAD on wikipedia.org", ("16db1223c8beefd8bf29f8021aba1f02", "a23768e004c88153"));
    ("FRONT on wikipedia.org", ("3b3504efc08db5a2b1e5258c5ef6cdfe", "fb4e86a5415cfaab"));
    ("Morphing on wikipedia.org", ("a50ed35d1384a2756c4c87c5902a1096", "09cd6a351dde1f3d"));
    ("Cactus on wikipedia.org", ("b37368b9572bdada2b7b6e506dfbb7a0", "7d1191771bb66323"));
    ("NetShaper on wikipedia.org", ("4fa69f08235b5f7a05bd31cdc35a79d1", "3c4c535100d3baa4"));
    ("Stob-split on wikipedia.org", ("ba03f575e3feaeba4c6271fc89b0a44c", "3eaa96ff243a3138"));
    ("Stob-delay on wikipedia.org", ("2c3cfcc9d723cbba53cd7d4cc25189d4", "5a0aa136736afab9"));
    ("Stob-combined on wikipedia.org", ("213d1f029c97a82d8b58ed7d282355d8", "26de5fb65459d6b3"));
    ("split/N=15 on wikipedia.org", ("fc939846010aceba736f60f6f417b182", "5a4ff6773e7535b9"));
    ("delay/N=15 on wikipedia.org", ("48af78fd278d338028a132c8083c12cf", "754b3c603a9502b9"));
    ("combined/N=15 on wikipedia.org", ("5b6206c764c040a9a8a7a8efc93e1e4b", "f3e669226fbdb0d8"));
    ("split/all on wikipedia.org", ("ba03f575e3feaeba4c6271fc89b0a44c", "d4706fb5218119d0"));
    ("delay/all on wikipedia.org", ("4ee4babc1bfb1ec6a8f106c5c6a3ab9f", "36ff7708b2ba9d0d"));
    ("combined/all on wikipedia.org", ("cc9277eacc090d77f63adc29a89c7570", "ec1790192d96868d"));
  ]

let test_golden_outputs () =
  Alcotest.(check (list (pair string (pair string string))))
    "defense digests" golden_expected (golden_pins ())

(* --- the record-array oracle --- *)

module Ref = Trace_reference

(* Traces for the oracle, sorted or not: tied, signed-zero and NaN
   timestamps, sizes on both sides of the split threshold, and a prefix
   bound that may be absent, negative or past the end. *)
let arbitrary_emulate_case =
  let open QCheck.Gen in
  let event =
    map3
      (fun t d s -> ev t (if d then out else inc) s)
      (oneof [ float_range 0.0 5.0; oneofl [ -0.0; 0.0; 1.0; Float.nan ] ])
      bool
      (oneof [ int_range 0 1500; oneofl [ 0; 1200; 1201 ] ])
  in
  let trace =
    map2
      (fun sorted evs -> if sorted then Ref.sort (Array.of_list evs) else Array.of_list evs)
      bool
      (list_size (int_range 0 80) event)
  in
  QCheck.make
    ~print:(fun (t, first_n, seed) ->
      Printf.sprintf "first_n=%s seed=%d\n%s"
        (Option.fold ~none:"none" ~some:string_of_int first_n)
        seed (Ref.to_csv t))
    (triple trace (opt (int_range (-2) 90)) small_nat)

let event_bits (t : Ref.t) =
  Array.map (fun e -> (Int64.bits_of_float e.Trace.time, e.Trace.dir, e.Trace.size)) t

let prop_emulate_matches_reference =
  QCheck.Test.make ~name:"lane emulation equals the record reference, draws included" ~count:300
    arbitrary_emulate_case (fun (t, first_n, seed) ->
      let p = Trace.of_events t in
      List.for_all
        (fun (lanes, reference) ->
          let r1 = Rng.create seed and r2 = Rng.create seed in
          event_bits (Ref.of_lanes (lanes r1 p)) = event_bits (reference r2 t)
          && Rng.bits64 r1 = Rng.bits64 r2)
        [
          ((fun _ p -> Emulate.split ?first_n p), fun _ t -> Ref.Emulate.split ?first_n t);
          ( (fun rng p -> Emulate.delay ?first_n ~rng p),
            fun rng t -> Ref.Emulate.delay ?first_n ~rng t );
          ( (fun rng p -> Emulate.combined ?first_n ~rng p),
            fun rng t -> Ref.Emulate.combined ?first_n ~rng t );
        ])

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ( "defense.emulate",
      [
        Alcotest.test_case "split conserves bytes" `Quick test_split_conserves_bytes;
        Alcotest.test_case "split caps sizes" `Quick test_split_caps_sizes;
        Alcotest.test_case "split only incoming" `Quick test_split_only_incoming;
        Alcotest.test_case "split first n" `Quick test_split_first_n_only;
        Alcotest.test_case "split threshold boundary" `Quick test_split_threshold_boundary;
        Alcotest.test_case "split sorted" `Quick test_split_sorted;
        Alcotest.test_case "delay never earlier" `Quick test_delay_never_earlier;
        Alcotest.test_case "delay preserves sizes" `Quick test_delay_preserves_sizes;
        Alcotest.test_case "delay stretches duration" `Quick test_delay_stretches_duration;
        Alcotest.test_case "delay first n" `Quick test_delay_first_n_constant_tail_shift;
        Alcotest.test_case "combined" `Quick test_combined_splits_and_delays;
        q prop_split_conserves;
        q prop_delay_monotone;
        q prop_emulate_matches_reference;
      ] );
    ( "defense.front",
      [
        Alcotest.test_case "adds dummies both directions" `Quick
          test_front_adds_dummies_both_directions;
        Alcotest.test_case "zero latency" `Quick test_front_zero_latency;
        Alcotest.test_case "bandwidth overhead order" `Quick test_front_bandwidth_overhead_order;
        q prop_front_superset;
      ] );
    ( "defense.buflo",
      [
        Alcotest.test_case "constant rate" `Quick test_buflo_constant_rate;
        Alcotest.test_case "minimum duration" `Quick test_buflo_minimum_duration;
        Alcotest.test_case "carries real bytes" `Quick test_buflo_carries_real_bytes;
        Alcotest.test_case "uniform output" `Quick test_buflo_uniform_output;
      ] );
    ( "defense.regulator",
      [
        Alcotest.test_case "reshapes downloads" `Quick test_regulator_reshapes_downloads;
        Alcotest.test_case "carries volume" `Quick test_regulator_carries_volume;
        Alcotest.test_case "decaying rate" `Quick test_regulator_decaying_rate;
      ] );
    ( "defense.tamaraw",
      [
        Alcotest.test_case "pads to multiple" `Quick test_tamaraw_pads_to_multiple;
        Alcotest.test_case "constant intervals" `Quick test_tamaraw_constant_intervals;
        Alcotest.test_case "quantizes lengths" `Quick test_tamaraw_quantizes_lengths;
      ] );
    ( "defense.wtfpad",
      [
        Alcotest.test_case "fills gaps" `Quick test_wtfpad_fills_gaps;
        Alcotest.test_case "zero latency" `Quick test_wtfpad_zero_latency;
      ] );
    ( "defense.alpaca",
      [
        Alcotest.test_case "pads bursts to quantum" `Quick test_alpaca_pads_bursts_to_quantum;
        Alcotest.test_case "outgoing untouched" `Quick test_alpaca_outgoing_untouched;
        Alcotest.test_case "separate bursts" `Quick test_alpaca_separate_bursts;
      ] );
    ( "defense.morphing",
      [
        Alcotest.test_case "wears target sizes" `Quick test_morphing_wears_target_sizes;
        Alcotest.test_case "outgoing untouched" `Quick test_morphing_outgoing_untouched;
      ] );
    ( "defense.surakav",
      [
        Alcotest.test_case "covers payload" `Quick test_surakav_covers_payload;
        Alcotest.test_case "content-independent schedule" `Quick
          test_surakav_content_independent_schedule;
      ] );
    ( "defense.cactus",
      [
        Alcotest.test_case "quantizes time and size" `Quick test_cactus_quantizes_time_and_size;
        Alcotest.test_case "per-direction volume" `Quick test_cactus_preserves_per_direction_volume;
      ] );
    ( "defense.netshaper",
      [
        Alcotest.test_case "fixed sizes" `Quick test_netshaper_fixed_sizes;
        Alcotest.test_case "carries volume" `Quick test_netshaper_carries_volume;
        Alcotest.test_case "pads idle windows" `Quick test_netshaper_pads_idle_windows;
        Alcotest.test_case "outgoing untouched" `Quick test_netshaper_outgoing_untouched;
      ] );
    ( "defense.overhead",
      [
        Alcotest.test_case "zero on identity" `Quick test_overhead_zero_on_identity;
        Alcotest.test_case "values" `Quick test_overhead_values;
        Alcotest.test_case "mean summary" `Quick test_overhead_mean_summary;
      ] );
    ( "defense.registry",
      [
        Alcotest.test_case "covers table 1" `Quick test_registry_covers_table1;
        Alcotest.test_case "implemented apply" `Quick test_registry_implemented_apply;
        Alcotest.test_case "find" `Quick test_registry_find;
      ] );
    ("defense.golden", [ Alcotest.test_case "output pins" `Quick test_golden_outputs ]);
  ]
