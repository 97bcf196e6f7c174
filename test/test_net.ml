(* Tests for stob_net: packets, traces, capture. *)

module Packet = Stob_net.Packet
module Trace = Stob_net.Trace
module Capture = Stob_net.Capture

(* The record-array oracle the lane representation is held to. *)
module Ref = Trace_reference

let ev time dir size = { Trace.time; dir; size }
let out = Packet.Outgoing
let inc = Packet.Incoming

let sample_events () =
  [|
    ev 0.0 out 60; ev 0.01 inc 60; ev 0.02 out 52; ev 0.03 out 200; ev 0.05 inc 1500;
    ev 0.06 inc 1500; ev 0.07 out 52; ev 0.09 inc 800;
  |]

let sample_trace () = Trace.of_events (sample_events ())

(* --- Packet --- *)

let test_packet_wire_size () =
  let p = Packet.data ~flow:1 ~dir:out ~seq:0 ~ack:0 ~payload:1000 ~rwnd:65535 () in
  Alcotest.(check int) "wire size" (1000 + Packet.default_header_bytes) (Packet.wire_size p)

let test_packet_seq_end () =
  let d = Packet.data ~flow:1 ~dir:out ~seq:100 ~ack:0 ~payload:50 ~rwnd:1 () in
  Alcotest.(check int) "data end" 150 (Packet.seq_end d);
  let f = Packet.data ~flow:1 ~dir:out ~seq:100 ~ack:0 ~payload:50 ~fin:true ~rwnd:1 () in
  Alcotest.(check int) "fin adds one" 151 (Packet.seq_end f);
  let s = Packet.syn ~flow:1 ~dir:out ~seq:0 ~rwnd:1 () in
  Alcotest.(check int) "syn occupies one" 1 (Packet.seq_end s)

let test_packet_dummy_seq () =
  let d = Packet.data ~flow:1 ~dir:out ~seq:100 ~ack:0 ~payload:500 ~dummy:true ~rwnd:1 () in
  Alcotest.(check int) "dummy consumes no sequence space" 100 (Packet.seq_end d)

let test_packet_syn_flags () =
  let s = Packet.syn ~flow:1 ~dir:out ~seq:0 ~rwnd:1 () in
  Alcotest.(check bool) "plain syn has no ack" false s.Packet.is_ack;
  let sa = Packet.syn ~flow:1 ~dir:inc ~seq:0 ~ack:(Some 1) ~rwnd:1 () in
  Alcotest.(check bool) "syn|ack has ack" true sa.Packet.is_ack;
  Alcotest.(check int) "ack number" 1 sa.Packet.ack

let test_direction_sign () =
  Alcotest.(check int) "out" 1 (Packet.direction_sign out);
  Alcotest.(check int) "in" (-1) (Packet.direction_sign inc)

(* --- Trace --- *)

let test_trace_counts () =
  let t = sample_trace () in
  Alcotest.(check int) "total" 8 (Trace.length t);
  Alcotest.(check int) "out" 4 (Array.length (Trace.times ~dir:out t));
  Alcotest.(check int) "in" 4 (Array.length (Trace.times ~dir:inc t))

let test_trace_bytes () =
  let t = sample_trace () in
  Alcotest.(check int) "out bytes" 364 (Trace.bytes ~dir:out t);
  Alcotest.(check int) "in bytes" 3860 (Trace.bytes ~dir:inc t);
  Alcotest.(check int) "all bytes" 4224 (Trace.bytes t)

let test_trace_prefix () =
  let t = sample_trace () in
  Alcotest.(check int) "prefix 3" 3 (Trace.length (Trace.prefix t 3));
  Alcotest.(check int) "prefix beyond" 8 (Trace.length (Trace.prefix t 100));
  Alcotest.(check int) "prefix 0" 0 (Trace.length (Trace.prefix t 0))

let test_trace_duration () =
  Alcotest.(check (float 1e-9)) "duration" 0.09 (Trace.duration (sample_trace ()));
  Alcotest.(check (float 1e-9)) "single event" 0.0 (Trace.duration (Trace.of_events [| ev 1.0 out 10 |]))

let test_trace_interarrivals () =
  let t = Trace.of_events [| ev 0.0 out 1; ev 0.5 out 1; ev 1.5 inc 1 |] in
  Alcotest.(check (array (float 1e-9))) "gaps" [| 0.5; 1.0 |] (Trace.interarrivals t);
  Alcotest.(check (array (float 1e-9))) "out gaps" [| 0.5 |] (Trace.interarrivals ~dir:out t)

let test_trace_sort_stable () =
  let t = Trace.of_events [| ev 1.0 out 1; ev 0.5 inc 2; ev 0.5 out 3 |] in
  let s = Trace.sort t in
  Alcotest.(check bool) "sorted" true (Trace.is_sorted s);
  (* The two 0.5 events keep their relative order. *)
  Alcotest.(check int) "stable first" 2 (Trace.size s 0);
  Alcotest.(check int) "stable second" 3 (Trace.size s 1)

let test_trace_shift_to_zero () =
  let t = Trace.shift_to_zero (Trace.of_events [| ev 5.0 out 1; ev 6.0 inc 2 |]) in
  Alcotest.(check (float 1e-9)) "starts at 0" 0.0 (Trace.time t 0);
  Alcotest.(check (float 1e-9)) "gap preserved" 1.0 (Trace.time t 1)

let test_trace_signed_sizes () =
  let t = Trace.of_events [| ev 0.0 out 100; ev 0.1 inc 200 |] in
  Alcotest.(check (array (float 0.0))) "signed" [| 100.0; -200.0 |] (Trace.signed_sizes t)

(* The CSV text format through its entry points, [Trace.save] and
   [Trace.load], on a temporary file. *)
let with_temp_file f =
  let path = Filename.temp_file "stob-trace" ".csv" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let csv_roundtrip t =
  with_temp_file (fun path ->
      Trace.save path t;
      Trace.load path)

let load_csv text =
  with_temp_file (fun path ->
      Out_channel.with_open_bin path (fun oc -> output_string oc text);
      Trace.load path)

let test_trace_csv_roundtrip () =
  let t = sample_trace () in
  let t' = csv_roundtrip t in
  Alcotest.(check int) "length" (Trace.length t) (Trace.length t');
  for i = 0 to Trace.length t - 1 do
    let e = Trace.get t i and e' = Trace.get t' i in
    Alcotest.(check (float 1e-6)) "time" e.Trace.time e'.Trace.time;
    Alcotest.(check int) "size" e.Trace.size e'.Trace.size;
    Alcotest.(check bool) "dir" true (e.Trace.dir = e'.Trace.dir)
  done

let test_trace_csv_malformed () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (load_csv "1.0,5,100\n");
       false
     with Failure _ -> true)

let test_trace_concat_sorted () =
  let a = Trace.of_events [| ev 0.0 out 1; ev 2.0 out 2 |] and b = Trace.of_events [| ev 1.0 inc 3 |] in
  let m = Trace.concat_sorted [ a; b ] in
  Alcotest.(check bool) "sorted" true (Trace.is_sorted m);
  Alcotest.(check int) "merged length" 3 (Trace.length m);
  Alcotest.(check int) "middle is b's" 3 (Trace.size m 1)

(* --- Capture --- *)

let test_capture_records () =
  let c = Capture.create () in
  Capture.record c ~time:0.1 (Packet.data ~flow:1 ~dir:out ~seq:0 ~ack:0 ~payload:100 ~rwnd:1 ());
  Capture.record c ~time:0.05 (Packet.data ~flow:2 ~dir:inc ~seq:0 ~ack:0 ~payload:200 ~rwnd:1 ());
  let t = Capture.trace c in
  Alcotest.(check int) "count" 2 (Capture.count c);
  Alcotest.(check bool) "sorted output" true (Trace.is_sorted t);
  Alcotest.(check int) "first is earliest" (200 + Packet.default_header_bytes) (Trace.size t 0)

let test_capture_clear () =
  let c = Capture.create () in
  Capture.record c ~time:0.0 (Packet.pure_ack ~flow:1 ~dir:out ~seq:0 ~ack:0 ~rwnd:1 ());
  Capture.clear c;
  Alcotest.(check int) "cleared" 0 (Capture.count c)

(* Capture as it was built before its columns: a list of boxed events,
   newest first, reversed and stably sorted on [trace].  The reference for
   the column store. *)
module List_capture = struct
  type t = { mutable events : Trace.event list; mutable n : int; mutable rtx : int }

  let create () = { events = []; n = 0; rtx = 0 }

  let observe t ~dir ~time (p : Packet.t) =
    t.events <- { Trace.time; dir; size = Packet.wire_size p } :: t.events;
    t.n <- t.n + 1;
    if p.rtx then t.rtx <- t.rtx + 1

  let record t ~time (p : Packet.t) = observe t ~dir:p.dir ~time p
  let trace t = Ref.sort (Array.of_list (List.rev t.events))

  let clear t =
    t.events <- [];
    t.n <- 0;
    t.rtx <- 0
end

type capture_op = Record of float * Packet.t | Clear

(* Times step forward, repeat or step back; sizes include zero-payload
   packets; both directions, rtx marks, and clears followed by reuse. *)
let arbitrary_capture_script =
  let open QCheck.Gen in
  let dir = oneofl [ out; inc ] in
  let packet =
    map4
      (fun dir payload header rtx ->
        Packet.data ~flow:1 ~dir ~seq:0 ~ack:0 ~payload ~header ~rtx ~rwnd:1 ())
      dir (int_range 0 1500) (int_range 20 60) bool
  in
  let step = frequency [ (4, float_range 0.0 0.01); (2, return 0.0); (1, float_range (-0.02) 0.0) ] in
  let op =
    frequency
      [
        (9, map2 (fun dt p -> `Record (dt, p)) step packet);
        (1, return `Clear);
      ]
  in
  let concretize script =
    let now = ref 1.0 in
    List.map
      (function
        | `Record (dt, p) ->
            now := !now +. dt;
            Record (!now, p)
        | `Clear -> Clear)
      script
  in
  QCheck.make
    ~print:(fun ops ->
      String.concat " "
        (List.map
           (function
             | Record (t, p) -> Printf.sprintf "record(%h,%d%s)" t (Packet.wire_size p) (if p.rtx then ",rtx" else "")
             | Clear -> "clear")
           ops))
    (map concretize (list_size (int_range 0 600) op))

let prop_capture_matches_list =
  QCheck.Test.make ~name:"capture columns == list-based reference" ~count:200
    arbitrary_capture_script (fun ops ->
      let c = Capture.create () and r = List_capture.create () in
      let same () =
        Ref.of_lanes (Capture.trace c) = List_capture.trace r
        && Capture.count c = r.List_capture.n
        && Capture.rtx_count c = r.List_capture.rtx
      in
      List.for_all
        (function
          | Record (time, p) ->
              Capture.record c ~time p;
              List_capture.record r ~time p;
              true
          | Clear ->
              let ok = same () in
              Capture.clear c;
              List_capture.clear r;
              ok && same ())
        ops
      && same ())

(* --- qcheck --- *)

let arbitrary_trace =
  QCheck.make
    ~print:(fun t -> Ref.to_csv (Ref.of_lanes t))
    QCheck.Gen.(
      list_size (int_range 0 60)
        (map3
           (fun t d s ->
             { Trace.time = t; dir = (if d then out else inc); size = 40 + s })
           (float_range 0.0 10.0) bool (int_range 0 1460))
      |> map (fun evs -> Trace.sort (Trace.of_events (Array.of_list evs))))

let prop_prefix_is_prefix =
  QCheck.Test.make ~name:"prefix preserves leading events" ~count:200
    QCheck.(pair arbitrary_trace small_nat)
    (fun (t, n) ->
      let p = Trace.prefix t n in
      Trace.length p = min n (Trace.length t)
      && Array.for_all2 (fun a b -> a = b) (Ref.of_lanes p)
           (Array.sub (Ref.of_lanes t) 0 (Trace.length p)))

let prop_concat_length =
  QCheck.Test.make ~name:"concat_sorted preserves events" ~count:100
    QCheck.(pair arbitrary_trace arbitrary_trace)
    (fun (a, b) ->
      let m = Trace.concat_sorted [ a; b ] in
      Trace.length m = Trace.length a + Trace.length b
      && Trace.is_sorted m
      && Trace.bytes m = Trace.bytes a + Trace.bytes b)

let prop_csv_roundtrip =
  QCheck.Test.make ~name:"csv roundtrip preserves bytes and counts" ~count:100 arbitrary_trace
    (fun t ->
      let t' = csv_roundtrip t in
      Trace.length t = Trace.length t' && Trace.bytes t = Trace.bytes t')

(* --- Lanes against the record-array oracle --- *)

module Arena = Stob_net.Arena

(* Messy on purpose: unsorted, duplicate and negative timestamps, zero
   sizes -- the lanes must agree with the record oracle on all of it, not
   just on well-formed captures. *)
let arbitrary_messy_trace =
  QCheck.make
    ~print:(fun t -> Ref.to_csv t)
    QCheck.Gen.(
      list_size (int_range 0 80)
        (map3
           (fun t d s -> { Trace.time = t; dir = (if d then out else inc); size = s })
           (oneof [ float_range (-2.0) 10.0; return 0.0; return 1.5 ])
           bool
           (oneof [ int_range 0 1500; return 0 ]))
      |> map Array.of_list)

(* Events bit for bit, so -0.0 and NaN timestamps compare exactly. *)
let event_bits (t : Ref.t) =
  Array.map (fun e -> (Int64.bits_of_float e.Trace.time, e.Trace.dir, e.Trace.size)) t

let same lanes (t : Ref.t) = event_bits (Ref.of_lanes lanes) = event_bits t

let prop_packed_roundtrip =
  QCheck.Test.make ~name:"packed round-trip is the identity" ~count:300 arbitrary_messy_trace
    (fun t -> same (Trace.of_events t) t)

let prop_packed_csv_parity =
  QCheck.Test.make ~name:"packed to_csv/of_csv byte-parity with Trace" ~count:300
    arbitrary_messy_trace (fun t ->
      let csv = Ref.to_csv t in
      let saved =
        with_temp_file (fun path ->
            Trace.save path (Trace.of_events t);
            In_channel.with_open_bin path In_channel.input_all)
      in
      saved = csv && same (load_csv csv) (Ref.of_csv csv))

let prop_packed_observers_agree =
  QCheck.Test.make ~name:"packed observers agree with Trace" ~count:300
    QCheck.(pair arbitrary_messy_trace small_nat)
    (fun (t, k) ->
      let p = Trace.of_events t in
      let dirs = [ None; Some out; Some inc ] in
      Trace.is_sorted p = Ref.is_sorted t
      && Trace.duration p = Ref.duration t
      && Trace.signed_sizes p = Ref.signed_sizes t
      && same (Trace.shift_to_zero p) (Ref.shift_to_zero t)
      && same (Trace.prefix p k) (Ref.prefix t k)
      && List.for_all
           (fun i -> Trace.get p i = t.(i))
           (List.init (Array.length t) Fun.id)
      && List.for_all
           (fun dir ->
             Trace.bytes ?dir p = Ref.bytes ?dir t
             && Trace.times ?dir p = Ref.times ?dir t
             && Trace.sizes ?dir p = Ref.sizes ?dir t
             && Trace.interarrivals ?dir p = Ref.interarrivals ?dir t)
           dirs)

let prop_packed_sort_concat_agree =
  QCheck.Test.make ~name:"packed sort/concat_sorted agree with Trace" ~count:300
    QCheck.(pair arbitrary_messy_trace arbitrary_messy_trace)
    (fun (a, b) ->
      let pa = Trace.of_events a and pb = Trace.of_events b in
      same (Trace.sort pa) (Ref.sort a)
      && same (Trace.concat_sorted [ pa; pb ]) (Ref.concat_sorted [ a; b ]))

(* The sorted-input fast path of [sort] against the stable sort it skips:
   tied timestamps (signed zeros included) must keep their input order, a
   NaN timestamp must send the trace down the sorting path, and an input
   that is non-decreasing under [<=] comes back as the same value. *)
let stable_sort_oracle (t : Ref.t) =
  let indexed = Array.mapi (fun i e -> (e.Trace.time, i, e)) t in
  Array.sort (fun (t1, i1, _) (t2, i2, _) -> if t1 <> t2 then compare t1 t2 else compare i1 i2) indexed;
  Array.map (fun (_, _, e) -> e) indexed

let arbitrary_tied_trace =
  QCheck.make
    ~print:(fun t -> Ref.to_csv t)
    QCheck.Gen.(
      pair bool
        (list_size (int_range 0 80)
           (map3
              (fun t d s -> { Trace.time = t; dir = (if d then out else inc); size = s })
              (oneofl [ -0.0; 0.0; 0.5; 1.5; 2.0; Float.nan ])
              bool (int_range 0 1500)))
      |> map (fun (in_order, evs) ->
             let t = Array.of_list evs in
             if in_order then stable_sort_oracle t else t))

let prop_sort_fast_path =
  QCheck.Test.make ~name:"sort fast path equals the stable sort on tied timestamps" ~count:500
    arbitrary_tied_trace (fun t ->
      let want = event_bits (stable_sort_oracle t) in
      let s = Ref.sort t in
      let p = Trace.of_events t in
      let ps = Trace.sort p in
      let in_order =
        let rec go i = i >= Array.length t || (t.(i - 1).Trace.time <= t.(i).Trace.time && go (i + 1)) in
        go 1
      in
      event_bits s = want
      && (Array.length t = 0 || s != t)
      && event_bits (Ref.of_lanes ps) = want
      && (ps == p) = in_order)

let prop_packed_bytes_roundtrip =
  QCheck.Test.make ~name:"packed binary codec round-trips bit-exactly" ~count:300
    arbitrary_messy_trace (fun t ->
      let s = Trace.to_bytes (Trace.of_events t) in
      same (Trace.of_slice (Bytes.of_string s) (String.length s)) t)

(* The journal replay decodes from the walker's reusable buffer, which is
   longer than the payload and holds stale bytes past it. *)
let prop_packed_slice_decode =
  QCheck.Test.make ~name:"slice decode equals of_bytes" ~count:300
    QCheck.(pair arbitrary_messy_trace (int_range 0 64))
    (fun (t, extra) ->
      let s = Trace.to_bytes (Trace.of_events t) in
      let len = String.length s in
      let buf = Bytes.make (len + extra) '\xa5' in
      Bytes.blit_string s 0 buf 0 len;
      same (Trace.of_slice buf len) t)

let test_packed_slice_rejects () =
  let good = Trace.to_bytes (Trace.sort (sample_trace ())) in
  (* The decoder names itself in the failure. *)
  let fails fn f =
    match f () with
    | _ -> false
    | exception Failure msg -> String.starts_with ~prefix:("Trace." ^ fn ^ ": ") msg
  in
  let on_slice s = Trace.of_slice (Bytes.of_string (s ^ "trailing")) (String.length s) in
  let bad_magic = "X" ^ String.sub good 1 (String.length good - 1) in
  let short = String.sub good 0 (String.length good - 1) in
  let long = good ^ "\x00" in
  List.iter
    (fun (what, s) ->
      Alcotest.(check bool) (what ^ ": of_slice rejects") true
        (fails "of_slice" (fun () -> on_slice s)))
    [ ("bad magic", bad_magic); ("too short for its count", short);
      ("too long for its count", long); ("shorter than the header", "SPKT1") ];
  Alcotest.check_raises "slice past the buffer" (Invalid_argument "Trace.of_slice")
    (fun () -> ignore (Trace.of_slice (Bytes.of_string good) (String.length good + 1)));
  Alcotest.check_raises "negative slice" (Invalid_argument "Trace.of_slice") (fun () ->
      ignore (Trace.of_slice (Bytes.of_string good) (-1)))

let test_packed_save_load_parity () =
  let t = Ref.sort (sample_events ()) in
  let p = Trace.of_events t in
  let f1 = Filename.temp_file "stob-packed" ".csv" and f2 = Filename.temp_file "stob-packed" ".csv" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove f1;
      Sys.remove f2)
    (fun () ->
      Ref.save f1 t;
      Trace.save f2 p;
      let read f = In_channel.with_open_bin f In_channel.input_all in
      Alcotest.(check string) "files byte-identical" (read f1) (read f2);
      Alcotest.(check bool) "loads agree" true (same (Trace.load f2) (Ref.load f1)))

let test_packed_views () =
  let t = Ref.sort (sample_events ()) in
  let p = Trace.of_events t in
  Alcotest.(check int) "prefix view length" 3 (Trace.length (Trace.prefix p 3));
  Alcotest.(check bool) "prefix view contents" true (same (Trace.prefix p 4) (Array.sub t 0 4));
  Alcotest.(check bool) "empty" true (same Trace.empty [||]);
  Alcotest.(check bool) "malformed bytes rejected" true
    (try
       ignore (Trace.of_slice (Bytes.of_string "not a packed trace") 18);
       false
     with Failure _ -> true);
  (* Sizes outside [0, 2^30) have no lane word. *)
  let max_size = (1 lsl 30) - 1 in
  List.iter
    (fun size ->
      Alcotest.(check bool) (Printf.sprintf "size %d rejected" size) true
        (try
           ignore (Trace.of_events [| ev 0.0 out size |]);
           false
         with Invalid_argument _ -> true))
    [ -1; max_size + 1 ];
  Alcotest.(check int) "largest size kept" max_size
    (Trace.size (Trace.of_events [| ev 0.0 inc max_size |]) 0)

let test_arena_build () =
  (* A 3-event chunk forces multiple spills on an 8-event trace. *)
  let t = Ref.sort (sample_events ()) in
  let a = Arena.create ~chunk_events:3 () in
  Array.iter (fun e -> Arena.add a ~time:e.Trace.time ~dir:e.Trace.dir ~size:e.Trace.size) t;
  Alcotest.(check int) "length" (Array.length t) (Arena.length a);
  Alcotest.(check bool) "of_arena equals of_events" true (same (Trace.of_arena a) t);
  Arena.reset a;
  Alcotest.(check int) "reset empties" 0 (Arena.length a);
  (* Reuse after reset: recycled chunks must not leak stale events. *)
  Arena.add a ~time:42.0 ~dir:out ~size:99;
  Alcotest.(check bool) "reuse after reset" true (same (Trace.of_arena a) [| ev 42.0 out 99 |]);
  Alcotest.(check bool) "size range enforced" true
    (try
       Arena.add a ~time:0.0 ~dir:out ~size:(-1);
       false
     with Invalid_argument _ -> true)

(* --- Allocation gates ---

   Deterministic at one domain: the heap words an operation allocates
   (minor words plus direct major allocations) on traces of 1,000 and
   10,000 events.  Each gated operation works on the lanes without a
   record, a list or a boxed float per event, so it stays under a fixed
   bound whatever the trace length. *)

module Emulate = Stob_defense.Emulate

let alloc_bound = 64.0

(* Heap words [f ()] allocates on this domain, less the cost of measuring
   (an empty [f]).  Promoted words are not new allocations. *)
let words_allocated f =
  let measure f =
    let minor0 = Gc.minor_words () in
    let _, promoted0, major0 = Gc.counters () in
    f ();
    let _, promoted1, major1 = Gc.counters () in
    let minor1 = Gc.minor_words () in
    minor1 -. minor0 +. (major1 -. promoted1 -. (major0 -. promoted0))
  in
  ignore (measure ignore);
  let base = measure ignore in
  measure f -. base

(* In order, both directions, incoming packets above the split threshold
   and gaps far wider than the split's offset, so no sort is needed. *)
let gate_events n =
  Array.init n (fun i ->
      ev (0.001 *. float_of_int i) (if i mod 3 = 0 then out else inc) (if i mod 3 = 0 then 52 else 1500))

let gate_capture events =
  let c = Capture.create () in
  Array.iter
    (fun e ->
      Capture.record c ~time:e.Trace.time
        (Packet.data ~flow:1 ~dir:e.Trace.dir ~seq:0 ~ack:0
           ~payload:(e.Trace.size - Packet.default_header_bytes)
           ~rwnd:1 ()))
    events;
  c

let check_alloc name f =
  List.iter
    (fun n ->
      let words = f n in
      Alcotest.(check bool)
        (Printf.sprintf "%s on %d events: %.0f words < %.0f" name n words alloc_bound)
        true (words < alloc_bound))
    [ 1_000; 10_000 ]

let test_alloc_capture_trace () =
  check_alloc "Capture.trace" (fun n ->
      let c = gate_capture (gate_events n) in
      words_allocated (fun () -> ignore (Capture.trace c)))

let test_alloc_observers () =
  let on_trace f n =
    let t = Trace.of_events (gate_events n) in
    words_allocated (fun () -> f t)
  in
  check_alloc "Trace.shift_to_zero" (on_trace (fun t -> ignore (Trace.shift_to_zero t)));
  check_alloc "Trace.bytes ~dir" (on_trace (fun t -> ignore (Trace.bytes ~dir:inc t)));
  check_alloc "Trace.prefix" (on_trace (fun t -> ignore (Trace.prefix t 500)));
  check_alloc "Trace.sort (in order)" (on_trace (fun t -> ignore (Trace.sort t)))

let test_alloc_split () =
  check_alloc "Emulate.split" (fun n ->
      let t = Trace.of_events (gate_events n) in
      words_allocated (fun () -> ignore (Emulate.split t)))

(* A reused arena, as a population worker's: its chunks are spares from
   an earlier trace.  The times are boxed before the measurement, as
   population synthesis's clock already holds them: a float that a caller
   computes afresh is boxed by that caller to be passed, since dune's
   default profile compiles without cross-module inlining.  What is gated
   is [add] itself. *)
let test_alloc_arena_add () =
  check_alloc "Arena.add" (fun n ->
      let a = Arena.create () in
      let times = List.init n (fun i -> 0.001 *. float_of_int i) in
      List.iter (fun time -> Arena.add a ~time ~dir:out ~size:52) times;
      Arena.reset a;
      words_allocated (fun () ->
          List.iteri
            (fun i time -> Arena.add a ~time ~dir:(if i land 1 = 0 then out else inc) ~size:1500)
            times))

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ( "net.packet",
      [
        Alcotest.test_case "wire size" `Quick test_packet_wire_size;
        Alcotest.test_case "seq end" `Quick test_packet_seq_end;
        Alcotest.test_case "dummy sequence space" `Quick test_packet_dummy_seq;
        Alcotest.test_case "syn flags" `Quick test_packet_syn_flags;
        Alcotest.test_case "direction sign" `Quick test_direction_sign;
      ] );
    ( "net.trace",
      [
        Alcotest.test_case "counts" `Quick test_trace_counts;
        Alcotest.test_case "bytes" `Quick test_trace_bytes;
        Alcotest.test_case "prefix" `Quick test_trace_prefix;
        Alcotest.test_case "duration" `Quick test_trace_duration;
        Alcotest.test_case "interarrivals" `Quick test_trace_interarrivals;
        Alcotest.test_case "stable sort" `Quick test_trace_sort_stable;
        Alcotest.test_case "shift to zero" `Quick test_trace_shift_to_zero;
        Alcotest.test_case "signed sizes" `Quick test_trace_signed_sizes;
        Alcotest.test_case "csv roundtrip" `Quick test_trace_csv_roundtrip;
        Alcotest.test_case "csv malformed" `Quick test_trace_csv_malformed;
        Alcotest.test_case "concat sorted" `Quick test_trace_concat_sorted;
        q prop_prefix_is_prefix;
        q prop_concat_length;
        q prop_csv_roundtrip;
      ] );
    ( "net.capture",
      [
        Alcotest.test_case "records" `Quick test_capture_records;
        Alcotest.test_case "clear" `Quick test_capture_clear;
        q prop_capture_matches_list;
      ] );
    ( "net.packed",
      [
        Alcotest.test_case "save/load byte parity" `Quick test_packed_save_load_parity;
        Alcotest.test_case "zero-copy views" `Quick test_packed_views;
        Alcotest.test_case "arena build/reset" `Quick test_arena_build;
        q prop_packed_roundtrip;
        q prop_packed_csv_parity;
        q prop_packed_observers_agree;
        q prop_packed_sort_concat_agree;
        q prop_sort_fast_path;
        q prop_packed_bytes_roundtrip;
        q prop_packed_slice_decode;
        Alcotest.test_case "slice decoder rejects bad framing" `Quick test_packed_slice_rejects;
      ] );
    ( "trace.alloc",
      [
        Alcotest.test_case "Capture.trace" `Quick test_alloc_capture_trace;
        Alcotest.test_case "observers and views" `Quick test_alloc_observers;
        Alcotest.test_case "Emulate.split" `Quick test_alloc_split;
        Alcotest.test_case "Arena.add" `Quick test_alloc_arena_add;
      ] );
  ]
