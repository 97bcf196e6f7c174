(* Tests for stob_tls and stob_web: record framing, page composition, page
   loads through the simulator, dataset generation and sanitization. *)

module Rng = Stob_util.Rng
module Trace = Stob_net.Trace
module Packet = Stob_net.Packet
module Record = Stob_tls.Record
module Session = Stob_tls.Session
open Stob_web

(* The events of a trace, to iterate over in checks. *)
let events = Trace_reference.of_lanes

(* --- TLS record framing --- *)

let test_record_fragment () =
  Alcotest.(check (list int)) "single" [ 1000 ] (Record.fragment Record.default 1000);
  Alcotest.(check (list int)) "exact" [ 16384 ] (Record.fragment Record.default 16384);
  Alcotest.(check (list int)) "split" [ 16384; 1 ] (Record.fragment Record.default 16385);
  Alcotest.(check (list int))
    "triple" [ 16384; 16384; 2000 ]
    (Record.fragment Record.default 34768)

let test_record_overhead () =
  let records = Record.records_for Record.default ~padding:Record.No_padding 1000 in
  Alcotest.(check (list int)) "one record + 22B" [ 1022 ] records

let test_record_pad_multiple () =
  let records = Record.records_for Record.default ~padding:(Record.Pad_to_multiple 512) 1000 in
  Alcotest.(check (list int)) "padded to 1024" [ 1024 + 22 ] records

let test_record_pad_fixed () =
  let records = Record.records_for Record.default ~padding:(Record.Pad_to_fixed 4096) 1000 in
  Alcotest.(check (list int)) "padded to 4096" [ 4096 + 22 ] records;
  let big = Record.records_for Record.default ~padding:(Record.Pad_to_fixed 1024) 8000 in
  Alcotest.(check (list int)) "larger than target left alone" [ 8022 ] big

let test_record_pad_random_bounds () =
  let rng = Rng.create 5 in
  for _ = 1 to 200 do
    let records = Record.records_for Record.default ~padding:(Record.Pad_random (rng, 256)) 1000 in
    match records with
    | [ r ] -> Alcotest.(check bool) "within bounds" true (r >= 1022 && r <= 1022 + 256)
    | _ -> Alcotest.fail "expected one record"
  done

let test_record_padding_overhead_metric () =
  (* Padding 1000 B to 2022 B plaintext doubles the 1022 B wire record. *)
  let oh = Record.padding_overhead Record.default ~padding:(Record.Pad_to_fixed 2022) 1000 in
  Alcotest.(check (float 1e-6)) "100% overhead" 1.0 oh;
  let none = Record.padding_overhead Record.default ~padding:Record.No_padding 1000 in
  Alcotest.(check (float 1e-6)) "no overhead" 0.0 none

let test_handshake_sizes () =
  let rng = Rng.create 6 in
  for _ = 1 to 100 do
    let ch = Record.client_hello_bytes rng in
    Alcotest.(check bool) "hello" true (ch >= 300 && ch <= 600);
    let sh = Record.server_hello_bytes rng in
    Alcotest.(check bool) "server flight" true (sh >= 2500 && sh <= 5000)
  done

(* Session over a real endpoint: check ciphertext accounting. *)
let test_session_modes () =
  let engine = Stob_sim.Engine.create () in
  let path = Stob_tcp.Path.create ~engine ~rate_bps:1e8 ~delay:0.001 () in
  let conn = Stob_tcp.Connection.create ~engine ~path ~flow:1 () in
  Stob_tcp.Connection.open_ conn;
  Stob_sim.Engine.run ~until:1.0 engine;
  let user = Session.create ~mode:Session.User_tls (Stob_tcp.Connection.server conn) in
  Session.send user 1000;
  Session.send user 1000;
  Alcotest.(check int) "user-tls: records per write" (2 * 1022) (Session.ciphertext_sent user);
  let ktls = Session.create ~mode:Session.Ktls (Stob_tcp.Connection.server conn) in
  Session.send ktls 1000;
  Session.send ktls 1000;
  Alcotest.(check int) "ktls: coalesced, nothing emitted yet" 0 (Session.ciphertext_sent ktls);
  Session.flush ktls;
  Alcotest.(check int) "ktls: one record after flush" 2022 (Session.ciphertext_sent ktls);
  Alcotest.(check (float 1e-6)) "overhead ratio" (22.0 /. 2000.0) (Session.overhead_ratio ktls)

(* --- Profiles and pages --- *)

let test_page_generation_distinctive () =
  let rng = Rng.create 7 in
  let avg_bytes profile =
    let xs =
      Array.init 30 (fun _ ->
          float_of_int (Resource.total_bytes (Profile.generate_page profile rng)))
    in
    Stob_util.Stats.mean xs
  in
  let whatsapp = avg_bytes (Sites.find "whatsapp.net") in
  let netflix = avg_bytes (Sites.find "netflix.com") in
  Alcotest.(check bool)
    (Printf.sprintf "netflix (%.0f) much larger than whatsapp (%.0f)" netflix whatsapp)
    true
    (netflix > 3.0 *. whatsapp)

let test_page_has_html_first () =
  let rng = Rng.create 8 in
  let page = Profile.generate_page (Sites.find "github.com") rng in
  Alcotest.(check bool) "html kind" true (page.Resource.html.Resource.kind = Resource.Html);
  Alcotest.(check bool) "positive size" true (page.Resource.html.Resource.size > 0);
  Alcotest.(check int) "count consistent"
    (Resource.object_count page)
    (1 + List.length page.Resource.head_wave + List.length page.Resource.body_wave)

let test_sites_registry () =
  Alcotest.(check int) "nine sites" 9 (List.length Sites.all);
  Alcotest.(check bool) "find works" true ((Sites.find "bing.com").Profile.name = "bing.com");
  Alcotest.(check bool) "unknown raises" true
    (try
       ignore (Sites.find "nope.example");
       false
     with Not_found -> true)

(* --- Page loads --- *)

let test_page_load_completes () =
  let rng = Rng.create 9 in
  let result = Browser.load ~rng (Sites.find "wikipedia.org") in
  Alcotest.(check bool) "completed" true result.Browser.completed;
  Alcotest.(check bool) "positive load time" true (result.Browser.load_time > 0.0);
  Alcotest.(check bool) "downloaded the page" true
    (result.Browser.bytes_downloaded = Resource.total_bytes result.Browser.page)

let test_page_load_trace_shape () =
  let rng = Rng.create 10 in
  let result = Browser.load ~rng (Sites.find "bing.com") in
  let trace = result.Browser.trace in
  Alcotest.(check bool) "sorted" true (Trace.is_sorted trace);
  Alcotest.(check (float 1e-9)) "zero-based" 0.0 (Trace.time trace 0);
  (* Downloads dominate: far more incoming than outgoing bytes. *)
  let in_b = Trace.bytes ~dir:Packet.Incoming trace
  and out_b = Trace.bytes ~dir:Packet.Outgoing trace in
  Alcotest.(check bool)
    (Printf.sprintf "in (%d) >> out (%d)" in_b out_b)
    true
    (in_b > 3 * out_b);
  (* Incoming wire bytes exceed the plaintext downloaded (headers, TLS). *)
  Alcotest.(check bool) "wire > plaintext" true (in_b > result.Browser.bytes_downloaded)

let test_page_load_deterministic () =
  let load () =
    let rng = Rng.create 11 in
    (Browser.load ~rng (Sites.find "github.com")).Browser.trace
  in
  let a = load () and b = load () in
  Alcotest.(check int) "same length" (Trace.length a) (Trace.length b);
  Alcotest.(check int) "same bytes" (Trace.bytes a) (Trace.bytes b)

let test_page_load_policy_changes_trace () =
  let rng1 = Rng.create 12 and rng2 = Rng.create 12 in
  let profile = Sites.find "bing.com" in
  let plain = Browser.load ~rng:rng1 profile in
  let split =
    Browser.load ~policy:(Stob_core.Strategies.stack_split ()) ~rng:rng2 profile
  in
  Alcotest.(check bool) "both complete" true
    (plain.Browser.completed && split.Browser.completed);
  (* Same page (same rng draws for composition), but the split policy caps
     incoming packet sizes at the threshold. *)
  let max_in r =
    Array.fold_left
      (fun acc e -> if e.Trace.dir = Packet.Incoming then max acc e.Trace.size else acc)
      0 (events r.Browser.trace)
  in
  Alcotest.(check bool) "plain has large packets" true (max_in plain > 1200);
  Alcotest.(check bool)
    (Printf.sprintf "split packets capped (%d)" (max_in split))
    true
    (max_in split <= 1200)

(* --- Browser over QUIC --- *)

let test_quic_load_completes () =
  let rng = Rng.create 31 in
  let r = Browser_quic.load ~rng (Sites.find "wikipedia.org") in
  Alcotest.(check bool) "completed" true r.Browser.completed;
  Alcotest.(check bool) "downloaded everything" true
    (r.Browser.bytes_downloaded = Resource.total_bytes r.Browser.page)

let test_quic_single_connection_shape () =
  let rng = Rng.create 32 in
  let r = Browser_quic.load ~rng (Sites.find "bing.com") in
  let trace = r.Browser.trace in
  Alcotest.(check bool) "sorted" true (Trace.is_sorted trace);
  (* One QUIC connection: the first packet is the padded client Initial. *)
  Alcotest.(check bool) "first packet is padded Initial" true (Trace.size trace 0 >= 1200);
  Alcotest.(check bool) "downloads dominate" true
    (Trace.bytes ~dir:Packet.Incoming trace > 2 * Trace.bytes ~dir:Packet.Outgoing trace)

let test_quic_policy_effect () =
  let rng1 = Rng.create 33 and rng2 = Rng.create 33 in
  let profile = Sites.find "bing.com" in
  let plain = Browser_quic.load ~rng:rng1 profile in
  let split = Browser_quic.load ~policy:(Stob_core.Strategies.stack_split ()) ~rng:rng2 profile in
  Alcotest.(check bool) "both complete" true (plain.Browser.completed && split.Browser.completed);
  Alcotest.(check bool) "split yields more incoming packets" true
    (Trace.count ~dir:Packet.Incoming split.Browser.trace
    > Trace.count ~dir:Packet.Incoming plain.Browser.trace)

let test_quic_vs_tcp_fewer_handshakes () =
  (* One QUIC connection vs a pool of TCP connections: QUIC sends fewer
     outgoing packets for the same page (no per-connection handshakes). *)
  let rng1 = Rng.create 34 and rng2 = Rng.create 34 in
  let profile = Sites.find "whatsapp.net" in
  let tcp = Browser.load ~rng:rng1 profile in
  let quic = Browser_quic.load ~rng:rng2 profile in
  Alcotest.(check bool) "both complete" true (tcp.Browser.completed && quic.Browser.completed);
  Alcotest.(check bool) "quic uses fewer outgoing packets" true
    (Trace.count ~dir:Packet.Outgoing quic.Browser.trace
    < Trace.count ~dir:Packet.Outgoing tcp.Browser.trace)

let test_quic_dataset_generation () =
  let d =
    Dataset.generate ~samples_per_site:4 ~seed:6 ~transport:`Quic
      ~profiles:[ Sites.find "bing.com"; Sites.find "wikipedia.org" ]
      ()
  in
  Alcotest.(check int) "eight samples" 8 (Array.length d.Dataset.samples);
  Array.iter
    (fun s -> Alcotest.(check bool) "nonempty traces" true (Trace.length s.Dataset.trace > 0))
    d.Dataset.samples

(* --- Dataset --- *)

let small_dataset =
  lazy
    (Dataset.generate ~samples_per_site:6 ~seed:3
       ~profiles:[ Sites.find "bing.com"; Sites.find "wikipedia.org"; Sites.find "whatsapp.net" ]
       ())

let test_dataset_generation () =
  let d = Lazy.force small_dataset in
  Alcotest.(check int) "sample count" 18 (Array.length d.Dataset.samples);
  Alcotest.(check int) "site names" 3 (Array.length d.Dataset.site_names);
  Array.iter
    (fun s ->
      Alcotest.(check bool) "labels in range" true (s.Dataset.label >= 0 && s.Dataset.label < 3))
    d.Dataset.samples

let test_dataset_sanitize () =
  let d = Lazy.force small_dataset in
  let clean = Dataset.sanitize d in
  Alcotest.(check bool) "no incomplete survives" true
    (Array.for_all (fun s -> s.Dataset.completed) clean.Dataset.samples);
  (* Balanced classes. *)
  let counts = List.map snd (Dataset.per_site_counts clean) in
  (match counts with
  | c :: rest -> List.iter (fun c' -> Alcotest.(check int) "balanced" c c') rest
  | [] -> Alcotest.fail "empty dataset");
  Alcotest.(check bool) "kept most" true (Array.length clean.Dataset.samples >= 9)

let test_dataset_split_stratified () =
  let d = Dataset.sanitize (Lazy.force small_dataset) in
  let rng = Rng.create 4 in
  let train, test = Dataset.split d ~rng ~train_fraction:0.5 in
  Alcotest.(check int) "disjoint cover"
    (Array.length d.Dataset.samples)
    (Array.length train.Dataset.samples + Array.length test.Dataset.samples);
  (* Each class appears in both halves. *)
  List.iter
    (fun (_, c) -> Alcotest.(check bool) "class in train" true (c > 0))
    (Dataset.per_site_counts train)

let test_dataset_folds () =
  let d = Dataset.sanitize (Lazy.force small_dataset) in
  let rng = Rng.create 5 in
  let folds = Dataset.folds d ~rng ~k:3 in
  Alcotest.(check int) "three folds" 3 (List.length folds);
  List.iter
    (fun (train, test) ->
      Alcotest.(check int) "fold covers dataset"
        (Array.length d.Dataset.samples)
        (Array.length train.Dataset.samples + Array.length test.Dataset.samples))
    folds;
  (* Each sample appears in exactly one test fold. *)
  let total_test =
    List.fold_left (fun acc (_, test) -> acc + Array.length test.Dataset.samples) 0 folds
  in
  Alcotest.(check int) "test partitions" (Array.length d.Dataset.samples) total_test

let test_dataset_map_traces () =
  let d = Dataset.sanitize (Lazy.force small_dataset) in
  let halved = Dataset.map_traces d (fun s -> Trace.prefix s.Dataset.trace 10) in
  Array.iter
    (fun s -> Alcotest.(check bool) "truncated" true (Trace.length s.Dataset.trace <= 10))
    halved.Dataset.samples;
  Array.iter
    (fun s ->
      Alcotest.(check int) "download size recomputed"
        (Trace.bytes ~dir:Packet.Incoming s.Dataset.trace)
        s.Dataset.total_in_bytes)
    halved.Dataset.samples

(* --- Golden trace pins --- *)

(* Whole TCP page loads pinned to the byte: every site, with and without
   the Stob policy, two seeds each.  Each pin is the MD5 of the packed
   trace plus the completion flag, the form quic.golden uses; a change to
   the capture path or the trace representation must leave every digest
   where it is. *)
let golden_policies =
  [ ("plain", fun () -> None); ("stob", fun () -> Some (Stob_core.Strategies.stack_combined ())) ]

let golden_pins () =
  List.concat_map
    (fun (profile : Profile.t) ->
      List.concat_map
        (fun (policy, make_policy) ->
          List.map
            (fun seed ->
              let r = Browser.load ?policy:(make_policy ()) ~rng:(Rng.create seed) profile in
              let bytes =
                Stob_net.Packed_trace.to_bytes (Stob_net.Packed_trace.of_trace r.Browser.trace)
              in
              ( String.concat "/" [ profile.Profile.name; policy; string_of_int seed ],
                (Digest.to_hex (Digest.string bytes), r.Browser.completed) ))
            [ 1; 2 ])
        golden_policies)
    Sites.all

let golden_expected =
  [
    ("bing.com/plain/1", ("5b961ce775af95dc100cac6f615e0985", true));
    ("bing.com/plain/2", ("0956faa20e4b5057434555803965d4a7", true));
    ("bing.com/stob/1", ("f028df04f280d493bad4bdcdceefc67d", true));
    ("bing.com/stob/2", ("7da43e493de9742c04b09cd139be993c", true));
    ("github.com/plain/1", ("074dd52d995e88ecc3a3587bec632486", true));
    ("github.com/plain/2", ("2900e05a149034ec1729bc1a14b01fbb", true));
    ("github.com/stob/1", ("77861ef5196ba2ca6a0262bad577ce8e", true));
    ("github.com/stob/2", ("1c4ff1bfc7d5f7122b1ff55a59a2d2a3", true));
    ("instagram.com/plain/1", ("635eec5f6797f4c5cfda40674b078e0a", true));
    ("instagram.com/plain/2", ("90cb6200afeff439c4c652cb04f99e39", true));
    ("instagram.com/stob/1", ("6d9d57afb24d43b6c8f42689d058eb5d", true));
    ("instagram.com/stob/2", ("54c175bbd02be5894a95d5ff8df1be43", true));
    ("netflix.com/plain/1", ("8ca810468b97c15725cfe07bf558bcb4", true));
    ("netflix.com/plain/2", ("ef564ef545dd843b09ce1d84d90aca4f", true));
    ("netflix.com/stob/1", ("ee9a1b38d72f8a9bae76dee424d39d52", true));
    ("netflix.com/stob/2", ("3a4d86b3685b680ae36c1b790caa2f17", true));
    ("office.com/plain/1", ("34fef9aa74f0ecd5cb7c345d004e2789", true));
    ("office.com/plain/2", ("034c97573a94adcd0a47f217d036999b", true));
    ("office.com/stob/1", ("192629820b35555d075d7499f8b51e9a", true));
    ("office.com/stob/2", ("65a07217bef7eb000f8cf70765006d45", true));
    ("spotify.com/plain/1", ("48c9c6cf07efd360987aea9649d040eb", true));
    ("spotify.com/plain/2", ("bb6fa084992cd2c876054b0247e6d8d9", true));
    ("spotify.com/stob/1", ("820a7c4ca717d91614d4e742e2efdf1e", true));
    ("spotify.com/stob/2", ("f661c671f1bd57fe45df736046784361", true));
    ("whatsapp.net/plain/1", ("45e041c5cc3cf4edde25d117328cb80f", true));
    ("whatsapp.net/plain/2", ("c0796f5868fc22a40b8b50227c25c00a", true));
    ("whatsapp.net/stob/1", ("d12197fcbd44a78c9a771bf7ac72ae96", true));
    ("whatsapp.net/stob/2", ("952fcc17bef5c27eac8f867ca80d86eb", true));
    ("wikipedia.org/plain/1", ("f647e7559a33c2bd0c4955a7d663ae47", true));
    ("wikipedia.org/plain/2", ("5831d7fbcb07febc3befd9bc6a7f0a86", true));
    ("wikipedia.org/stob/1", ("eb4f8621fb2618e50c8dfedd43cda6ba", true));
    ("wikipedia.org/stob/2", ("9093bb4a3998ebb1c246ff41a7403001", true));
    ("youtube.com/plain/1", ("95c0499fdeced89fd5ad09a9c2635fc7", true));
    ("youtube.com/plain/2", ("30f13f2d6853d9883e4f5eb1de987250", true));
    ("youtube.com/stob/1", ("03bccc1705eb73351e3a20910f37c38d", true));
    ("youtube.com/stob/2", ("c0509688ff37ba0f3e5407293d3b4297", true));
  ]

let test_golden_traces () =
  Alcotest.(check (list (pair string (pair string bool))))
    "trace digests" golden_expected (golden_pins ())

let suite =
  [
    ( "tls.record",
      [
        Alcotest.test_case "fragment" `Quick test_record_fragment;
        Alcotest.test_case "overhead" `Quick test_record_overhead;
        Alcotest.test_case "pad to multiple" `Quick test_record_pad_multiple;
        Alcotest.test_case "pad to fixed" `Quick test_record_pad_fixed;
        Alcotest.test_case "pad random bounds" `Quick test_record_pad_random_bounds;
        Alcotest.test_case "padding overhead metric" `Quick test_record_padding_overhead_metric;
        Alcotest.test_case "handshake sizes" `Quick test_handshake_sizes;
        Alcotest.test_case "session modes" `Quick test_session_modes;
      ] );
    ( "web.profile",
      [
        Alcotest.test_case "distinctive sites" `Quick test_page_generation_distinctive;
        Alcotest.test_case "page structure" `Quick test_page_has_html_first;
        Alcotest.test_case "site registry" `Quick test_sites_registry;
      ] );
    ( "web.browser",
      [
        Alcotest.test_case "load completes" `Quick test_page_load_completes;
        Alcotest.test_case "trace shape" `Quick test_page_load_trace_shape;
        Alcotest.test_case "deterministic" `Quick test_page_load_deterministic;
        Alcotest.test_case "policy changes trace" `Quick test_page_load_policy_changes_trace;
      ] );
    ( "web.browser_quic",
      [
        Alcotest.test_case "load completes" `Quick test_quic_load_completes;
        Alcotest.test_case "single connection shape" `Quick test_quic_single_connection_shape;
        Alcotest.test_case "policy effect" `Quick test_quic_policy_effect;
        Alcotest.test_case "fewer handshakes than tcp" `Quick test_quic_vs_tcp_fewer_handshakes;
        Alcotest.test_case "dataset generation" `Slow test_quic_dataset_generation;
      ] );
    ( "web.dataset",
      [
        Alcotest.test_case "generation" `Slow test_dataset_generation;
        Alcotest.test_case "sanitize" `Slow test_dataset_sanitize;
        Alcotest.test_case "stratified split" `Slow test_dataset_split_stratified;
        Alcotest.test_case "folds" `Slow test_dataset_folds;
        Alcotest.test_case "map traces" `Slow test_dataset_map_traces;
      ] );
    ("web.golden", [ Alcotest.test_case "trace pins" `Quick test_golden_traces ]);
  ]
