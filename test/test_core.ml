(* Tests for stob_core: policies, controller semantics, policy table,
   safety audit, strategies. *)

module Rng = Stob_util.Rng
module Histogram = Stob_util.Histogram
module Hooks = Stob_tcp.Hooks
module Cc = Stob_tcp.Cc
open Stob_core

let decision ?(tso = 65160) ?(payload = 1448) ?(dep = 1.0) () =
  { Hooks.tso_bytes = tso; packet_payload = payload; earliest_departure = dep }

let call ?(now = 1.0) ?(phase = Cc.Congestion_avoidance) hooks d =
  hooks.Hooks.on_segment ~now ~flow:1 ~phase d

(* --- Policy validation --- *)

let test_policy_validate_ok () =
  List.iter
    (fun (name, p) ->
      match Policy.validate p with
      | Ok () -> ()
      | Error e -> Alcotest.fail (name ^ ": " ^ e))
    (Strategies.all_named ())

let test_policy_validate_rejects () =
  let bad =
    [
      Policy.make ~name:"bad1" ~size:(Policy.Fixed_payload 0) ();
      Policy.make ~name:"bad2" ~timing:(Policy.Add_constant (-1.0)) ();
      Policy.make ~name:"bad3" ~timing:(Policy.Add_uniform (0.5, 0.1)) ();
      Policy.make ~name:"bad4" ~tso:(Policy.Fixed_tso_packets 0) ();
      Policy.make ~name:"bad5" ~size:(Policy.Cycle_reduction { step = 1; max_steps = 0 }) ();
    ]
  in
  List.iter
    (fun p ->
      match Policy.validate p with
      | Ok () -> Alcotest.fail ("accepted " ^ p.Policy.name)
      | Error _ -> ())
    bad

let test_controller_rejects_invalid () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Controller.create (Policy.make ~name:"bad" ~size:(Policy.Fixed_payload (-1)) ()));
       false
     with Invalid_argument _ -> true)

(* --- Controller: size rules --- *)

let test_controller_identity () =
  let c = Controller.create Policy.unmodified in
  let d = decision () in
  Alcotest.(check bool) "unchanged" true (call (Controller.hooks c) d = d);
  Alcotest.(check int) "not counted as modified" 0 (Controller.stats c).Controller.modified

let test_controller_fixed_payload () =
  let c = Controller.create (Policy.make ~name:"t" ~size:(Policy.Fixed_payload 700) ()) in
  let out = call (Controller.hooks c) (decision ()) in
  Alcotest.(check int) "payload" 700 out.Hooks.packet_payload

let test_controller_split_above () =
  let c = Controller.create (Policy.make ~name:"t" ~size:(Policy.Split_above 1200) ()) in
  let out = call (Controller.hooks c) (decision ~payload:1448 ()) in
  Alcotest.(check int) "halved" 724 out.Hooks.packet_payload;
  let c2 = Controller.create (Policy.make ~name:"t" ~size:(Policy.Split_above 1200) ()) in
  let small = call (Controller.hooks c2) (decision ~payload:800 ()) in
  Alcotest.(check int) "small untouched" 800 small.Hooks.packet_payload

let test_controller_cycle_reduction () =
  let c =
    Controller.create
      (Policy.make ~name:"t" ~size:(Policy.Cycle_reduction { step = 100; max_steps = 3 }) ())
  in
  let h = Controller.hooks c in
  let payloads = List.init 6 (fun _ -> (call h (decision ())).Hooks.packet_payload) in
  (* k = 0,1,2,3 then resets to 0,1: 1448, 1348, 1248, 1148, 1448, 1348 *)
  Alcotest.(check (list int)) "cycle" [ 1448; 1348; 1248; 1148; 1448; 1348 ] payloads

let test_controller_sampled_size () =
  let hist = Histogram.of_samples ~lo:400.0 ~hi:800.0 ~bins:8 [| 500.0; 600.0; 700.0 |] in
  let c = Controller.create (Policy.make ~name:"t" ~size:(Policy.Sampled_size hist) ()) in
  let h = Controller.hooks c in
  for _ = 1 to 100 do
    let p = (call h (decision ())).Hooks.packet_payload in
    Alcotest.(check bool) "within histogram domain" true (p >= 400 && p <= 800)
  done

(* --- Controller: tso rules --- *)

let test_controller_single_packet_tso () =
  let c = Controller.create (Policy.make ~name:"t" ~tso:Policy.Single_packet_tso ()) in
  let out = call (Controller.hooks c) (decision ()) in
  Alcotest.(check int) "one packet" 1448 out.Hooks.tso_bytes

let test_controller_fixed_tso_packets () =
  let c = Controller.create (Policy.make ~name:"t" ~tso:(Policy.Fixed_tso_packets 4) ()) in
  let out = call (Controller.hooks c) (decision ()) in
  Alcotest.(check int) "four packets" (4 * 1448) out.Hooks.tso_bytes

let test_controller_tso_cycle_floor () =
  let c =
    Controller.create
      (Policy.make ~name:"t" ~tso:(Policy.Cycle_tso_reduction { step = 20; max_steps = 8 }) ())
  in
  let h = Controller.hooks c in
  (* stack has 45 packets; steps of 20: 45, 25, 5, then floor at 1. *)
  let segs = List.init 4 (fun _ -> (call h (decision ())).Hooks.tso_bytes / 1448) in
  Alcotest.(check (list int)) "decay with floor" [ 45; 25; 5; 1 ] segs

(* --- Controller: timing rules --- *)

let test_controller_add_constant () =
  let c = Controller.create (Policy.make ~name:"t" ~timing:(Policy.Add_constant 0.005) ()) in
  let out = call (Controller.hooks c) (decision ~dep:1.0 ()) in
  Alcotest.(check (float 1e-9)) "delayed" 1.005 out.Hooks.earliest_departure

let test_controller_add_uniform_bounds () =
  let c = Controller.create (Policy.make ~name:"t" ~timing:(Policy.Add_uniform (0.001, 0.002)) ()) in
  let h = Controller.hooks c in
  for _ = 1 to 100 do
    let d = (call h (decision ~dep:1.0 ())).Hooks.earliest_departure in
    Alcotest.(check bool) "in [1.001, 1.002]" true (d >= 1.001 && d <= 1.002)
  done

let test_controller_stretch_gap () =
  let c = Controller.create (Policy.make ~name:"t" ~timing:(Policy.Stretch_gap (0.1, 0.3)) ()) in
  let h = Controller.hooks c in
  (* First segment at t=1.0 establishes last_release; second at 1.1 has a
     0.1 gap which must stretch by 10-30%. *)
  ignore (call h (decision ~dep:1.0 ()));
  let d = (call h (decision ~dep:1.1 ())).Hooks.earliest_departure in
  Alcotest.(check bool)
    (Printf.sprintf "stretched (%f)" d)
    true
    (d >= 1.1 +. 0.0099 && d <= 1.1 +. 0.0301)

let test_controller_never_earlier () =
  (* Even a sampling-gap rule can never move a departure earlier. *)
  let hist = Histogram.of_samples ~lo:0.0 ~hi:0.01 ~bins:4 [| 0.001 |] in
  let c = Controller.create (Policy.make ~name:"t" ~timing:(Policy.Sampled_gap hist) ()) in
  let h = Controller.hooks c in
  for i = 1 to 50 do
    let dep = float_of_int i in
    let out = call ~now:dep h (decision ~dep ()) in
    Alcotest.(check bool) "not earlier" true (out.Hooks.earliest_departure >= dep)
  done

let test_controller_exempt_phase () =
  let p =
    Strategies.bbr_respecting (Policy.make ~name:"t" ~size:(Policy.Fixed_payload 500) ())
  in
  let c = Controller.create p in
  let h = Controller.hooks c in
  let d = decision () in
  let during_startup = call ~phase:Cc.Startup h d in
  Alcotest.(check bool) "stood down" true (during_startup = d);
  let during_probe = call ~phase:Cc.Probe_bw h d in
  Alcotest.(check int) "active in probe-bw" 500 during_probe.Hooks.packet_payload;
  Alcotest.(check int) "stand-downs counted" 1 (Controller.stats c).Controller.stood_down

let test_controller_pace_at () =
  let c = Controller.create (Strategies.rate_floor ~rate_bps:1e6) in
  let h = Controller.hooks c in
  (* First segment passes through; subsequent ones are spaced at
     tso_bytes * 8 / rate from the previous release. *)
  let d1 = call ~now:0.0 h (decision ~tso:12500 ~dep:0.0 ()) in
  Alcotest.(check (float 1e-9)) "first unchanged" 0.0 d1.Hooks.earliest_departure;
  (* 12500 B at 1 Mb/s = 0.1 s *)
  let d2 = call ~now:0.0 h (decision ~tso:12500 ~dep:0.0 ()) in
  Alcotest.(check (float 1e-9)) "spaced at rate" 0.1 d2.Hooks.earliest_departure;
  let d3 = call ~now:0.0 h (decision ~tso:12500 ~dep:0.0 ()) in
  Alcotest.(check (float 1e-9)) "keeps spacing" 0.2 d3.Hooks.earliest_departure

let test_controller_pace_at_never_earlier () =
  let c = Controller.create (Strategies.rate_floor ~rate_bps:1e9) in
  let h = Controller.hooks c in
  ignore (call ~now:0.0 h (decision ~dep:0.0 ()));
  (* Stack wants a later departure than the floor: stack wins. *)
  let d = call ~now:5.0 h (decision ~dep:5.0 ()) in
  Alcotest.(check (float 1e-9)) "stack departure preserved" 5.0 d.Hooks.earliest_departure

let test_controller_stats () =
  let c = Controller.create (Policy.make ~name:"t" ~timing:(Policy.Add_constant 0.01) ()) in
  let h = Controller.hooks c in
  for _ = 1 to 5 do
    ignore (call h (decision ()))
  done;
  let st = Controller.stats c in
  Alcotest.(check int) "segments" 5 st.Controller.segments;
  Alcotest.(check int) "modified" 5 st.Controller.modified;
  Alcotest.(check (float 1e-9)) "added delay" 0.05 st.Controller.added_delay

let test_controller_determinism () =
  let run () =
    let c = Controller.create ~seed:7 (Strategies.stack_delay ()) in
    let h = Controller.hooks c in
    List.init 20 (fun i ->
        (call h (decision ~dep:(float_of_int i) ())).Hooks.earliest_departure)
  in
  Alcotest.(check (list (float 1e-12))) "same seed, same stream" (run ()) (run ())

(* --- Policy table --- *)

let test_policy_table_resolution () =
  let t = Policy_table.create () in
  let resolved ?destination () =
    (Controller.policy (Policy_table.attach t ?destination 1)).Policy.name
  in
  Alcotest.(check string) "empty -> unmodified" "unmodified" (resolved ());
  Policy_table.set_global t (Policy.make ~name:"global" ());
  Alcotest.(check string) "global" "global" (resolved ());
  Policy_table.set_for_destination t "example.com" (Policy.make ~name:"dest" ());
  Alcotest.(check string) "destination beats global" "dest" (resolved ~destination:"example.com" ());
  Alcotest.(check string) "other destinations fall back" "global"
    (resolved ~destination:"example.org" ())

let test_policy_table_attach () =
  let t = Policy_table.create () in
  Policy_table.set_global t (Strategies.stack_split ());
  let c = Policy_table.attach t 5 in
  Alcotest.(check bool) "controller has the policy" true
    ((Controller.policy c).Policy.name = (Strategies.stack_split ()).Policy.name)

let test_policy_table_installed () =
  let t = Policy_table.create () in
  Policy_table.set_global t Policy.unmodified;
  Policy_table.set_for_destination t "example.com" (Strategies.stack_delay ());
  Alcotest.(check int) "two entries" 2 (List.length (Policy_table.installed t))

(* --- Safety --- *)

let test_safety_is_safe () =
  let stack = decision () in
  Alcotest.(check bool) "identity safe" true (Safety.is_safe ~stack stack);
  Alcotest.(check bool) "smaller+later safe" true
    (Safety.is_safe ~stack (decision ~tso:1000 ~payload:500 ~dep:2.0 ()));
  Alcotest.(check bool) "bigger tso unsafe" false (Safety.is_safe ~stack (decision ~tso:100000 ()));
  Alcotest.(check bool) "earlier unsafe" false (Safety.is_safe ~stack (decision ~dep:0.5 ()))

let test_safety_audit_clean_policy () =
  let c = Controller.create (Strategies.stack_combined ()) in
  let hooks, report = Safety.audit (Controller.hooks c) in
  for i = 1 to 200 do
    ignore (call ~now:(float_of_int i) hooks (decision ~dep:(float_of_int i) ()))
  done;
  let r = report () in
  Alcotest.(check int) "decisions" 200 r.Safety.decisions;
  Alcotest.(check int) "no violations" 0 r.Safety.violations

let test_safety_audit_catches_rogue () =
  let rogue =
    {
      Hooks.on_segment =
        (fun ~now:_ ~flow:_ ~phase:_ d -> { d with Hooks.tso_bytes = d.Hooks.tso_bytes * 2 });
    }
  in
  let hooks, report = Safety.audit rogue in
  let out = call hooks (decision ()) in
  let r = report () in
  Alcotest.(check int) "violation counted" 1 r.Safety.violations;
  Alcotest.(check bool) "rate ratio above 1" true (r.Safety.max_rate_ratio > 1.0);
  Alcotest.(check int) "still clamped" 65160 out.Hooks.tso_bytes

(* --- Strategies --- *)

let test_strategies_fig3_mapping () =
  let p = Strategies.incremental_packet_reduction ~alpha:20 in
  (match p.Policy.size with
  | Policy.Cycle_reduction { step; max_steps } ->
      Alcotest.(check int) "step is alpha" 20 step;
      Alcotest.(check int) "ten steps" 10 max_steps
  | _ -> Alcotest.fail "wrong rule");
  let t = Strategies.incremental_tso_reduction ~alpha:20 in
  match t.Policy.tso with
  | Policy.Cycle_tso_reduction { step; max_steps } ->
      Alcotest.(check int) "step is alpha/4" 5 step;
      Alcotest.(check int) "eight steps" 8 max_steps
  | _ -> Alcotest.fail "wrong rule"

let test_strategies_all_named_distinct () =
  let names = List.map fst (Strategies.all_named ()) in
  Alcotest.(check int) "distinct names" (List.length names)
    (List.length (List.sort_uniq compare names))

(* --- Machine --- *)

let simple_machine () =
  Machine.intermittent ~on:(Strategies.stack_split ()) ~p_enter:0.5 ~p_exit:0.3 ()

let test_machine_validate () =
  (match Machine.validate (simple_machine ()) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let bad_target =
    {
      Machine.states =
        [| { Machine.name = "s"; policy = Policy.unmodified; transitions = [ { Machine.target = 5; weight = 1.0 } ] } |];
      start = 0;
    }
  in
  (match Machine.validate bad_target with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "accepted out-of-range target");
  let bad_start = { Machine.states = [||]; start = 0 } in
  match Machine.validate bad_start with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "accepted empty machine"

let test_machine_visits_both_states () =
  let c = Machine.create ~seed:3 (simple_machine ()) in
  let h = Machine.hooks c in
  for i = 1 to 300 do
    ignore (call ~now:(float_of_int i) h (decision ~dep:(float_of_int i) ()))
  done;
  let counts = Machine.segments_in_state c in
  List.iter
    (fun (name, n) ->
      Alcotest.(check bool) (name ^ " visited") true (n > 20))
    counts;
  Alcotest.(check int) "counts cover every segment" 300
    (List.fold_left (fun acc (_, n) -> acc + n) 0 counts)

let test_machine_obfuscate_state_splits () =
  (* Force permanent obfuscation: p_exit = 0, p_enter = 1. *)
  let m = Machine.intermittent ~on:(Strategies.stack_split ()) ~p_enter:1.0 ~p_exit:0.0 () in
  let c = Machine.create m in
  let h = Machine.hooks c in
  ignore (call h (decision ()));  (* idle handles the first segment, then transitions *)
  let d = call h (decision ()) in
  Alcotest.(check int) "split applied in obfuscate state" 724 d.Hooks.packet_payload;
  Alcotest.(check string) "absorbed" "obfuscate" (Machine.current_state c)

let test_machine_absorbing_state () =
  let m =
    {
      Machine.states =
        [| { Machine.name = "only"; policy = Policy.unmodified; transitions = [] } |];
      start = 0;
    }
  in
  let c = Machine.create m in
  let h = Machine.hooks c in
  for _ = 1 to 50 do
    ignore (call h (decision ()))
  done;
  Alcotest.(check string) "stays" "only" (Machine.current_state c)

let test_machine_deterministic () =
  let run () =
    let c = Machine.create ~seed:9 (simple_machine ()) in
    let h = Machine.hooks c in
    List.init 100 (fun i -> (call ~now:(float_of_int i) h (decision ())).Hooks.packet_payload)
  in
  Alcotest.(check (list int)) "same stream" (run ()) (run ())

let prop_machine_always_safe =
  QCheck.Test.make ~name:"machine decisions are always safe after clamping" ~count:200
    QCheck.(pair small_int (int_range 1448 65160))
    (fun (seed, tso) ->
      let c = Machine.create ~seed (simple_machine ()) in
      let h = Machine.hooks c in
      let stack = decision ~tso () in
      let out = Hooks.clamp ~stack (call h stack) in
      Safety.is_safe ~stack out)

(* --- qcheck: controller output always safe --- *)

let prop_controller_always_safe =
  QCheck.Test.make ~name:"every built-in strategy yields safe decisions" ~count:300
    QCheck.(pair (int_range 0 6) (pair (int_range 1448 65160) (float_range 0.0 100.0)))
    (fun (which, (tso, dep)) ->
      let _, policy = List.nth (Strategies.all_named ()) which in
      let c = Controller.create policy in
      let stack = decision ~tso ~dep () in
      let out = call ~now:dep (Controller.hooks c) stack in
      let clamped = Hooks.clamp ~stack out in
      Safety.is_safe ~stack clamped)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ( "core.policy",
      [
        Alcotest.test_case "built-ins validate" `Quick test_policy_validate_ok;
        Alcotest.test_case "rejects invalid" `Quick test_policy_validate_rejects;
        Alcotest.test_case "controller rejects invalid" `Quick test_controller_rejects_invalid;
      ] );
    ( "core.controller",
      [
        Alcotest.test_case "identity" `Quick test_controller_identity;
        Alcotest.test_case "fixed payload" `Quick test_controller_fixed_payload;
        Alcotest.test_case "split above" `Quick test_controller_split_above;
        Alcotest.test_case "cycle reduction" `Quick test_controller_cycle_reduction;
        Alcotest.test_case "sampled size" `Quick test_controller_sampled_size;
        Alcotest.test_case "single-packet tso" `Quick test_controller_single_packet_tso;
        Alcotest.test_case "fixed tso packets" `Quick test_controller_fixed_tso_packets;
        Alcotest.test_case "tso cycle floor" `Quick test_controller_tso_cycle_floor;
        Alcotest.test_case "add constant" `Quick test_controller_add_constant;
        Alcotest.test_case "add uniform bounds" `Quick test_controller_add_uniform_bounds;
        Alcotest.test_case "stretch gap" `Quick test_controller_stretch_gap;
        Alcotest.test_case "never earlier" `Quick test_controller_never_earlier;
        Alcotest.test_case "exempt phase" `Quick test_controller_exempt_phase;
        Alcotest.test_case "pace_at spacing" `Quick test_controller_pace_at;
        Alcotest.test_case "pace_at never earlier" `Quick test_controller_pace_at_never_earlier;
        Alcotest.test_case "stats" `Quick test_controller_stats;
        Alcotest.test_case "determinism" `Quick test_controller_determinism;
      ] );
    ( "core.policy_table",
      [
        Alcotest.test_case "resolution order" `Quick test_policy_table_resolution;
        Alcotest.test_case "attach" `Quick test_policy_table_attach;
        Alcotest.test_case "installed dump" `Quick test_policy_table_installed;
      ] );
    ( "core.safety",
      [
        Alcotest.test_case "is_safe" `Quick test_safety_is_safe;
        Alcotest.test_case "audit clean policy" `Quick test_safety_audit_clean_policy;
        Alcotest.test_case "audit catches rogue" `Quick test_safety_audit_catches_rogue;
        q prop_controller_always_safe;
      ] );
    ( "core.machine",
      [
        Alcotest.test_case "validate" `Quick test_machine_validate;
        Alcotest.test_case "visits both states" `Quick test_machine_visits_both_states;
        Alcotest.test_case "obfuscate state splits" `Quick test_machine_obfuscate_state_splits;
        Alcotest.test_case "absorbing state" `Quick test_machine_absorbing_state;
        Alcotest.test_case "deterministic" `Quick test_machine_deterministic;
        QCheck_alcotest.to_alcotest prop_machine_always_safe;
      ] );
    ( "core.strategies",
      [
        Alcotest.test_case "figure 3 mapping" `Quick test_strategies_fig3_mapping;
        Alcotest.test_case "named strategies distinct" `Quick test_strategies_all_named_distinct;
      ] );
  ]
