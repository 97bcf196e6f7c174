(* Tests for the chaos harness: the Controller degradation ladder and its
   circuit breaker, one regression per fault class (explicit fault plans,
   so each class deterministically trips its invariant or breaker rung),
   and sweep/shrink determinism. *)

module Fault = Stob_sim.Fault
module Hooks = Stob_tcp.Hooks
module Controller = Stob_core.Controller
module Chaos = Stob_check.Chaos
module Pool = Stob_par.Pool
module Monitor = Stob_check.Monitor
module Engine = Stob_sim.Engine

let check_float = Alcotest.(check (float 1e-12))

let expect_invalid_arg name f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail (name ^ ": expected Invalid_argument")

(* --- Controller.guard: the degradation ladder --------------------------- *)

let stack_decision =
  { Hooks.tso_bytes = 10_000; packet_payload = 1448; earliest_departure = 1.0 }

let consult hooks ~now = hooks.Hooks.on_segment ~now ~flow:1 ~phase:Stob_tcp.Cc.Congestion_avoidance stack_decision

let breaker2 = { Controller.trip_failures = 2; window = 10.0; stall_budget = 0.05 }

(* A hook that always raises walks the whole ladder: two failures trip
   full-policy -> clamp-only, two more trip clamp-only -> passthrough,
   after which the hook is no longer consulted. *)
let test_guard_ladder_trips () =
  let calls = ref 0 in
  let failing =
    { Hooks.on_segment = (fun ~now ~flow:_ ~phase:_ _ -> incr calls; raise (Fault.Injected { kind = Fault.Hook_exception; at = now })) }
  in
  let hooks, report = Controller.guard ~breaker:breaker2 failing in
  List.iter
    (fun now ->
      let d = consult hooks ~now in
      Alcotest.(check bool)
        (Printf.sprintf "stack decision ships at t=%g" now)
        true (d = stack_decision))
    [ 0.1; 0.2; 0.3; 0.4; 0.5; 0.6 ];
  let r = report () in
  Alcotest.(check string) "final rung" "passthrough" (Controller.rung_name r.Controller.rung);
  Alcotest.(check int) "decisions" 6 r.Controller.decisions;
  Alcotest.(check int) "full-policy decisions" 2 r.Controller.full_policy_decisions;
  Alcotest.(check int) "clamp-only decisions" 2 r.Controller.clamp_only_decisions;
  Alcotest.(check int) "passthrough decisions" 2 r.Controller.passthrough_decisions;
  Alcotest.(check int) "injected faults" 4 r.Controller.injected_faults;
  Alcotest.(check int) "fallback decisions" 4 r.Controller.fallbacks;
  Alcotest.(check int) "hook not consulted on passthrough" 4 !calls;
  (match r.Controller.trips with
  | [ (t1, r1); (t2, r2) ] ->
      check_float "first trip time" 0.2 t1;
      Alcotest.(check string) "first trip rung" "clamp-only" (Controller.rung_name r1);
      check_float "second trip time" 0.4 t2;
      Alcotest.(check string) "second trip rung" "passthrough" (Controller.rung_name r2)
  | trips -> Alcotest.fail (Printf.sprintf "expected 2 trips, got %d" (List.length trips)))

(* Injected faults and genuine bugs (Invalid_argument and friends) feed the
   same breaker but are counted apart — the report never launders an API
   misuse as chaos. *)
let test_guard_distinguishes_bug_from_fault () =
  let nth = ref 0 in
  let hook =
    {
      Hooks.on_segment =
        (fun ~now ~flow:_ ~phase:_ d ->
          incr nth;
          if !nth = 1 then raise (Fault.Injected { kind = Fault.Hook_exception; at = now })
          else if !nth = 2 then invalid_arg "policy bug"
          else d);
    }
  in
  let hooks, report = Controller.guard ~breaker:{ breaker2 with Controller.trip_failures = 5 } hook in
  List.iter (fun now -> ignore (consult hooks ~now)) [ 0.1; 0.2; 0.3 ];
  let r = report () in
  Alcotest.(check int) "one injected fault" 1 r.Controller.injected_faults;
  Alcotest.(check int) "one genuine hook exception" 1 r.Controller.hook_exceptions;
  Alcotest.(check int) "both shipped the stack decision" 2 r.Controller.fallbacks;
  Alcotest.(check string) "breaker not tripped below threshold" "full-policy"
    (Controller.rung_name r.Controller.rung)

(* Hook latency within the stall budget is added to the departure (the safe
   direction); beyond the budget the consultation is killed and counted. *)
let test_guard_stall_budget () =
  let identity = { Hooks.on_segment = (fun ~now:_ ~flow:_ ~phase:_ d -> d) } in
  let lat = ref 0.01 in
  let hooks, report =
    Controller.guard ~breaker:breaker2 ~latency:(fun ~now:_ -> !lat) identity
  in
  let d = consult hooks ~now:0.1 in
  check_float "within budget: latency delays departure"
    (stack_decision.Hooks.earliest_departure +. 0.01)
    d.Hooks.earliest_departure;
  lat := 0.2;
  let d = consult hooks ~now:0.2 in
  check_float "over budget: stack decision ships" stack_decision.Hooks.earliest_departure
    d.Hooks.earliest_departure;
  ignore (consult hooks ~now:0.3);
  let r = report () in
  Alcotest.(check int) "stalls counted" 2 r.Controller.stalls;
  Alcotest.(check string) "two stalls tripped the two-failure breaker" "clamp-only"
    (Controller.rung_name r.Controller.rung)

(* An unsafe proposal is clamped AND feeds the breaker; on the clamp-only
   rung the hook's timing proposal is discarded outright. *)
let test_guard_unsafe_and_clamp_only () =
  let aggressive =
    {
      Hooks.on_segment =
        (fun ~now:_ ~flow:_ ~phase:_ d ->
          {
            Hooks.tso_bytes = d.Hooks.tso_bytes * 2;
            packet_payload = d.Hooks.packet_payload;
            earliest_departure = d.Hooks.earliest_departure -. 0.5;
          });
    }
  in
  let hooks, report = Controller.guard ~breaker:breaker2 aggressive in
  let d = consult hooks ~now:0.1 in
  Alcotest.(check int) "size clamped" stack_decision.Hooks.tso_bytes d.Hooks.tso_bytes;
  check_float "departure clamped" stack_decision.Hooks.earliest_departure
    d.Hooks.earliest_departure;
  ignore (consult hooks ~now:0.2);
  let r = report () in
  Alcotest.(check int) "unsafe proposals counted" 2 r.Controller.unsafe_proposals;
  Alcotest.(check string) "tripped to clamp-only" "clamp-only"
    (Controller.rung_name r.Controller.rung);
  (* On clamp-only even a slower-but-safe timing proposal is discarded. *)
  let d = consult hooks ~now:0.3 in
  check_float "clamp-only discards the timing proposal"
    stack_decision.Hooks.earliest_departure d.Hooks.earliest_departure

(* Failures outside the sliding window must not accumulate into a trip. *)
let test_guard_window_expiry () =
  let failing =
    { Hooks.on_segment = (fun ~now ~flow:_ ~phase:_ _ -> raise (Fault.Injected { kind = Fault.Hook_exception; at = now })) }
  in
  let hooks, report =
    Controller.guard ~breaker:{ Controller.trip_failures = 2; window = 0.5; stall_budget = 0.05 }
      failing
  in
  ignore (consult hooks ~now:0.0);
  ignore (consult hooks ~now:1.0);
  ignore (consult hooks ~now:2.0);
  let r = report () in
  Alcotest.(check string) "sparse failures never trip" "full-policy"
    (Controller.rung_name r.Controller.rung);
  Alcotest.(check int) "all three counted" 3 r.Controller.injected_faults

let test_guard_validate () =
  let identity = { Hooks.on_segment = (fun ~now:_ ~flow:_ ~phase:_ d -> d) } in
  expect_invalid_arg "zero trip_failures" (fun () ->
      Controller.guard ~breaker:{ Controller.trip_failures = 0; window = 1.0; stall_budget = 0.0 } identity);
  expect_invalid_arg "non-positive window" (fun () ->
      Controller.guard ~breaker:{ Controller.trip_failures = 1; window = 0.0; stall_budget = 0.0 } identity);
  expect_invalid_arg "negative stall budget" (fun () ->
      Controller.guard ~breaker:{ Controller.trip_failures = 1; window = 1.0; stall_budget = -0.1 } identity)

(* --- Per-fault-class chaos regressions ---------------------------------- *)

(* Every fault class, driven by an explicit plan placed where the workload
   is provably vulnerable, must either trip its invariant or walk the
   breaker — and the page load must complete regardless. *)

let cell ?plan fault = Chaos.run_cell ?plan ~seed:4242 { Chaos.cca = "cubic"; fault; fanout = 2 }

let violated name (r : Chaos.report) = List.mem_assoc name r.Chaos.violation_counts

let check_survived (r : Chaos.report) =
  Alcotest.(check bool)
    (Printf.sprintf "%s survived (crashed=%s livelock=%b completed=%b)"
       (Chaos.scenario_name r.Chaos.scenario)
       (Option.value ~default:"-" r.Chaos.crashed)
       r.Chaos.livelock r.Chaos.completed)
    true (Chaos.survived r)

let test_chaos_no_fault_clean () =
  let r = cell None in
  check_survived r;
  Alcotest.(check bool) "zero violations" true (Chaos.clean r);
  let d = r.Chaos.degradation in
  Alcotest.(check string) "stays on full policy" "full-policy" d.Chaos.final_rung;
  Alcotest.(check int) "no fallbacks" 0 d.Chaos.fallbacks

let test_chaos_hook_exception () =
  let plan = [ { Fault.kind = Fault.Hook_exception; at = 0.05; duration = 0.6; magnitude = 1.0 } ] in
  let r = cell ~plan (Some Fault.Hook_exception) in
  check_survived r;
  let d = r.Chaos.degradation in
  Alcotest.(check bool) "breaker tripped off full-policy" true (d.Chaos.final_rung <> "full-policy");
  Alcotest.(check bool) "injected faults recorded" true (d.Chaos.injected > 0);
  Alcotest.(check int) "no injected fault counted as an API bug" 0 d.Chaos.hook_exceptions

let test_chaos_hook_stall () =
  let plan = [ { Fault.kind = Fault.Hook_stall; at = 0.05; duration = 0.6; magnitude = 0.15 } ] in
  let r = cell ~plan (Some Fault.Hook_stall) in
  check_survived r;
  let d = r.Chaos.degradation in
  Alcotest.(check bool) "stalled consultations killed" true (d.Chaos.stalls > 0);
  Alcotest.(check bool) "stalls tripped the breaker" true (d.Chaos.trips > 0)

let test_chaos_policy_failure () =
  (* Fanout-2 opens its second connection at t=0.3, inside the window: its
     policy lookup fails and the flow must fall back to the unmodified
     policy rather than abort. *)
  let plan = [ { Fault.kind = Fault.Policy_failure; at = 0.05; duration = 0.5; magnitude = 1.0 } ] in
  let r = cell ~plan (Some Fault.Policy_failure) in
  check_survived r;
  Alcotest.(check bool) "policy lookup fell back" true (r.Chaos.policy_fallbacks >= 1)

let test_chaos_cpu_overload () =
  let plan = [ { Fault.kind = Fault.Cpu_overload; at = 0.1; duration = 0.3; magnitude = 1e4 } ] in
  let r = cell ~plan (Some Fault.Cpu_overload) in
  check_survived r;
  Alcotest.(check bool) "cpu backlog invariant tripped" true (violated "cpu-backlog-bound" r)

let test_chaos_pacer_jump () =
  let plan = [ { Fault.kind = Fault.Pacer_jump; at = 0.2; duration = 0.0; magnitude = 2.0 } ] in
  let r = cell ~plan (Some Fault.Pacer_jump) in
  check_survived r;
  Alcotest.(check bool) "progress stall detected" true (violated "progress-stall" r)

let test_chaos_qdisc_collapse () =
  (* t=0.2 sits in the measured backlog peak of the 400 KB fanout
     transfer, so the collapse strands a backlog above the new limit. *)
  let plan = [ { Fault.kind = Fault.Qdisc_collapse; at = 0.2; duration = 0.3; magnitude = 3000.0 } ] in
  let r = cell ~plan (Some Fault.Qdisc_collapse) in
  check_survived r;
  Alcotest.(check bool) "stranded backlog detected" true (violated "qdisc-backlog-bound" r)

(* Every kind the battery sweeps must reach the stack: no fault row of the
   smoke sweep repeats the control row.  The control cell draws no faults,
   so its outcome does not depend on its seed; a kind that nothing arms
   would print that row again with only [fault_events] changed. *)
let test_chaos_every_kind_armed () =
  let outcome (r : Chaos.report) =
    { r with Chaos.scenario = { r.Chaos.scenario with fault = None }; seed = 0; fault_events = 0 }
  in
  match Chaos.run_sweep ~seed:1337 (Chaos.smoke_scenarios ()) with
  | control :: faulted ->
      Alcotest.(check int) "control draws no faults" 0 control.Chaos.fault_events;
      List.iter
        (fun r ->
          let name = Chaos.scenario_name r.Chaos.scenario in
          Alcotest.(check bool) (name ^ " drew events") true (r.Chaos.fault_events > 0);
          Alcotest.(check bool) (name ^ " differs from the control row") true
            (outcome r <> outcome control))
        faulted
  | [] -> Alcotest.fail "empty smoke sweep"

(* --- Scenario lists ------------------------------------------------------ *)

let fault_options = None :: List.map Option.some Fault.all_kinds

let test_smoke_scenarios () =
  let smoke = Chaos.smoke_scenarios () in
  Alcotest.(check int) "7 cells" 7 (List.length smoke);
  Alcotest.(check bool) "cubic, fanout 2: the control, then every kind" true
    (smoke = List.map (fun fault -> { Chaos.cca = "cubic"; fault; fanout = 2 }) fault_options)

let test_default_scenarios () =
  let full = Chaos.default_scenarios () in
  Alcotest.(check int) "21 cells" 21 (List.length full);
  Alcotest.(check bool) "reno, cubic, bbr x the control and every kind, fanout 3" true
    (full
    = List.concat_map
        (fun cca -> List.map (fun fault -> { Chaos.cca; fault; fanout = 3 }) fault_options)
        [ "reno"; "cubic"; "bbr" ])

(* The names open every row of [stobctl chaos]; the suffix stays although
   every cell degrades. *)
let test_scenario_names () =
  Alcotest.(check (list string)) "smoke names"
    [
      "cubic/no-fault/fanout2/degrade";
      "cubic/hook-exception/fanout2/degrade";
      "cubic/hook-stall/fanout2/degrade";
      "cubic/policy-failure/fanout2/degrade";
      "cubic/cpu-overload/fanout2/degrade";
      "cubic/pacer-jump/fanout2/degrade";
      "cubic/qdisc-collapse/fanout2/degrade";
    ]
    (List.map Chaos.scenario_name (Chaos.smoke_scenarios ()))

(* --- Sweep and shrink determinism --------------------------------------- *)

let test_chaos_sweep_jobs_invariant () =
  let scenarios = Chaos.smoke_scenarios () in
  let seq = Chaos.run_sweep ~seed:1337 scenarios in
  let par = Pool.with_pool ~domains:2 (fun pool -> Chaos.run_sweep ~pool ~seed:1337 scenarios) in
  Alcotest.(check bool) "sweep bit-identical under a 2-domain pool" true (seq = par);
  Alcotest.(check bool) "every smoke cell survives" true (List.for_all Chaos.survived seq)

(* A cell's seed is keyed by its scenario, not by its place in the list:
   each one-cell sweep, and the reversed list, reproduce the smoke rows. *)
let test_chaos_cell_seed_keyed_by_scenario () =
  let scenarios = Chaos.smoke_scenarios () in
  let rows = Chaos.run_sweep ~seed:1337 scenarios in
  List.iter2
    (fun s row ->
      match Chaos.run_sweep ~seed:1337 [ s ] with
      | [ alone ] ->
          Alcotest.(check bool) (Chaos.scenario_name s ^ " alone reproduces its row") true
            (alone = row)
      | _ -> Alcotest.fail "a one-cell sweep returned other than one report")
    scenarios rows;
  Alcotest.(check bool) "reversed list, reversed rows" true
    (Chaos.run_sweep ~seed:1337 (List.rev scenarios) = List.rev rows)

let test_chaos_shrink_deterministic () =
  let scenario = { Chaos.cca = "cubic"; fault = Some Fault.Hook_exception; fanout = 2 } in
  let failed (r : Chaos.report) = r.Chaos.degradation.Chaos.trips > 0 in
  let s1 = Chaos.shrink ~failed ~seed:4242 scenario in
  let s2 = Chaos.shrink ~failed ~seed:4242 scenario in
  match (s1, s2) with
  | Some (k1, p1, r1), Some (k2, p2, r2) ->
      Alcotest.(check int) "same minimal prefix length" k1 k2;
      Alcotest.(check bool) "same prefix" true (p1 = p2);
      Alcotest.(check bool) "same replay report" true (r1 = r2);
      Alcotest.(check bool) "minimal prefix still fails" true (failed r1);
      Alcotest.(check int) "prefix length matches" k1 (List.length p1)
  | None, None -> Alcotest.fail "expected the full hook-exception plan to trip the breaker"
  | _ -> Alcotest.fail "shrink not deterministic: one run minimised, the other did not"

(* --- Monitor bounds -------------------------------------------------------- *)

let test_monitor_storage_cap () =
  let m = Monitor.create (Engine.create ()) in
  for i = 1 to 250 do
    Monitor.record m (Stob_check.Violation.make ~invariant:"x" ~time:(float_of_int i) "d")
  done;
  Alcotest.(check int) "total counts past the cap" 250 (Monitor.total m);
  Alcotest.(check (list (pair string int))) "per-invariant count too" [ ("x", 250) ]
    (Monitor.counts m);
  let kept = Monitor.violations m in
  Alcotest.(check int) "200 kept" 200 (List.length kept);
  check_float "oldest first" 1.0 (List.hd kept).Stob_check.Violation.time

let test_monitor_cpu_bound () =
  let engine = Engine.create () in
  let cpu = Stob_sim.Cpu.create engine in
  let m = Monitor.create engine in
  Monitor.watch_cpu m ~name:"core" cpu;
  Stob_sim.Cpu.submit cpu ~cost:0.4 ignore;
  Monitor.check_now m ~now:0.0;
  Alcotest.(check int) "0.4 s ahead is within the bound" 0 (Monitor.total m);
  Stob_sim.Cpu.submit cpu ~cost:0.2 ignore;
  Monitor.check_now m ~now:0.0;
  Alcotest.(check (list (pair string int))) "0.6 s ahead trips it" [ ("cpu-backlog-bound", 1) ]
    (Monitor.counts m)

let test_monitor_progress_bound () =
  let engine = Engine.create () in
  let m = Monitor.create engine in
  let activity = ref 0 in
  Monitor.watch_progress m ~name:"flow" ~pending:(fun () -> true) ~activity:(fun () -> !activity);
  Monitor.attach_engine m;
  (* Gaps of 0.45 s pass; the 0.6 s gap that follows is one stall. *)
  List.iter
    (fun time -> Engine.schedule_at engine ~time (fun () -> incr activity))
    [ 0.45; 0.9; 1.5 ];
  Engine.run engine;
  Alcotest.(check (list (pair string int))) "one stall" [ ("progress-stall", 1) ]
    (Monitor.counts m);
  check_float "detected when the silence ends" 1.5
    (List.hd (Monitor.violations m)).Stob_check.Violation.time

(* --- Store canary -------------------------------------------------------- *)

let canary_monitor () = Stob_check.Monitor.create (Stob_sim.Engine.create ())

let canary_entries = [ ("a", "pay-a"); ("b", "pay-b"); ("c", "pay-c") ]

let test_store_canary_clean () =
  let m = canary_monitor () in
  Stob_check.Monitor.check_store_canary m ~sample:10 ~seed:1 ~entries:canary_entries
    ~recompute:(fun label -> List.assoc_opt label canary_entries);
  Alcotest.(check int) "agreeing recompute yields no violations" 0
    (Stob_check.Monitor.total m);
  expect_invalid_arg "sample must be positive" (fun () ->
      Stob_check.Monitor.check_store_canary m ~sample:0 ~seed:1 ~entries:canary_entries
        ~recompute:(fun _ -> None))

let test_store_canary_detects_poisoning () =
  (* Checking everything: a silently flipped payload and a cell the code no
     longer recognizes must each record a store-replay-agreement violation. *)
  let m = canary_monitor () in
  Stob_check.Monitor.check_store_canary m ~sample:10 ~seed:1 ~entries:canary_entries
    ~recompute:(fun label ->
      if label = "b" then Some "pay-B" else if label = "c" then None else Some ("pay-" ^ label));
  Alcotest.(check (list (pair string int))) "both disagreements recorded"
    [ ("store-replay-agreement", 2) ]
    (Stob_check.Monitor.counts m)

let test_store_canary_sampling_deterministic () =
  let run () =
    let m = canary_monitor () in
    (* Every payload disagrees, so the violation details record exactly
       which entries the sampler chose. *)
    Stob_check.Monitor.check_store_canary m ~sample:2 ~seed:7 ~entries:canary_entries
      ~recompute:(fun _ -> Some "wrong");
    List.map Stob_check.Violation.to_string (Stob_check.Monitor.violations m)
  in
  let first = run () in
  Alcotest.(check int) "sample size respected" 2 (List.length first);
  Alcotest.(check (list string)) "same seed samples the same entries" first (run ())

let suite =
  [
    ( "chaos.guard",
      [
        Alcotest.test_case "ladder trips rung by rung" `Quick test_guard_ladder_trips;
        Alcotest.test_case "bug vs injected fault" `Quick test_guard_distinguishes_bug_from_fault;
        Alcotest.test_case "stall budget" `Quick test_guard_stall_budget;
        Alcotest.test_case "unsafe proposal + clamp-only" `Quick test_guard_unsafe_and_clamp_only;
        Alcotest.test_case "window expiry" `Quick test_guard_window_expiry;
        Alcotest.test_case "breaker validated" `Quick test_guard_validate;
      ] );
    ( "chaos.faults",
      [
        Alcotest.test_case "no-fault cell is clean" `Quick test_chaos_no_fault_clean;
        Alcotest.test_case "hook-exception trips the breaker" `Quick test_chaos_hook_exception;
        Alcotest.test_case "hook-stall trips the breaker" `Quick test_chaos_hook_stall;
        Alcotest.test_case "policy-failure falls back" `Quick test_chaos_policy_failure;
        Alcotest.test_case "cpu-overload trips cpu-backlog-bound" `Quick test_chaos_cpu_overload;
        Alcotest.test_case "pacer-jump trips progress-stall" `Quick test_chaos_pacer_jump;
        Alcotest.test_case "qdisc-collapse trips qdisc-backlog-bound" `Quick
          test_chaos_qdisc_collapse;
        Alcotest.test_case "every kind reaches the stack" `Quick test_chaos_every_kind_armed;
      ] );
    ( "chaos.scenarios",
      [
        Alcotest.test_case "smoke: cubic x every kind" `Quick test_smoke_scenarios;
        Alcotest.test_case "full: three ccas x every kind" `Quick test_default_scenarios;
        Alcotest.test_case "names" `Quick test_scenario_names;
      ] );
    ( "chaos.determinism",
      [
        Alcotest.test_case "sweep jobs-invariant" `Quick test_chaos_sweep_jobs_invariant;
        Alcotest.test_case "cell seed keyed by scenario" `Quick
          test_chaos_cell_seed_keyed_by_scenario;
        Alcotest.test_case "shrink deterministic" `Quick test_chaos_shrink_deterministic;
      ] );
    ( "chaos.monitor",
      [
        Alcotest.test_case "stores 200, counts all" `Quick test_monitor_storage_cap;
        Alcotest.test_case "cpu backlog bound 0.5 s" `Quick test_monitor_cpu_bound;
        Alcotest.test_case "progress stall bound 0.5 s" `Quick test_monitor_progress_bound;
      ] );
    ( "chaos.canary",
      [
        Alcotest.test_case "clean store passes" `Quick test_store_canary_clean;
        Alcotest.test_case "poisoned payloads detected" `Quick test_store_canary_detects_poisoning;
        Alcotest.test_case "sampling deterministic" `Quick test_store_canary_sampling_deterministic;
      ] );
  ]
