module Engine = Stob_sim.Engine
module Cpu = Stob_sim.Cpu
module Fault = Stob_sim.Fault
module Units = Stob_util.Units
module Endpoint = Stob_tcp.Endpoint
module Connection = Stob_tcp.Connection
module Path = Stob_tcp.Path
module Qdisc = Stob_tcp.Qdisc
module Hooks = Stob_tcp.Hooks
module Cpu_costs = Stob_tcp.Cpu_costs
module Policy = Stob_core.Policy
module Policy_table = Stob_core.Policy_table
module Controller = Stob_core.Controller
module Strategies = Stob_core.Strategies

type scenario = { cca : string; fault : Fault.kind option; fanout : int }

let fault_name s = match s.fault with None -> "no-fault" | Some k -> Fault.kind_name k
let scenario_name s = Printf.sprintf "%s/%s/fanout%d/degrade" s.cca (fault_name s) s.fanout

type degradation_summary = {
  final_rung : string;
  trips : int;
  decisions : int;
  fallbacks : int;
  injected : int;
  stalls : int;
  hook_exceptions : int;
  unsafe_proposals : int;
}

type report = {
  scenario : scenario;
  seed : int;
  completed : bool;  (** Every connection of the workload opened and closed. *)
  crashed : string option;  (** Exception that escaped the simulation, if any. *)
  livelock : bool;
  total_violations : int;
  violation_counts : (string * int) list;
  degradation : degradation_summary;
  policy_fallbacks : int;  (** Policy-table lookups that failed and fell back. *)
  client_received : int;
  fault_events : int;
  finish_time : float;
  pending_events : int;
}

let rung_rank = function
  | Controller.Full_policy -> 0
  | Controller.Clamp_only -> 1
  | Controller.Passthrough -> 2

let summarize_degradation reports =
  let worst =
    List.fold_left
      (fun acc (r : Controller.degradation_report) ->
        if rung_rank r.Controller.rung > rung_rank acc then r.Controller.rung else acc)
      Controller.Full_policy reports
  in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 reports in
  {
    final_rung = Controller.rung_name worst;
    trips = sum (fun r -> List.length r.Controller.trips);
    decisions = sum (fun r -> r.Controller.decisions);
    fallbacks = sum (fun r -> r.Controller.fallbacks);
    injected = sum (fun r -> r.Controller.injected_faults);
    stalls = sum (fun r -> r.Controller.stalls);
    hook_exceptions = sum (fun r -> r.Controller.hook_exceptions);
    unsafe_proposals = sum (fun r -> r.Controller.unsafe_proposals);
  }

(* ------------------------------------------------------------------ *)
(* One chaos cell.                                                      *)

(* The cell's fixed conditions: a 20 Mb/s path with 15 ms one-way delay,
   2 KB requests and 400 KB responses, faults drawn inside the first second
   (the thick of the transfer) with 2 events per kind, and a 60 s run
   horizon. *)
let rate_bps = Units.mbps 20.0
let delay = 0.015
let horizon = 60.0
let request = 2_000
let response = 400_000

let drawn_plan ~seed scenario =
  Fault.plan
    { Fault.kinds = Option.to_list scenario.fault; events_per_kind = 2; horizon = 1.0; seed }

let run_cell ?plan ~seed scenario =
  let engine = Engine.create () in
  (* A chaos run must never hang the battery: zero-delay rescheduling bugs
     become a Livelock we translate into a violation below. *)
  Engine.set_same_instant_budget engine 200_000;
  let monitor = Monitor.create engine in
  let path = Path.create ~engine ~rate_bps ~delay ~queue_capacity:(256 * 1024) ~server_fq:true () in
  let cpu = Cpu.create engine in
  let costs = Cpu_costs.default_server in
  let cc = Connection.cc_of_name scenario.cca in
  (* The defended policy under test: split + delay, the paper's "Combined". *)
  let table = Policy_table.create () in
  Policy_table.set_global table (Strategies.stack_combined ());
  (* --- fault surfaces, toggled by the armed plan --- *)
  let hook_fail = ref false in
  let hook_stall = ref 0.0 in
  let policy_fail = ref false in
  let qdisc_saved_limit = ref None in
  let conns = ref [] in
  let policy_fallbacks = ref 0 in
  let fault_plan = match plan with Some p -> p | None -> drawn_plan ~seed scenario in
  let apply (ev : Fault.event) =
    match ev.Fault.kind with
    | Fault.Hook_exception -> hook_fail := true
    | Fault.Hook_stall -> hook_stall := ev.Fault.magnitude
    | Fault.Policy_failure -> policy_fail := true
    | Fault.Cpu_overload -> Cpu.set_overload cpu ev.Fault.magnitude
    | Fault.Pacer_jump ->
        List.iter
          (fun c -> Endpoint.inject_pacer_jump (Connection.server c) ev.Fault.magnitude)
          !conns
    | Fault.Qdisc_collapse -> (
        match Path.server_qdisc path with
        | None -> ()
        | Some q ->
            if !qdisc_saved_limit = None then qdisc_saved_limit := Some (Qdisc.limit_bytes q);
            Qdisc.set_limit_bytes q (int_of_float ev.Fault.magnitude))
  in
  let revert (ev : Fault.event) =
    match ev.Fault.kind with
    | Fault.Hook_exception -> hook_fail := false
    | Fault.Hook_stall -> hook_stall := 0.0
    | Fault.Policy_failure -> policy_fail := false
    | Fault.Cpu_overload -> Cpu.set_overload cpu 1.0
    | Fault.Pacer_jump -> ()
    | Fault.Qdisc_collapse -> (
        match (Path.server_qdisc path, !qdisc_saved_limit) with
        | Some q, Some limit -> Qdisc.set_limit_bytes q limit
        | _ -> ())
  in
  Fault.arm ~engine ~apply ~revert fault_plan;
  (* --- monitored components --- *)
  (match Path.server_qdisc path with
  | Some q -> Monitor.watch_qdisc monitor ~name:"server-fq" q
  | None -> ());
  Monitor.watch_cpu monitor ~name:"server-core" cpu;
  (* --- workload --- *)
  let expected = Int.max 1 scenario.fanout in
  let exchanges = ref [] in
  let created = ref 0 in
  let guard_reports = ref [] in
  let attach_controller flow =
    (* The Policy_failure fault surfaces here: a failed lookup raises
       [Fault.Injected]; the harness degrades that flow to an unmodified
       policy rather than refusing the connection. *)
    try
      if !policy_fail then
        raise (Fault.Injected { kind = Fault.Policy_failure; at = Engine.now engine });
      Policy_table.attach table ~seed:flow flow
    with Fault.Injected _ ->
      incr policy_fallbacks;
      Controller.create ~seed:flow Policy.unmodified
  in
  let rec start_conn i =
    if i < expected then begin
      let flow = i + 1 in
      created := !created + 1;
      let conn = Connection.create ~engine ~path ~flow ~cc ~server_cpu:(cpu, costs) () in
      conns := !conns @ [ conn ];
      let client = Connection.client conn and server = Connection.server conn in
      let ctrl = attach_controller flow in
      let base = Controller.hooks ctrl in
      let faulty =
        {
          Hooks.on_segment =
            (fun ~now ~flow ~phase d ->
              if !hook_fail then raise (Fault.Injected { kind = Fault.Hook_exception; at = now });
              base.Hooks.on_segment ~now ~flow ~phase d);
        }
      in
      let guarded, report = Controller.guard ~latency:(fun ~now:_ -> !hook_stall) faulty in
      guard_reports := !guard_reports @ [ report ];
      Endpoint.set_hooks server guarded;
      Monitor.observe_endpoint monitor ~name:(Printf.sprintf "server-%d" flow) server;
      exchanges :=
        Connection.request_response ~engine ~client ~server ~request ~response :: !exchanges;
      Connection.open_ conn;
      Engine.schedule engine ~delay:0.3 (fun () -> start_conn (i + 1))
    end
  in
  (* Progress watch over the whole workload: packets keep flowing (or
     connections keep opening) until everything is closed. *)
  Monitor.watch_progress monitor ~name:"workload"
    ~pending:(fun () ->
      !created < expected
      || List.exists
           (fun c ->
             not (Endpoint.closed (Connection.client c) && Endpoint.closed (Connection.server c)))
           !conns)
    ~activity:(fun () ->
      List.fold_left
        (fun acc c ->
          acc
          + Endpoint.packets_sent (Connection.client c)
          + Endpoint.packets_sent (Connection.server c))
        !created !conns);
  Monitor.attach_engine monitor;
  start_conn 0;
  let crashed = ref None in
  let livelock = ref false in
  (try Engine.run ~until:horizon engine with
  | Engine.Livelock { time; events } ->
      livelock := true;
      Monitor.record monitor
        (Violation.make ~invariant:"engine-livelock" ~time
           (Printf.sprintf "%d consecutive events without clock advance" events))
  | e -> crashed := Some (Printexc.to_string e));
  Monitor.check_now monitor ~now:(Engine.now engine);
  let drained = Engine.pending engine = 0 && !crashed = None && not !livelock in
  Monitor.check_rtx_oracle monitor ~capture:(Path.capture path)
    ~retransmissions:
      (List.fold_left
         (fun acc c ->
           acc
           + Endpoint.retransmissions (Connection.client c)
           + Endpoint.retransmissions (Connection.server c))
         0 !conns)
    ~drops:(Path.drops path) ~drained;
  Monitor.detach_engine monitor;
  let completed =
    !crashed = None && !created = expected
    && List.for_all
         (fun c -> Endpoint.closed (Connection.client c) && Endpoint.closed (Connection.server c))
         !conns
  in
  {
    scenario;
    seed;
    completed;
    crashed = !crashed;
    livelock = !livelock;
    total_violations = Monitor.total monitor;
    violation_counts = Monitor.counts monitor;
    degradation = summarize_degradation (List.map (fun r -> r ()) !guard_reports);
    policy_fallbacks = !policy_fallbacks;
    client_received =
      List.fold_left (fun acc x -> acc + x.Connection.client_received) 0 !exchanges;
    fault_events = List.length fault_plan;
    finish_time =
      List.fold_left (fun acc x -> Float.max acc x.Connection.last_activity) 0.0 !exchanges;
    pending_events = Engine.pending engine;
  }

(* ------------------------------------------------------------------ *)
(* Sweep, gate and shrinking.                                           *)

let all_fault_options () = None :: List.map (fun k -> Some k) Fault.all_kinds

let default_scenarios () =
  List.concat_map
    (fun (cca, _) ->
      List.map (fun fault -> { cca; fault; fanout = 3 })
        (all_fault_options ()))
    Connection.ccas

let smoke_scenarios () =
  List.map (fun fault -> { cca = "cubic"; fault; fanout = 2 })
    (all_fault_options ())

(* A cell's seed is keyed by what the cell runs, not by its place in the
   list: 62 bits of the MD5 of the sweep seed, the CCA and the fault kind.
   So a subset, a reordering or a longer list keeps every cell's row, and
   no draw is shared between tasks. *)
let cell_seed ~seed s =
  let d = Digest.string (Printf.sprintf "%d/%s/%s" seed s.cca (fault_name s)) in
  Int64.to_int (String.get_int64_le d 0) land max_int

let run_sweep ?(pool = Stob_par.Pool.sequential) ~seed scenarios =
  Array.to_list
    (Stob_par.Pool.map pool
       (fun s -> run_cell ~seed:(cell_seed ~seed s) s)
       (Array.of_list scenarios))

let survived r =
  (* The gate a degradation-enabled cell must pass: the page load finishes
     and nothing escapes.  Tripped invariants are NOT failures here — for a
     fault cell they are the monitor doing its job. *)
  r.crashed = None && (not r.livelock) && r.completed

let clean r = survived r && r.total_violations = 0

let shrink ~failed ~seed scenario =
  let run plan = run_cell ~plan ~seed scenario in
  let full_plan = drawn_plan ~seed scenario in
  if not (failed (run full_plan)) then None
  else begin
    (* Smallest prefix of the time-sorted plan that still fails.  Linear
       scan from the front keeps the result canonical: the answer is the
       earliest fault event that matters, not an arbitrary local minimum. *)
    let arr = Array.of_list full_plan in
    let rec find k =
      if k > Array.length arr then Array.length arr
      else begin
        let prefix = Array.to_list (Array.sub arr 0 k) in
        if failed (run prefix) then k else find (k + 1)
      end
    in
    let k = find 0 in
    let prefix = Array.to_list (Array.sub arr 0 (Int.min k (Array.length arr))) in
    Some (k, prefix, run prefix)
  end

(* ------------------------------------------------------------------ *)
(* Reporting.                                                           *)

let pp_report ppf r =
  Format.fprintf ppf "%-40s %-5s %-8s viol=%-3d%s%s rx=%-7d t=%7.3fs fev=%d"
    (scenario_name r.scenario)
    (if r.completed then "ok" else "FAIL")
    (match r.crashed with
    | Some _ -> "CRASH"
    | None -> if r.livelock then "LIVELOCK" else "-")
    r.total_violations
    (match r.violation_counts with
    | [] -> ""
    | counts ->
        " ["
        ^ String.concat ","
            (List.map (fun (name, n) -> Printf.sprintf "%s:%d" name n) counts)
        ^ "]")
    (let d = r.degradation in
     Printf.sprintf " rung=%s trips=%d fallbacks=%d%s" d.final_rung d.trips d.fallbacks
       (if r.policy_fallbacks > 0 then Printf.sprintf " pfb=%d" r.policy_fallbacks else ""))
    r.client_received r.finish_time r.fault_events

let print_sweep results =
  List.iter (fun r -> Format.printf "%a@." pp_report r) results;
  let surv = List.length (List.filter survived results) in
  Format.printf "%d/%d cells survived (completed, no crash/livelock)@." surv
    (List.length results)
