module Hooks = Stob_tcp.Hooks

type stats = { segments : int; modified : int; added_delay : float; stood_down : int }

type t = {
  policy : Policy.t;
  rng : Stob_util.Rng.t;
  mutable size_step : int;  (* position in a Cycle_reduction *)
  mutable tso_step : int;  (* position in a Cycle_tso_reduction *)
  mutable last_release : float option;
  mutable segments : int;
  mutable modified : int;
  mutable added_delay : float;
  mutable stood_down : int;
}

let create ?(seed = 0) policy =
  (match Policy.validate policy with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Controller.create: invalid policy: " ^ msg));
  {
    policy;
    rng = Stob_util.Rng.create seed;
    size_step = 0;
    tso_step = 0;
    last_release = None;
    segments = 0;
    modified = 0;
    added_delay = 0.0;
    stood_down = 0;
  }

let apply_size t ~stack_payload =
  match t.policy.Policy.size with
  | Policy.Default_size -> stack_payload
  | Policy.Fixed_payload n -> Int.min n stack_payload
  | Policy.Split_above threshold ->
      let wire = stack_payload + Stob_net.Packet.default_header_bytes in
      if wire > threshold then (stack_payload + 1) / 2 else stack_payload
  | Policy.Cycle_reduction { step; max_steps } ->
      let k = t.size_step in
      t.size_step <- (if k >= max_steps then 0 else k + 1);
      Int.max 1 (stack_payload - (step * k))
  | Policy.Sampled_size h ->
      Int.min stack_payload (Int.max 1 (int_of_float (Stob_util.Histogram.sample h t.rng)))

let apply_tso t ~stack_tso ~payload =
  let stack_packets = Int.max 1 (stack_tso / Int.max 1 payload) in
  match t.policy.Policy.tso with
  | Policy.Default_tso -> stack_tso
  | Policy.Fixed_tso_packets n -> Int.min stack_tso (Int.max 1 (Int.min n stack_packets) * payload)
  | Policy.Single_packet_tso -> Int.min stack_tso payload
  | Policy.Cycle_tso_reduction { step; max_steps } ->
      let k = t.tso_step in
      t.tso_step <- (if k >= max_steps then 0 else k + 1);
      let packets = Int.max 1 (stack_packets - (step * k)) in
      Int.min stack_tso (packets * payload)

let apply_timing t ~now ~bytes ~stack_departure =
  ignore bytes;
  match t.policy.Policy.timing with
  | Policy.Default_timing -> stack_departure
  | Policy.Add_constant d -> stack_departure +. d
  | Policy.Add_uniform (lo, hi) -> stack_departure +. Stob_util.Rng.uniform t.rng lo hi
  | Policy.Stretch_gap (lo, hi) -> (
      (* The first segment has no predecessor: nothing to stretch. *)
      match t.last_release with
      | None -> stack_departure
      | Some last ->
          let gap = Float.max 0.0 (stack_departure -. last) in
          stack_departure +. (gap *. Stob_util.Rng.uniform t.rng lo hi))
  | Policy.Sampled_gap h -> (
      match t.last_release with
      | None -> stack_departure
      | Some last ->
          let gap = Stob_util.Histogram.sample h t.rng in
          Float.max stack_departure (last +. gap) |> Float.max now)
  | Policy.Pace_at rate -> (
      match t.last_release with
      | None -> stack_departure
      | Some last ->
          let gap = float_of_int (bytes * 8) /. rate in
          Float.max stack_departure (last +. gap))

let hooks t =
  {
    Hooks.on_segment =
      (fun ~now ~flow:_ ~phase (d : Hooks.decision) ->
        t.segments <- t.segments + 1;
        if List.memq phase t.policy.Policy.exempt_phases then begin
          t.stood_down <- t.stood_down + 1;
          t.last_release <-
            Some
              (Float.max
                 (Option.value ~default:neg_infinity t.last_release)
                 d.Hooks.earliest_departure);
          d
        end
        else begin
          let payload = apply_size t ~stack_payload:d.Hooks.packet_payload in
          let tso = apply_tso t ~stack_tso:d.Hooks.tso_bytes ~payload in
          let departure =
            apply_timing t ~now ~bytes:tso ~stack_departure:d.Hooks.earliest_departure
          in
          let result =
            { Hooks.tso_bytes = tso; packet_payload = payload; earliest_departure = departure }
          in
          (* Field by field; the float at type float, where IEEE [<>]
             agrees with the polymorphic compare on NaN and on -0.0. *)
          if
            tso <> d.Hooks.tso_bytes
            || payload <> d.Hooks.packet_payload
            || departure <> d.Hooks.earliest_departure
          then t.modified <- t.modified + 1;
          t.added_delay <- t.added_delay +. Float.max 0.0 (departure -. d.Hooks.earliest_departure);
          t.last_release <- Some (Float.max departure d.Hooks.earliest_departure);
          result
        end);
  }

let stats t =
  { segments = t.segments; modified = t.modified; added_delay = t.added_delay; stood_down = t.stood_down }

let policy t = t.policy

(* ------------------------------------------------------------------ *)
(* Graceful degradation: the fallback ladder and its circuit breaker.    *)

type rung = Full_policy | Clamp_only | Passthrough

let rung_name = function
  | Full_policy -> "full-policy"
  | Clamp_only -> "clamp-only"
  | Passthrough -> "passthrough"

type breaker = { trip_failures : int; window : float; stall_budget : float }

let default_breaker = { trip_failures = 3; window = 1.0; stall_budget = 0.05 }

type degradation_report = {
  rung : rung;
  decisions : int;
  full_policy_decisions : int;
  clamp_only_decisions : int;
  passthrough_decisions : int;
  hook_exceptions : int;
  injected_faults : int;
  stalls : int;
  fallbacks : int;
  unsafe_proposals : int;
  trips : (float * rung) list;
}

type guard_state = {
  breaker : breaker;
  latency : (now:float -> float) option;
  mutable g_rung : rung;
  mutable failures : float list;  (* newest first, within the sliding window *)
  mutable g_decisions : int;
  mutable g_full : int;
  mutable g_clamp : int;
  mutable g_pass : int;
  mutable g_exceptions : int;
  mutable g_injected : int;
  mutable g_stalls : int;
  mutable g_fallbacks : int;
  mutable g_unsafe : int;
  mutable g_trips : (float * rung) list;  (* newest first *)
}

let next_rung = function
  | Full_policy -> Clamp_only
  | Clamp_only | Passthrough -> Passthrough

(* Record one failure at [now]; trip to the next rung when the sliding
   window fills.  Tripping clears the window so each rung gets a fresh
   chance before the breaker escalates again. *)
let record_failure g ~now =
  g.failures <- now :: List.filter (fun t -> now -. t <= g.breaker.window) g.failures;
  if List.length g.failures >= g.breaker.trip_failures && g.g_rung <> Passthrough then begin
    g.g_rung <- next_rung g.g_rung;
    g.g_trips <- (now, g.g_rung) :: g.g_trips;
    g.failures <- []
  end

let guard ?(breaker = default_breaker) ?latency hooks =
  if breaker.trip_failures < 1 then invalid_arg "Controller.guard: trip_failures must be >= 1";
  if breaker.window <= 0.0 then invalid_arg "Controller.guard: window must be positive";
  if breaker.stall_budget < 0.0 then invalid_arg "Controller.guard: negative stall_budget";
  let g =
    {
      breaker;
      latency;
      g_rung = Full_policy;
      failures = [];
      g_decisions = 0;
      g_full = 0;
      g_clamp = 0;
      g_pass = 0;
      g_exceptions = 0;
      g_injected = 0;
      g_stalls = 0;
      g_fallbacks = 0;
      g_unsafe = 0;
      g_trips = [];
    }
  in
  let on_segment ~now ~flow ~phase (d : Hooks.decision) =
    g.g_decisions <- g.g_decisions + 1;
    match g.g_rung with
    | Passthrough ->
        (* Defense off: the hook is not even consulted. *)
        g.g_pass <- g.g_pass + 1;
        d
    | rung -> (
        (match rung with
        | Full_policy -> g.g_full <- g.g_full + 1
        | _ -> g.g_clamp <- g.g_clamp + 1);
        (* The stall budget models a watchdog on hook compute time: a
           consultation that would blow the budget is killed (the stack
           decision ships unmodified) and counts toward the breaker. *)
        let lat = match g.latency with None -> 0.0 | Some f -> f ~now in
        if lat > g.breaker.stall_budget then begin
          g.g_stalls <- g.g_stalls + 1;
          g.g_fallbacks <- g.g_fallbacks + 1;
          record_failure g ~now;
          d
        end
        else
          match hooks.Hooks.on_segment ~now ~flow ~phase d with
          | proposed ->
              if not (Safety.is_safe ~stack:d proposed) then begin
                (* The clamp corrects it below, but a policy that has to be
                   corrected is misbehaving: feed the breaker. *)
                g.g_unsafe <- g.g_unsafe + 1;
                record_failure g ~now
              end;
              let clamped = Hooks.clamp ~stack:d proposed in
              let result =
                match rung with
                | Full_policy ->
                    (* Hook compute time delays the departure — the safe
                       direction; never an earlier release. *)
                    if lat > 0.0 then
                      { clamped with Hooks.earliest_departure = clamped.Hooks.earliest_departure +. lat }
                    else clamped
                | Clamp_only | Passthrough ->
                    (* Clamp-only rung: size decisions survive, the timing
                       proposal is discarded (timing faults were what
                       tripped us off the full-policy rung). *)
                    { clamped with Hooks.earliest_departure = d.Hooks.earliest_departure }
              in
              result
          | exception Stob_sim.Fault.Injected _ ->
              g.g_injected <- g.g_injected + 1;
              g.g_fallbacks <- g.g_fallbacks + 1;
              record_failure g ~now;
              d
          | exception _ ->
              g.g_exceptions <- g.g_exceptions + 1;
              g.g_fallbacks <- g.g_fallbacks + 1;
              record_failure g ~now;
              d)
  in
  let report () =
    {
      rung = g.g_rung;
      decisions = g.g_decisions;
      full_policy_decisions = g.g_full;
      clamp_only_decisions = g.g_clamp;
      passthrough_decisions = g.g_pass;
      hook_exceptions = g.g_exceptions;
      injected_faults = g.g_injected;
      stalls = g.g_stalls;
      fallbacks = g.g_fallbacks;
      unsafe_proposals = g.g_unsafe;
      trips = List.rev g.g_trips;
    }
  in
  ({ Hooks.on_segment }, report)
