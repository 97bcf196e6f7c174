module Rng = Stob_util.Rng

type kind =
  | Hook_exception
  | Hook_stall
  | Policy_failure
  | Cpu_overload
  | Pacer_jump
  | Qdisc_collapse
  | Datagram_blackhole
  | Ack_delay_inflation
  | Handshake_stall

(* New kinds append at the END: the per-class RNG pre-split follows this
   order, so appending preserves every existing class's draw stream. *)
let all_kinds =
  [
    Hook_exception;
    Hook_stall;
    Policy_failure;
    Cpu_overload;
    Pacer_jump;
    Qdisc_collapse;
    Datagram_blackhole;
    Ack_delay_inflation;
    Handshake_stall;
  ]

let kind_name = function
  | Hook_exception -> "hook-exception"
  | Hook_stall -> "hook-stall"
  | Policy_failure -> "policy-failure"
  | Cpu_overload -> "cpu-overload"
  | Pacer_jump -> "pacer-jump"
  | Qdisc_collapse -> "qdisc-collapse"
  | Datagram_blackhole -> "datagram-blackhole"
  | Ack_delay_inflation -> "ack-delay-inflation"
  | Handshake_stall -> "handshake-stall"

let kind_of_name name =
  match List.find_opt (fun k -> kind_name k = name) all_kinds with
  | Some k -> k
  | None -> invalid_arg ("Fault.kind_of_name: unknown fault kind " ^ name)

exception Injected of { kind : kind; at : float }

let () =
  Printexc.register_printer (function
    | Injected { kind; at } ->
        Some (Printf.sprintf "Stob_sim.Fault.Injected { kind = %s; at = %g }" (kind_name kind) at)
    | _ -> None)

type event = { kind : kind; at : float; duration : float; magnitude : float }

type config = { kinds : kind list; events_per_kind : int; horizon : float; seed : int }

let validate cfg =
  if cfg.events_per_kind < 0 then invalid_arg "Fault: events_per_kind must be non-negative";
  if cfg.horizon <= 0.0 then invalid_arg "Fault: horizon must be positive"

(* Per-kind window/magnitude shapes.  Durations are fractions of the
   horizon so smoke-sized and full-sized scenarios stress comparably;
   magnitudes are chosen so a fault is {e loud} — it must reliably trip its
   invariant or breaker rung in the regression battery, not tickle it. *)
let draw_event rng ~kind ~horizon =
  (* Leave room at the end of the horizon for the fault to bite and the
     workload to recover. *)
  let at = Rng.uniform rng 0.005 (0.6 *. horizon) in
  let window lo hi = Rng.uniform rng (lo *. horizon) (hi *. horizon) in
  match kind with
  | Hook_exception -> { kind; at; duration = window 0.05 0.2; magnitude = 1.0 }
  | Hook_stall ->
      (* Magnitude: simulated hook compute latency, seconds. *)
      { kind; at; duration = window 0.05 0.2; magnitude = Rng.uniform rng 0.02 0.2 }
  | Policy_failure -> { kind; at; duration = window 0.2 0.5; magnitude = 1.0 }
  | Cpu_overload ->
      (* Magnitude: cost multiplier. *)
      { kind; at; duration = window 0.1 0.3; magnitude = Rng.uniform rng 2e3 2e4 }
  | Pacer_jump ->
      (* Point event; magnitude: forward jump of the pacing clock, seconds.
         Absolute, not horizon-scaled: it must dominate the monitor's
         progress-stall bound (0.5 s default) at any scenario size. *)
      { kind; at; duration = 0.0; magnitude = Rng.uniform rng 0.75 2.5 }
  | Qdisc_collapse ->
      (* Magnitude: collapsed capacity in bytes. *)
      { kind; at; duration = window 0.1 0.4; magnitude = float_of_int (Rng.int_in rng 1514 4542) }
  | Datagram_blackhole ->
      (* Every datagram in the window vanishes, both directions.  The
         window is bounded well below QUIC's 30 s idle timeout so a flow
         that survives the blackhole can still finish inside its horizon;
         recovery must come from PTO probes, not from the idle close. *)
      { kind; at; duration = window 0.02 0.12; magnitude = 1.0 }
  | Ack_delay_inflation ->
      (* Magnitude: extra one-way delay applied to ACK-carrying datagrams,
         seconds.  Inflates RTT samples and stresses the 9/8 time
         threshold's reordering tolerance. *)
      { kind; at; duration = window 0.1 0.3; magnitude = Rng.uniform rng 0.05 0.3 }
  | Handshake_stall ->
      (* Server handshake flight suppressed inside the window: the client
         sits in its Initial, probing.  Duration bounded so the handshake
         can still complete before the idle timeout. *)
      { kind; at; duration = window 0.05 0.25; magnitude = 1.0 }

let plan cfg =
  validate cfg;
  (* Pre-split-RNG rule: one generator per fault class, split from the
     master in the fixed [all_kinds] order, so enabling or re-ordering
     classes never perturbs another class's draws. *)
  let master = Rng.create cfg.seed in
  let events =
    List.concat_map
      (fun kind ->
        let rng = Rng.split master in
        if List.memq kind cfg.kinds then
          List.init cfg.events_per_kind (fun _ -> draw_event rng ~kind ~horizon:cfg.horizon)
        else [])
      all_kinds
  in
  (* Stable sort keeps the all_kinds order for simultaneous events. *)
  List.stable_sort (fun a b -> compare a.at b.at) events

let arm ~engine ~apply ~revert events =
  List.iter
    (fun ev ->
      ignore
        (Engine.schedule_at engine ~time:ev.at (fun () ->
             apply ev;
             if ev.duration > 0.0 then
               ignore (Engine.schedule engine ~delay:ev.duration (fun () -> revert ev)))))
    events

let pp_event fmt ev =
  Format.fprintf fmt "%s@%.3fs" (kind_name ev.kind) ev.at;
  if ev.duration > 0.0 then Format.fprintf fmt "+%.3fs" ev.duration;
  Format.fprintf fmt " x%g" ev.magnitude
