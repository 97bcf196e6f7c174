module Engine = Stob_sim.Engine
module Cpu = Stob_sim.Cpu
module Endpoint = Stob_tcp.Endpoint
module Hooks = Stob_tcp.Hooks
module Qdisc = Stob_tcp.Qdisc
module Config = Stob_tcp.Config
module Capture = Stob_net.Capture
module Safety = Stob_core.Safety

(* A registered invariant: [check ~now] returns [Some detail] while the
   invariant is violated.  Checks are edge-triggered — a violation is
   recorded when the invariant transitions from holding to failing, not on
   every event while it keeps failing — so a single broken component does
   not flood the report. *)
type watch = { w_name : string; check : now:float -> string option; mutable failing : bool }

type t = {
  engine : Engine.t;
  mutable stored : Violation.t list;  (* newest first *)
  mutable total : int;
  counts : (string, int) Hashtbl.t;
  mutable watches : watch list;  (* registration order preserved via rev *)
  mutable last_now : float;
  mutable attached : bool;
}

(* Violations kept for the report; [total] keeps counting past the cap. *)
let max_stored = 200

let create engine =
  {
    engine;
    stored = [];
    total = 0;
    counts = Hashtbl.create 16;
    watches = [];
    last_now = Engine.now engine;
    attached = false;
  }

let total t = t.total

let record t v =
  t.total <- t.total + 1;
  Hashtbl.replace t.counts v.Violation.invariant
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.counts v.Violation.invariant));
  if List.length t.stored < max_stored then t.stored <- v :: t.stored

let violations t = List.rev t.stored

let counts t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.counts []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let register t ~name check = t.watches <- { w_name = name; check; failing = false } :: t.watches

let run_watch t ~now w =
  match w.check ~now with
  | None -> w.failing <- false
  | Some detail ->
      if not w.failing then begin
        w.failing <- true;
        record t (Violation.make ~invariant:w.w_name ~time:now detail)
      end

let check_now t ~now = List.iter (run_watch t ~now) (List.rev t.watches)

(* ------------------------------------------------------------------ *)
(* Engine probe: clock sanity plus all registered watches.              *)

let attach_engine t =
  if t.attached then invalid_arg "Monitor.attach_engine: already attached";
  t.attached <- true;
  t.last_now <- Engine.now t.engine;
  Engine.set_probe t.engine (fun ~now ->
      if now < t.last_now then
        record t
          (Violation.make ~invariant:"engine-clock-monotone" ~time:now
             (Printf.sprintf "clock moved backwards: %.9f -> %.9f" t.last_now now));
      t.last_now <- Float.max t.last_now now;
      check_now t ~now)

let detach_engine t =
  if t.attached then begin
    t.attached <- false;
    Engine.clear_probe t.engine
  end

(* ------------------------------------------------------------------ *)
(* Component watches.                                                   *)

let watch_qdisc t ~name q =
  register t ~name:"qdisc-backlog-bound" (fun ~now:_ ->
      let backlog = Qdisc.backlog_bytes q and limit = Qdisc.limit_bytes q in
      if backlog > limit then
        Some (Printf.sprintf "%s: backlog %d B exceeds limit %d B" name backlog limit)
      else None)

let watch_cpu t ~name cpu =
  let backlog_bound = 0.5 in
  register t ~name:"cpu-backlog-bound" (fun ~now ->
      let lead = Cpu.busy_until cpu -. now in
      if lead > backlog_bound then
        Some
          (Printf.sprintf "%s: core booked %.4f s ahead (bound %.4f s, queue depth %d)" name lead
             backlog_bound (Cpu.queue_depth cpu))
      else None)

(* Progress watch.  The check must fire even though the stalled period
   itself contains no events (the probe only runs on events): at each
   event we first ask whether the gap since the last activity change
   exceeds the bound *while work was pending*, and only then credit any
   new activity.  Otherwise the event that ends a stall would also hide
   it. *)
let watch_progress t ~name ~pending ~activity =
  let stall = 0.5 in
  let last_activity = ref (activity ()) in
  let last_change = ref (Engine.now t.engine) in
  let was_pending = ref (pending ()) in
  register t ~name:"progress-stall" (fun ~now ->
      let a = activity () in
      let stalled = !was_pending && now -. !last_change > stall in
      let detail =
        if stalled then
          Some
            (Printf.sprintf "%s: no progress for %.4f s (bound %.4f s) with work pending" name
               (now -. !last_change) stall)
        else None
      in
      if a <> !last_activity then begin
        last_activity := a;
        last_change := now
      end;
      was_pending := pending ();
      detail)

(* Durability watch: edge-triggers when a result store drops to
   journaling-off "completion over durability" mode (a journal error past
   the bounded retry budget, e.g. persistent ENOSPC).  The sweep keeps
   running to its artifact; the violation marks that artifact as
   non-resumable-without-recompute — EXPERIMENTS.md excludes such runs
   from parity claims. *)
let watch_store t ~name store =
  register t ~name:"store-durability-degraded" (fun ~now:_ ->
      match Stob_store.Store.degraded store with
      | Some reason -> Some (name ^ ": " ^ reason)
      | None -> None)

(* ------------------------------------------------------------------ *)
(* Endpoint invariants, checked at the hook boundary.                   *)

let check_inspection ~config (i : Endpoint.inspection) =
  if i.Endpoint.snd_una > i.snd_nxt then
    Some
      ( "tcp-seq-order",
        Printf.sprintf "snd_una %d > snd_nxt %d (inflight %d)" i.snd_una i.snd_nxt i.inflight )
  else if i.cwnd < 1 then Some ("tcp-cwnd-bounds", Printf.sprintf "cwnd %d < 1" i.cwnd)
  else if
    i.cwnd > max config.Config.snd_buf config.Config.rcv_wnd
  then
    Some
      ( "tcp-cwnd-bounds",
        Printf.sprintf "cwnd %d exceeds buffer bound %d" i.cwnd
          (max config.Config.snd_buf config.Config.rcv_wnd) )
  else if i.in_stack < 0 then Some ("tcp-tsq-accounting", Printf.sprintf "in_stack %d < 0" i.in_stack)
  else if i.app_queue < 0 then
    Some ("tcp-app-queue", Printf.sprintf "app_queue %d < 0" i.app_queue)
  else if i.adv_wnd < 0 then Some ("tcp-adv-window", Printf.sprintf "adv_wnd %d < 0" i.adv_wnd)
  else if i.adv_wnd + i.rcv_buffered > i.rcv_capacity then
    (* The window granted to the peer plus data already delivered-but-unread
       must fit the receive buffer, or the advertisement promises space the
       receiver does not have. *)
    Some
      ( "tcp-adv-window",
        Printf.sprintf "advertised window %d + buffered %d exceeds buffer %d" i.adv_wnd
          i.rcv_buffered i.rcv_capacity )
  else if i.peer_rwnd < 0 then
    Some ("tcp-peer-window", Printf.sprintf "decoded peer window %d < 0" i.peer_rwnd)
  else begin
    (* SACK sanity: sorted, disjoint, non-empty blocks inside (snd_una, snd_nxt]. *)
    let rec sack_bad prev_hi = function
      | [] -> None
      | (lo, hi) :: rest ->
          if hi <= lo then Some (Printf.sprintf "empty SACK block [%d, %d)" lo hi)
          else if lo < prev_hi then
            Some (Printf.sprintf "overlapping/unsorted SACK block [%d, %d) after hi %d" lo hi prev_hi)
          else if lo < i.snd_una || hi > i.snd_nxt then
            Some
              (Printf.sprintf "SACK block [%d, %d) outside [snd_una %d, snd_nxt %d]" lo hi i.snd_una
                 i.snd_nxt)
          else sack_bad hi rest
    in
    match sack_bad i.snd_una i.sacked with
    | Some d -> Some ("tcp-sack-sanity", d)
    | None ->
        if i.in_recovery && (i.rtx_next < i.snd_una - 1 || i.recover_point > i.snd_nxt) then
          Some
            ( "tcp-recovery-window",
              Printf.sprintf "rtx_next %d / recover_point %d outside [snd_una %d, snd_nxt %d]"
                i.rtx_next i.recover_point i.snd_una i.snd_nxt )
        else None
  end

(* Wrap an endpoint's installed hook chain with observe-only checks:
   endpoint-state invariants before the decision, pacing-horizon
   monotonicity across decisions, and the Section 4.2 safety predicate on
   whatever the chain answers.  Exceptions from the chain pass through
   untouched — whether a fault escapes or is absorbed is the degradation
   ladder's business, not the monitor's. *)
let observe_endpoint t ~name ep =
  let config = Endpoint.config ep in
  let inner = Endpoint.hooks ep in
  let last_horizon = ref neg_infinity in
  let on_segment ~now ~flow ~phase (d : Hooks.decision) =
    let i = Endpoint.inspect ep in
    (match check_inspection ~config i with
    | Some (invariant, detail) ->
        record t (Violation.make ~invariant ~time:now ~flow (name ^ ": " ^ detail))
    | None -> ());
    (* Sender window respect, checked at commitment time: the stack may
       never propose a segment that pushes snd_nxt past
       snd_una + min(cwnd, peer window).  (Persist probes and
       retransmissions bypass the hook, so they cannot false-positive
       here.) *)
    let usable = max 0 (min i.Endpoint.cwnd i.Endpoint.peer_rwnd - i.Endpoint.inflight) in
    if d.Hooks.tso_bytes > usable then
      record t
        (Violation.make ~invariant:"tcp-window-respect" ~time:now ~flow
           (Printf.sprintf
              "%s: stack proposed %d bytes with only %d usable (cwnd %d, peer_rwnd %d, inflight %d)"
              name d.Hooks.tso_bytes usable i.Endpoint.cwnd i.Endpoint.peer_rwnd
              i.Endpoint.inflight));
    if i.Endpoint.pacer_next_free < !last_horizon then
      record t
        (Violation.make ~invariant:"tcp-pacing-monotone" ~time:now ~flow
           (Printf.sprintf "%s: pacing horizon moved backwards: %.9f -> %.9f" name !last_horizon
              i.Endpoint.pacer_next_free));
    last_horizon := Float.max !last_horizon i.Endpoint.pacer_next_free;
    if d.Hooks.earliest_departure < now -. 1e-9 then
      record t
        (Violation.make ~invariant:"tcp-stack-departure" ~time:now ~flow
           (Printf.sprintf "%s: stack proposed departure %.9f in the past (now %.9f)" name
              d.Hooks.earliest_departure now));
    let result = inner.Hooks.on_segment ~now ~flow ~phase d in
    if not (Safety.is_safe ~stack:d result) then
      record t
        (Violation.make ~invariant:"defense-safety" ~time:now ~flow
           (Printf.sprintf
              "%s: hook answer (tso %d, payload %d, dep %.9f) more aggressive than stack (tso %d, \
               payload %d, dep %.9f)"
              name result.Hooks.tso_bytes result.Hooks.packet_payload
              result.Hooks.earliest_departure d.Hooks.tso_bytes d.Hooks.packet_payload
              d.Hooks.earliest_departure));
    result
  in
  Endpoint.set_hooks ep { Hooks.on_segment }

(* ------------------------------------------------------------------ *)
(* QUIC endpoint invariants.                                            *)

module Quic = Stob_quic.Endpoint

(* Pure state checks over a QUIC inspection snapshot; shared between the
   hook observer below and the soak's reap-time sweep.  Returns the first
   failing (invariant, detail) pair. *)
let check_quic_inspection (i : Quic.inspection) =
  if i.Quic.largest_acked >= i.pn_next then
    (* The peer acknowledged a packet number we never sent. *)
    Some
      ( "quic-ack-sanity",
        Printf.sprintf "largest_acked %d >= pn_next %d (ack of unsent)" i.Quic.largest_acked
          i.pn_next )
  else if i.inflight < 0 then
    Some ("quic-inflight-accounting", Printf.sprintf "inflight %d < 0" i.inflight)
  else if i.inflight <> i.unacked_bytes then
    Some
      ( "quic-inflight-accounting",
        Printf.sprintf "inflight ledger %d B != %d B across %d unacked packets" i.inflight
          i.unacked_bytes i.unacked_packets )
  else if i.active_streams <> i.pending_streams then
    let ids l = String.concat "," (List.map string_of_int l) in
    Some
      ( "quic-sender-index",
        Printf.sprintf "active-stream index [%s] != streams with data to send [%s]"
          (ids i.active_streams) (ids i.pending_streams) )
  else if i.low_water > i.lowest_unacked then
    Some
      ( "quic-sender-index",
        Printf.sprintf "low-water mark %d above outstanding packet %d" i.low_water
          i.lowest_unacked )
  else if i.unindexed_holes <> [] then
    Some
      ( "quic-sender-index",
        Printf.sprintf "outstanding packets [%s] below the hole-index edge missing from the index"
          (String.concat "," (List.map string_of_int i.unindexed_holes)) )
  else if i.amp_credit < 0 then
    Some
      ( "quic-amplification",
        Printf.sprintf "amplification credit %d B negative (sent %d B, received %d B)"
          i.amp_credit i.bytes_sent i.bytes_received )
  else if i.closed && i.idle_armed then
    Some ("quic-quiesce", "closed endpoint still has its idle timer armed")
  else if i.cwnd < 1 then Some ("quic-cwnd-bounds", Printf.sprintf "cwnd %d < 1" i.cwnd)
  else None

(* QUIC analogue of [observe_endpoint]: wrap the installed hook chain with
   observe-only checks — state invariants, packet-number monotonicity
   across decisions, and the safety predicate on the chain's answer. *)
let observe_quic t ~name ep =
  let inner = Quic.hooks ep in
  let last_pn = ref (-1) in
  let on_segment ~now ~flow ~phase (d : Hooks.decision) =
    let i = Quic.inspect ep in
    (match check_quic_inspection i with
    | Some (invariant, detail) ->
        record t (Violation.make ~invariant ~time:now ~flow (name ^ ": " ^ detail))
    | None -> ());
    if i.Quic.pn_next < !last_pn then
      record t
        (Violation.make ~invariant:"quic-pn-monotonic" ~time:now ~flow
           (Printf.sprintf "%s: packet number sequence moved backwards: %d -> %d" name !last_pn
              i.Quic.pn_next));
    last_pn := max !last_pn i.Quic.pn_next;
    let result = inner.Hooks.on_segment ~now ~flow ~phase d in
    if not (Safety.is_safe ~stack:d result) then
      record t
        (Violation.make ~invariant:"defense-safety" ~time:now ~flow
           (Printf.sprintf
              "%s: hook answer (tso %d, payload %d, dep %.9f) more aggressive than stack (tso %d, \
               payload %d, dep %.9f)"
              name result.Hooks.tso_bytes result.Hooks.packet_payload
              result.Hooks.earliest_departure d.Hooks.tso_bytes d.Hooks.packet_payload
              d.Hooks.earliest_departure));
    result
  in
  Quic.set_hooks ep { Hooks.on_segment }

(* ------------------------------------------------------------------ *)
(* End-of-run oracle checks.                                            *)

let check_rtx_oracle t ~capture ~endpoints ~drops ~drained =
  if drops = 0 && drained then begin
    let counted = List.fold_left (fun acc ep -> acc + Endpoint.retransmissions ep) 0 endpoints in
    let captured = Capture.rtx_count capture in
    if counted <> captured then
      record t
        (Violation.make ~invariant:"rtx-oracle-agreement" ~time:(Engine.now t.engine)
           (Printf.sprintf "endpoints count %d retransmissions, capture saw %d marked packets"
              counted captured))
  end

(* QUIC variant: datagrams carrying a retransmitted stream chunk are marked
   [rtx] on the wire, so the capture's count must equal the endpoints'
   [rtx_datagrams].  The capture taps the link before netem impairment, so
   the check also holds under netem loss — only bottleneck-queue [drops]
   (which happen before the tap) disqualify the comparison. *)
let check_quic_rtx_oracle t ~capture ~endpoints ~drops ~drained =
  if drops = 0 && drained then begin
    let counted = List.fold_left (fun acc ep -> acc + Quic.rtx_datagrams ep) 0 endpoints in
    let captured = Capture.rtx_count capture in
    if counted <> captured then
      record t
        (Violation.make ~invariant:"rtx-oracle-agreement" ~time:(Engine.now t.engine)
           (Printf.sprintf
              "QUIC endpoints count %d rtx datagrams, capture saw %d marked packets" counted
              captured))
  end

(* Cache-poisoning canary: a sampled subset of a finished sweep's journal
   records is recomputed from scratch and compared byte-for-byte against
   the journaled payloads.  Any disagreement means the result cache would
   have silently served a wrong value on resume — exactly the failure the
   chaos battery must surface. *)
let check_store_canary t ~sample ~seed ~entries ~recompute =
  if sample < 1 then invalid_arg "Monitor.check_store_canary: sample must be >= 1";
  let entries = Array.of_list entries in
  let n = Array.length entries in
  let chosen =
    if sample >= n then Array.init n Fun.id
    else Stob_util.Rng.sample_without_replacement (Stob_util.Rng.create seed) sample n
  in
  Array.iter
    (fun i ->
      let label, payload = entries.(i) in
      let disagree detail =
        record t
          (Violation.make ~invariant:"store-replay-agreement" ~time:(Engine.now t.engine)
             detail)
      in
      match recompute label with
      | None -> disagree (Printf.sprintf "%s: journaled cell could not be recomputed" label)
      | Some fresh when not (String.equal fresh payload) ->
          disagree
            (Printf.sprintf
               "%s: journal payload (%d B) differs from fresh recomputation (%d B)" label
               (String.length payload) (String.length fresh))
      | Some _ -> ())
    chosen
