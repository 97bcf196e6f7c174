module Packet = Stob_net.Packet
module Engine = Stob_sim.Engine
module Config = Stob_tcp.Config
module Cc = Stob_tcp.Cc
module Rtt = Stob_tcp.Rtt
module Pacer = Stob_tcp.Pacer
module Hooks = Stob_tcp.Hooks

let mss = 1350 (* datagram payload budget *)
let header_bytes = 43 (* IP + UDP + QUIC short header *)
let default_config = { Config.default with Config.mss; header_bytes; tso_min_bytes = 2 * mss }

let crypto_stream = 0
let finished_stream = 2
let loss_threshold = 3
let max_ack_delay = 0.025
let initial_min_payload = 1200

(* RFC 9002 §6.1.2: time-threshold factor 9/8 and 1 ms timer granularity. *)
let time_threshold_num = 9.0
let time_threshold_den = 8.0
let granularity = 0.001

(* RFC 9002 §7.6.1: kPersistentCongestionThreshold. *)
let persistent_congestion_threshold = 3.0

(* Upper bound on the backed-off probe timeout, seconds.  The backoff
   multiplier doubles per PTO and resets on forward progress (RFC 9002
   §6.2); this caps the resulting interval. *)
let pto_max = 10.0

(* Close the connection after this many seconds with no activity (RFC
   9000 §10.1), quiescing every timer. *)
let idle_timeout = 30.0

(* Pre-handshake-confirmation anti-amplification limit: a server may send
   at most [amp_factor] times the bytes it has received from the
   unvalidated client address (RFC 9000 §8.1). *)
let amp_factor = 3

type role = Client | Server

module Int_set = Set.Make (Int)
module Streams = Stob_util.Int_table

(* An ack-eliciting datagram still in flight. *)
type sent_packet = Sent.packet = { pn : int; payload : int; frames : Frame.t list; sent_at : float }

(* The frame table both endpoints of a connection share: one lane per
   direction, indexed by packet number.  A slot holds its datagram's
   frames, or [[]] once they are dropped (a datagram always carries at
   least one frame). *)
type wire = { lanes : Frame.t list array array; mutable live : int }

let create_wire size = { lanes = [| Array.make size []; Array.make size [] |]; live = 0 }
let wire_length w = w.live
let lane_index = function Packet.Outgoing -> 0 | Packet.Incoming -> 1

let wire_frames w dir pn =
  let lane = w.lanes.(lane_index dir) in
  if pn < Array.length lane then lane.(pn) else []

let wire_add w dir pn frames =
  let i = lane_index dir in
  let lane = w.lanes.(i) in
  if pn >= Array.length lane then begin
    let wider = Array.make (Int.max (pn + 1) (2 * Array.length lane)) [] in
    Array.blit lane 0 wider 0 (Array.length lane);
    w.lanes.(i) <- wider
  end;
  w.lanes.(i).(pn) <- frames;
  w.live <- w.live + 1

let wire_remove w dir pn =
  match wire_frames w dir pn with
  | [] -> ()
  | _ :: _ ->
      w.lanes.(lane_index dir).(pn) <- [];
      w.live <- w.live - 1

type stream_out = {
  id : int;
  mutable next_offset : int;
  mutable queued : int;
  mutable fin_pending : bool;
  mutable fin_sent : bool;
  mutable rtx : Frame.stream_chunk list;
}

type t = {
  engine : Engine.t;
  cc : Cc.t;
  rtt : Rtt.t;
  pacer : Pacer.t;
  flow : int;
  dir : Packet.direction;
  wire : wire;
  mutable hooks : Hooks.t;
  tx : Packet.t array -> unit;
  mutable role : role;
  mutable established : bool;
  mutable closed : bool;
  mutable close_reason : string option;
  mutable flight_bytes : int;  (* server: size of its handshake flight *)
  mutable flight_sent : bool;
  (* --- sender --- *)
  mutable pn_next : int;
  sent : Sent.t;  (* exactly the outstanding ack-eliciting packets *)
  mutable largest_acked : int;
  mutable inflight : int;
  streams_out : stream_out Streams.t;
  mutable active : Int_set.t;  (* exactly the ids of streams with [pending] data *)
  send_timer : Engine.timer;  (* wakes the sender at its pacing departure *)
  pto : Engine.timer;
  loss_timer : Engine.timer;  (* time-threshold reordering timer *)
  mutable pto_backoff : float;  (* doubles per PTO, resets on forward progress *)
  mutable latest_rtt : float;
  mutable rate_limited_mark : int;
      (* Highest packet number sent under starvation — amplification-blocked,
         app-limited, or a forced PTO probe.  Its ack must reach the CCA
         flagged [limited] (the QUIC analog of TCP's
         tcp_rate_check_app_limited rule + persist-probe taint): a delivery
         sample measured across a credit- or window-starved stall reads as a
         few bits per second, and admitting it collapses BBR's pacing rate —
         the handshake flight then paces out slower than the idle timeout. *)
  (* Persistent-congestion span: sent times of ack-eliciting packets
     declared lost since the last forward progress (RFC 9002 §7.6). *)
  mutable pc_oldest : float;
  mutable pc_newest : float;
  (* --- lifecycle --- *)
  mutable last_activity : float;
  mutable ae_sent_since_rx : bool;
      (* An ack-eliciting packet went out since the last receive: further
         sends (PTO probes included) must NOT refresh the idle clock, or a
         dead peer keeps the connection alive forever (RFC 9000 §10.1). *)
  idle : Engine.timer;
  (* --- anti-amplification (server, before handshake confirmation) --- *)
  mutable bytes_received : int;  (* wire bytes from the peer *)
  mutable bytes_sent : int;  (* wire bytes sent *)
  mutable amp_blocked : bool;  (* sending stalled on amplification credit *)
  (* --- receiver --- *)
  streams_in : Reassembly.t Streams.t;
  mutable received : (int * int) list;  (* pn ranges [lo, hi] inclusive *)
  mutable ack_pending : bool;
  mutable pkts_since_ack : int;
  ack_timer : Engine.timer;  (* the delayed ACK *)
  (* --- callbacks --- *)
  mutable on_established : unit -> unit;
  mutable on_stream : stream:int -> int -> unit;
  mutable on_stream_fin : stream:int -> unit;
  (* --- stats --- *)
  mutable packets_sent : int;
  mutable datagrams_sent : int;
  mutable rtx_chunks : int;
  mutable rtx_datagrams : int;
  mutable pto_count : int;
  mutable time_loss_detections : int;
  mutable persistent_congestions : int;
}

let established t = t.established
let closed t = t.closed
let close_reason t = t.close_reason
let set_on_established t f = t.on_established <- f
let set_on_stream t f = t.on_stream <- f
let set_on_stream_fin t f = t.on_stream_fin <- f
let set_hooks t h = t.hooks <- h
let hooks t = t.hooks
let datagrams_sent t = t.datagrams_sent
let retransmitted_chunks t = t.rtx_chunks
let rtx_datagrams t = t.rtx_datagrams
let pto_events t = t.pto_count
let time_loss_detections t = t.time_loss_detections
let persistent_congestions t = t.persistent_congestions
let now t = Engine.now t.engine

(* Anti-amplification credit: until the handshake is confirmed, a server
   may send at most [amp_factor] times what it has received from the
   (unvalidated) client address.  [max_int] once the limit no longer
   applies. *)
let amp_credit t =
  if t.role = Server && not t.established then (amp_factor * t.bytes_received) - t.bytes_sent
  else max_int

let stream_out t id =
  match Streams.find_opt t.streams_out id with
  | Some s -> s
  | None ->
      let s = { id; next_offset = 0; queued = 0; fin_pending = false; fin_sent = false; rtx = [] } in
      Streams.add t.streams_out id s;
      s

(* Something to send: retransmission chunks, queued bytes or an unsent
   FIN.  [send_stream], [next_chunk] and [mark_lost] are the only writers
   of this state, and each keeps [t.active] in step with it. *)
let pending s = s.rtx <> [] || s.queued > 0 || s.fin_pending

let has_data t = not (Int_set.is_empty t.active)

let lowest_outstanding t = Sent.lowest t.sent ~pn_next:t.pn_next

let stream_in t id =
  match Streams.find_opt t.streams_in id with
  | Some s -> s
  | None ->
      let s = Reassembly.create () in
      Streams.add t.streams_in id s;
      s

(* ------------------------------------------------------------------ *)
(* Timers and lifecycle                                                 *)

(* Disarm every timer.  Mirrors the TCP close-time quiesce fix: a PTO,
   delayed-ACK, loss-detection, pacer or idle timer left armed on a closed
   connection fires into dead state and keeps the engine artificially
   busy — at soak scale, forever. *)
let quiesce t = List.iter Engine.disarm [ t.send_timer; t.pto; t.loss_timer; t.ack_timer; t.idle ]

let close_internal t ~reason =
  if not t.closed then begin
    t.closed <- true;
    t.close_reason <- Some reason;
    quiesce t
  end

let close t = close_internal t ~reason:"application"

(* Idle timeout (RFC 9000 §10.1).  One timer armed at
   [last_activity + idle_timeout]; activity between firings just moves the
   deadline, so the timer re-arms instead of being disarmed per packet. *)
let arm_idle t = if not t.closed then Engine.arm_at t.idle ~time:(t.last_activity +. idle_timeout)

let idle_fire t =
  if now t -. t.last_activity >= idle_timeout -. 1e-9 then close_internal t ~reason:"idle-timeout"
  else arm_idle t

(* ------------------------------------------------------------------ *)
(* Transmission                                                         *)

let frames_payload frames = List.fold_left (fun acc f -> acc + Frame.wire_bytes f) 0 frames

(* Record one datagram and build its wire packet.  [rtx] marks datagrams
   carrying at least one retransmitted stream chunk so the capture's
   retransmission count and the endpoint's agree (the TCP rtx oracle). *)
let make_datagram t ?(rtx = false) frames =
  let pn = t.pn_next in
  t.pn_next <- pn + 1;
  let payload = frames_payload frames in
  let ack_eliciting = List.exists Frame.is_ack_eliciting frames in
  wire_add t.wire t.dir pn frames;
  if ack_eliciting then begin
    Sent.add t.sent { pn; payload; frames; sent_at = now t };
    t.inflight <- t.inflight + payload;
    if not t.ae_sent_since_rx then begin
      t.ae_sent_since_rx <- true;
      t.last_activity <- now t
    end
  end;
  t.bytes_sent <- t.bytes_sent + payload + header_bytes;
  t.datagrams_sent <- t.datagrams_sent + 1;
  t.packets_sent <- t.packets_sent + 1;
  if rtx then t.rtx_datagrams <- t.rtx_datagrams + 1;
  Packet.data ~flow:t.flow ~dir:t.dir ~seq:pn ~ack:0 ~payload ~header:header_bytes
    ~rtx ~rwnd:default_config.Config.rcv_wnd ()

let transmit_burst t ~release packets =
  if Array.length packets > 0 then begin
    let send () = t.tx packets in
    if release <= now t then send ()
    else Engine.schedule_at t.engine ~time:release send
  end

let ack_frame t =
  (* Up to 8 most recent ranges, highest first: [received] itself when it
     has no more. *)
  let rec take n = function
    | [] -> []
    | x :: rest as all ->
        if n = 0 then []
        else
          let kept = take (n - 1) rest in
          if kept == rest then all else x :: kept
  in
  Frame.Ack { ranges = take 8 t.received }

let send_ack_now t =
  if t.received <> [] && not t.closed then begin
    let ack = ack_frame t in
    if amp_credit t < Frame.wire_bytes ack + header_bytes then
      (* Not even an ACK fits under the amplification limit: leave the ACK
         pending; the unblock-on-receive path flushes it. *)
      t.amp_blocked <- true
    else begin
      t.ack_pending <- false;
      t.pkts_since_ack <- 0;
      Engine.disarm t.ack_timer;
      let pkt = make_datagram t [ ack ] in
      transmit_burst t ~release:(now t) [| pkt |]
    end
  end

(* Pull the next stream chunk that fits in [space] payload bytes from the
   lowest-id stream with pending data: its rtx chunks first, then new
   data, then a bare FIN.  Returns the chunk and whether it is a
   retransmission. *)
let next_chunk t ~space =
  if space <= 8 || Int_set.is_empty t.active then None
  else begin
    let id = Int_set.min_elt t.active in
    let s = Streams.find t.streams_out id in
    let next =
      match s.rtx with
      | chunk :: more ->
          t.rtx_chunks <- t.rtx_chunks + 1;
          if chunk.Frame.length + 8 <= space then begin
            s.rtx <- more;
            (chunk, true)
          end
          else begin
            (* Split the retransmission to fit the datagram. *)
            let take = space - 8 in
            let head = { chunk with Frame.length = take; fin = false } in
            let tail =
              {
                chunk with
                Frame.offset = chunk.Frame.offset + take;
                length = chunk.Frame.length - take;
              }
            in
            s.rtx <- tail :: more;
            (head, true)
          end
      | [] ->
          (* New data, or a bare FIN once the queue is empty. *)
          let take = Int.min s.queued (space - 8) in
          let fin = s.fin_pending && take = s.queued in
          let chunk = { Frame.stream = id; offset = s.next_offset; length = take; fin } in
          s.next_offset <- s.next_offset + take;
          s.queued <- s.queued - take;
          if fin then begin
            s.fin_sent <- true;
            s.fin_pending <- false
          end;
          (chunk, false)
    in
    if not (pending s) then t.active <- Int_set.remove id t.active;
    Some next
  end

(* RFC 9002 §6.2: PTO = srtt + max(4*rttvar, granularity) + max_ack_delay,
   scaled by the backoff multiplier and capped by [pto_max]. *)
let pto_interval t =
  let base =
    match Rtt.srtt t.rtt with
    | None -> Rtt.rto_init
    | Some srtt ->
        let rttvar = Option.value ~default:(srtt /. 2.0) (Rtt.rttvar t.rtt) in
        srtt +. Float.max (4.0 *. rttvar) granularity +. max_ack_delay
  in
  Float.min pto_max (base *. t.pto_backoff)

(* Persistent congestion (RFC 9002 §7.6): when the sent times of
   ack-eliciting packets declared lost since the last forward progress
   span more than kPersistentCongestionThreshold PTOs, the path was dead
   for that long — collapse the congestion window to its minimum, exactly
   as an RTO does, instead of limping on a stale window. *)
let check_persistent_congestion t =
  match Rtt.srtt t.rtt with
  | None -> ()
  | Some srtt ->
      let rttvar = Option.value ~default:(srtt /. 2.0) (Rtt.rttvar t.rtt) in
      let duration =
        persistent_congestion_threshold
        *. (srtt +. Float.max (4.0 *. rttvar) granularity +. max_ack_delay)
      in
      if t.pc_newest -. t.pc_oldest >= duration then begin
        t.persistent_congestions <- t.persistent_congestions + 1;
        t.pc_oldest <- infinity;
        t.pc_newest <- neg_infinity;
        t.cc.Cc.on_rto ~now:(now t)
      end

(* RFC 9002 §7.5: probe packets are exempt from the congestion window.  A
   long outage leaves inflight far above a collapsed cwnd, so the regular
   [try_send] (window-gated) transmits nothing; if the PTO could not force
   a datagram out anyway, recovery would have to wait for cwnd to drain
   one marked-lost packet per doubled backoff — a race the 30 s idle
   timeout wins, wedging the connection.  One MSS of retransmission data
   (or a bare PING) per PTO, still amplification-gated. *)
let send_probe t =
  if (not t.closed) && amp_credit t > header_bytes + 9 then begin
    let space = mss in
    let frames = ref [] in
    let any_rtx = ref false in
    let space_left () = space - frames_payload !frames in
    let rec fill () =
      match next_chunk t ~space:(space_left ()) with
      | Some (chunk, rtx) ->
          frames := Frame.Stream chunk :: !frames;
          if rtx then any_rtx := true;
          if space_left () > 8 then fill ()
      | None -> ()
    in
    fill ();
    if !frames = [] then frames := [ Frame.Ping ];
    let pkt = make_datagram t ~rtx:!any_rtx (List.rev !frames) in
    transmit_burst t ~release:(now t) [| pkt |];
    (* Sent past a starved window: taint through the probe. *)
    t.rate_limited_mark <- Int.max t.rate_limited_mark (t.pn_next - 1)
  end

let arm_pto t = if not t.closed then Engine.arm t.pto ~delay:(pto_interval t)

let rec handle_pto t =
  if not t.closed then begin
    t.pto_count <- t.pto_count + 1;
    t.pto_backoff <- t.pto_backoff *. 2.0;
    (* Probe timeout: declare the oldest unacked datagram lost and resend
       its stream data. *)
    match Sent.find_opt t.sent (lowest_outstanding t) with
    | None ->
        (* RFC 9002 §6.2.2.1 anti-deadlock probe: until the handshake is
           confirmed a client keeps probing even with nothing ack-eliciting
           in flight.  Otherwise a single lost (non-ack-eliciting) ACK
           leaves an amplification-blocked server unreachable forever: the
           server cannot spend credit it does not have, and the client has
           no timer left to give it any.  The probe is a padded PING, so it
           also re-credits the server by a full Initial's worth. *)
        if t.role = Client && not t.established then begin
          let probe =
            [ Frame.Ping; Frame.Padding (initial_min_payload - Frame.wire_bytes Frame.Ping) ]
          in
          let pkt = make_datagram t probe in
          transmit_burst t ~release:(now t) [| pkt |];
          t.rate_limited_mark <- Int.max t.rate_limited_mark (t.pn_next - 1);
          arm_pto t
        end
    | Some p ->
        mark_lost t p;
        check_persistent_congestion t;
        t.cc.Cc.on_loss ~now:(now t);
        arm_pto t;
        let before = t.datagrams_sent in
        try_send t;
        (* Window-blocked (inflight above the collapsed cwnd): force the
           probe out anyway — see [send_probe]. *)
        if t.datagrams_sent = before then send_probe t;
        (* A probe timeout means delivery stalled: whatever just went out —
           a forced probe, or a sliver [try_send] squeezed through the
           window the loss declaration reopened — will be acked across the
           stall, and its delivery-rate sample measures the outage, not the
           path.  A 13-byte PTO retransmission acked a quarter-second later
           reads as a few hundred bits per second; admitted, it collapses
           BBR's pacing rate and the recovery burst is committed with more
           pacing debt than the idle timeout allows. *)
        t.rate_limited_mark <- Int.max t.rate_limited_mark (t.pn_next - 1)
  end

(* [p] must be outstanding (in [sent]). *)
and mark_lost t p =
  t.inflight <- Int.max 0 (t.inflight - p.payload);
  t.pc_oldest <- Float.min t.pc_oldest p.sent_at;
  t.pc_newest <- Float.max t.pc_newest p.sent_at;
  List.iter
    (fun frame ->
      match frame with
      | Frame.Stream chunk when chunk.Frame.length > 0 || chunk.Frame.fin ->
          let s = stream_out t chunk.Frame.stream in
          s.rtx <- chunk :: s.rtx;
          t.active <- Int_set.add chunk.Frame.stream t.active
      | Frame.Stream _ | Frame.Ack _ | Frame.Padding _ | Frame.Ping -> ())
    p.frames;
  Sent.remove t.sent p.pn

(* RFC 9002 §6.1: declare losses by packet threshold (3 newer packets
   acknowledged) or time threshold (sent at least 9/8 RTT before the
   newest acknowledgement arrived).  Packets past the packet threshold are
   lost immediately; younger unacked packets below [largest_acked] arm the
   loss timer for the moment their time threshold expires, so a hole that
   only one or two later packets cover (where the packet threshold never
   fires) is still repaired in about an RTT instead of a full PTO.

   The check runs only when an outstanding packet lies below
   [largest_acked]; otherwise it would find nothing.  It visits the
   sender's holes alone, and declares the lost ones in the order
   {!Sent.detect_losses} documents: that order decides how lost chunks
   enter each stream's retransmission queue. *)
and detect_losses t =
  Engine.disarm t.loss_timer;
  if t.largest_acked >= 0 && (not t.closed) && lowest_outstanding t < t.largest_acked then begin
    let time_threshold =
      match Rtt.srtt t.rtt with
      | None -> None
      | Some srtt ->
          Some
            (Float.max (time_threshold_num /. time_threshold_den *. Float.max srtt t.latest_rtt)
               granularity)
    in
    let now_ = now t in
    let lost, next_fire, time_losses =
      Sent.detect_losses t.sent ~largest_acked:t.largest_acked ~packet_threshold:loss_threshold
        ~time_threshold ~now:now_
    in
    t.time_loss_detections <- t.time_loss_detections + time_losses;
    if lost <> [] then begin
      List.iter (mark_lost t) lost;
      check_persistent_congestion t;
      t.cc.Cc.on_loss ~now:now_
    end;
    if next_fire < infinity then Engine.arm_at t.loss_timer ~time:next_fire
  end

(* The QUIC transmit loop: GSO-burst construction with the Stob hook at the
   same decision point as TCP's segment commit.  The burst is additionally
   bounded by the anti-amplification credit; running out of credit parks
   the sender ([amp_blocked]) until the next receive. *)
and try_send t =
  let window = t.cc.Cc.cwnd () - t.inflight in
  (* The congestion window has room but the application is starving the
     sender: everything outstanding will be acked under starvation and must
     not be read as a path-bandwidth measurement. *)
  if (not t.closed) && window > 0 && not (has_data t) then
    t.rate_limited_mark <- Int.max t.rate_limited_mark (t.pn_next - 1);
  if (not t.closed) && has_data t && window > 0 then begin
    let credit = amp_credit t in
    if credit <= header_bytes + 9 then begin
      t.amp_blocked <- true;
      (* Credit-starved: acks arriving across the stall are not a rate. *)
      t.rate_limited_mark <- Int.max t.rate_limited_mark (t.pn_next - 1)
    end
    else begin
      let departure = Pacer.next_departure t.pacer ~now:(now t) in
      if departure > now t then begin
        if not (Engine.armed t.send_timer) then Engine.arm_at t.send_timer ~time:departure
      end
      else begin
        let pacing_rate = t.cc.Cc.pacing_rate () in
        let stack_gso = Config.tso_autosize default_config ~pacing_rate_bps:pacing_rate in
        let budget = Int.min stack_gso window in
        let stack_decision =
          {
            Hooks.tso_bytes = Int.max 1 budget;
            packet_payload = mss;
            earliest_departure = departure;
          }
        in
        let proposed =
          t.hooks.Hooks.on_segment ~now:(now t) ~flow:t.flow ~phase:(t.cc.Cc.phase ())
            stack_decision
        in
        let decision = Hooks.clamp ~stack:stack_decision proposed in
        (* Build the burst. *)
        let packets = ref [] in
        let burst_payload = ref 0 in
        let burst_wire = ref 0 in
        let continue = ref true in
        while !continue do
          let space =
            Int.min decision.Hooks.packet_payload (decision.Hooks.tso_bytes - !burst_payload)
          in
          (* Amplification credit counts wire bytes, headers included. *)
          let space = Int.min space (credit - !burst_wire - header_bytes) in
          if space <= 8 then begin
            if !packets = [] && credit - !burst_wire <= header_bytes + 9 then begin
              t.amp_blocked <- true;
              t.rate_limited_mark <- Int.max t.rate_limited_mark (t.pn_next - 1)
            end;
            continue := false
          end
          else begin
            let frames = ref [] in
            let any_rtx = ref false in
            if t.ack_pending && !packets = [] then begin
              frames := [ ack_frame t ];
              t.ack_pending <- false;
              t.pkts_since_ack <- 0;
              Engine.disarm t.ack_timer
            end;
            let space_left () = space - frames_payload !frames in
            let rec fill () =
              match next_chunk t ~space:(space_left ()) with
              | Some (chunk, rtx) ->
                  frames := Frame.Stream chunk :: !frames;
                  if rtx then any_rtx := true;
                  if space_left () > 8 then fill ()
              | None -> ()
            in
            fill ();
            let has_stream = List.exists (function Frame.Stream _ -> true | _ -> false) !frames in
            if not has_stream then begin
              (* No stream data fit.  If an ACK was folded in above, emit it
                 alone rather than silently dropping acknowledgement state. *)
              if !frames <> [] then begin
                let pkt = make_datagram t (List.rev !frames) in
                burst_payload := !burst_payload + pkt.Packet.payload;
                burst_wire := !burst_wire + Packet.wire_size pkt;
                packets := pkt :: !packets
              end;
              continue := false
            end
            else begin
              (* Client flights before the handshake confirms are padded to
                 1200 B: the Initial (and any retransmission of it) must
                 seed the server's anti-amplification credit. *)
              let frames =
                if
                  t.role = Client && (not t.established)
                  && frames_payload !frames < initial_min_payload
                then Frame.Padding (initial_min_payload - frames_payload !frames) :: !frames
                else !frames
              in
              let pkt = make_datagram t ~rtx:!any_rtx (List.rev frames) in
              burst_payload := !burst_payload + pkt.Packet.payload;
              burst_wire := !burst_wire + Packet.wire_size pkt;
              packets := pkt :: !packets
            end
          end
        done;
        let packets = Array.of_list (List.rev !packets) in
        if Array.length packets > 0 then begin
          let release = decision.Hooks.earliest_departure in
          Pacer.commit t.pacer ~departure:release ~rate_bps:pacing_rate ~bytes:!burst_payload;
          transmit_burst t ~release packets;
          if not (Engine.armed t.pto) then arm_pto t;
          try_send t
        end
      end
    end
  end

(* ------------------------------------------------------------------ *)
(* Application interface                                                *)

let send_stream t ~stream ?(fin = false) n =
  if n < 0 then invalid_arg "Quic.Endpoint.send_stream: negative byte count";
  if not t.closed then begin
    let s = stream_out t stream in
    if s.fin_sent || s.fin_pending then invalid_arg "Quic.Endpoint.send_stream: stream closed";
    s.queued <- s.queued + n;
    if fin then s.fin_pending <- true;
    if pending s then t.active <- Int_set.add stream t.active;
    try_send t
  end

let send_padding_datagram t n =
  if n <= 0 then invalid_arg "Quic.Endpoint.send_padding_datagram: byte count must be positive";
  if not t.closed then begin
    let pkt = make_datagram t [ Frame.Padding (Int.min n mss) ] in
    transmit_burst t ~release:(now t) [| pkt |]
  end

let connect t =
  t.role <- Client;
  t.last_activity <- now t;
  arm_idle t;
  (* The ClientHello's CRYPTO bytes; the Initial is padded to 1200 B. *)
  send_stream t ~stream:crypto_stream ~fin:true 350

let listen t ~flight_bytes =
  t.role <- Server;
  t.flight_bytes <- flight_bytes;
  t.last_activity <- now t;
  arm_idle t

(* ------------------------------------------------------------------ *)
(* Receive path                                                         *)

let insert_range ranges pn =
  (* Inclusive [lo, hi] ranges, kept sorted descending by lo. *)
  let rec go acc = function
    | [] -> List.rev ((pn, pn) :: acc)
    | (lo, hi) :: rest ->
        if pn >= lo - 1 && pn <= hi + 1 then
          List.rev_append acc ((Int.min lo pn, Int.max hi pn) :: rest)
        else if pn > hi then List.rev_append acc ((pn, pn) :: (lo, hi) :: rest)
        else go ((lo, hi) :: acc) rest
  in
  go [] ranges

let handshake_progress t ~stream =
  match (t.role, stream) with
  | Server, s when s = crypto_stream ->
      (* Client Initial complete: answer with our flight. *)
      if not t.flight_sent then begin
        t.flight_sent <- true;
        send_stream t ~stream:crypto_stream ~fin:true (Int.max 1 t.flight_bytes)
      end
  | Client, s when s = crypto_stream ->
      (* Server flight complete: handshake confirmed; send finished. *)
      if not t.established then begin
        t.established <- true;
        send_stream t ~stream:finished_stream ~fin:true 64;
        t.on_established ()
      end
  | Server, s when s = finished_stream ->
      if not t.established then begin
        t.established <- true;
        t.on_established ();
        (* Handshake confirmed: the amplification limit no longer applies —
           flush anything it was holding back. *)
        if t.amp_blocked then begin
          t.amp_blocked <- false;
          try_send t
        end
      end
  | _ -> ()

let process_stream_chunk t { Frame.stream = id; offset; length; fin } =
  let s = stream_in t id in
  let fresh = Reassembly.add s ~offset ~length ~fin in
  if fresh > 0 && id > finished_stream then t.on_stream ~stream:id fresh;
  if Reassembly.take_fin s then begin
    if id > finished_stream then t.on_stream_fin ~stream:id;
    handshake_progress t ~stream:id
  end

(* Drop the packets that ACK ranges newly acknowledge, adding up their
   payload and keeping the one numbered highest ([None] while there is
   none).  Every outstanding packet is in [sent] at or above the low-water
   mark, so each range is walked over [low, top] only: the lowest
   outstanding number to the last one sent. *)
let rec ack_ranges t ~low ~top total largest = function
  | [] -> (total, largest)
  | (lo, hi) :: rest -> ack_walk t ~low ~top (Int.max lo low) (Int.min hi top) total largest rest

and ack_walk t ~low ~top pn hi total largest rest =
  if pn > hi then ack_ranges t ~low ~top total largest rest
  else
    match Sent.find_opt t.sent pn with
    | None -> ack_walk t ~low ~top (pn + 1) hi total largest rest
    | Some p as acked ->
        Sent.remove t.sent pn;
        wire_remove t.wire t.dir pn;
        let largest = match largest with Some q when q.pn > pn -> largest | _ -> acked in
        ack_walk t ~low ~top (pn + 1) hi (total + p.payload) largest rest

let process_ack t ranges =
  match ack_ranges t ~low:(lowest_outstanding t) ~top:(t.pn_next - 1) 0 None ranges with
  | _, None -> ()
  | total, Some largest ->
      t.inflight <- Int.max 0 (t.inflight - total);
      t.largest_acked <- Int.max t.largest_acked largest.pn;
      (* Forward progress: reset the PTO backoff and the persistent-congestion
         span (RFC 9002 §6.2.1, §7.6.2). *)
      t.pto_backoff <- 1.0;
      t.pc_oldest <- infinity;
      t.pc_newest <- neg_infinity;
      (* RTT sample from the largest newly-acked packet. *)
      let sample = now t -. largest.sent_at in
      t.latest_rtt <- sample;
      Rtt.observe t.rtt sample;
      t.cc.Cc.on_ack ~now:(now t) ~acked:total ~rtt:sample ~inflight:t.inflight
        ~limited:(largest.pn <= t.rate_limited_mark);
      detect_losses t;
      (* Keep the PTO armed on a pre-confirmation client even with nothing in
         flight (the §6.2.2.1 anti-deadlock probe above needs a timer). *)
      if t.inflight > 0 || (t.role = Client && not t.established) then arm_pto t
      else Engine.disarm t.pto;
      try_send t

let rec process_frames t = function
  | [] -> ()
  | frame :: rest ->
      (match frame with
      | Frame.Stream chunk -> process_stream_chunk t chunk
      | Frame.Ack { ranges } -> process_ack t ranges
      | Frame.Padding _ | Frame.Ping -> ());
      process_frames t rest

let receive t (p : Packet.t) =
  if not t.closed then begin
    (* Idle clock and amplification credit count every datagram that
       reaches us — duplicates included — and must be credited before frame
       processing, or the unblock path below never sees new budget. *)
    t.last_activity <- now t;
    t.ae_sent_since_rx <- false;
    t.bytes_received <- t.bytes_received + Packet.wire_size p;
    let was_blocked = t.amp_blocked in
    if was_blocked then t.amp_blocked <- false;
    (match wire_frames t.wire p.Packet.dir p.Packet.seq with
    | [] -> ()  (* metadata already collected (duplicate) or padding-only cleanup *)
    | frames ->
        t.received <- insert_range t.received p.Packet.seq;
        let ack_eliciting = List.exists Frame.is_ack_eliciting frames in
        process_frames t frames;
        (* Nobody acknowledges an ACK-only datagram, so nothing else would
           drop its entry; a duplicate finds none and is ignored. *)
        if not ack_eliciting then wire_remove t.wire p.Packet.dir p.Packet.seq;
        if ack_eliciting && not t.closed then begin
          t.pkts_since_ack <- t.pkts_since_ack + 1;
          if t.pkts_since_ack >= default_config.Config.ack_every then
            if has_data t then begin
              (* Piggyback the ACK on outgoing data. *)
              t.ack_pending <- true;
              try_send t;
              if t.ack_pending then send_ack_now t
            end
            else send_ack_now t
          else begin
            t.ack_pending <- true;
            if not (Engine.armed t.ack_timer) then Engine.arm t.ack_timer ~delay:max_ack_delay
          end
        end);
    (* Unblock-on-receive: fresh amplification credit may release parked
       data or a deferred ACK, and the PTO must be re-armed or a server
       whose whole flight was dropped while it was credit-starved would
       deadlock (nothing in flight it believes in, no timer, no sends). *)
    if was_blocked && not t.closed then begin
      try_send t;
      if t.ack_pending then send_ack_now t;
      if (t.inflight > 0 || has_data t) && not (Engine.armed t.pto) then arm_pto t
    end
  end

let loss_fire t =
  detect_losses t;
  try_send t

let ack_fire t = if t.ack_pending && not t.closed then send_ack_now t

(* Defined after the transmit and receive paths so that each timer's
   callback is built once, here.  The callbacks need the endpoint, which
   holds the timers: [self] ties the knot. *)
let create ~engine ~cc ~flow ~dir ~wire ?(hooks = Hooks.default) ~tx () =
  let self = ref None in
  let on f () = Option.iter f !self in
  let t =
    {
      engine;
      cc;
      rtt = Rtt.create ();
      pacer = Pacer.create ();
      flow;
      dir;
      wire;
      hooks;
      tx;
      role = Server;
      established = false;
      closed = false;
      close_reason = None;
      flight_bytes = 0;
      flight_sent = false;
      pn_next = 0;
      sent = Sent.create ();
      largest_acked = -1;
      inflight = 0;
      streams_out = Streams.create 16;
      active = Int_set.empty;
      send_timer = Engine.timer engine (on try_send);
      pto = Engine.timer engine (on handle_pto);
      loss_timer = Engine.timer engine (on loss_fire);
      pto_backoff = 1.0;
      latest_rtt = 0.0;
      rate_limited_mark = -1;
      pc_oldest = infinity;
      pc_newest = neg_infinity;
      last_activity = Engine.now engine;
      ae_sent_since_rx = false;
      idle = Engine.timer engine (on idle_fire);
      bytes_received = 0;
      bytes_sent = 0;
      amp_blocked = false;
      streams_in = Streams.create 16;
      received = [];
      ack_pending = false;
      pkts_since_ack = 0;
      ack_timer = Engine.timer engine (on ack_fire);
      on_established = (fun () -> ());
      on_stream = (fun ~stream:_ _ -> ());
      on_stream_fin = (fun ~stream:_ -> ());
      packets_sent = 0;
      datagrams_sent = 0;
      rtx_chunks = 0;
      rtx_datagrams = 0;
      pto_count = 0;
      time_loss_detections = 0;
      persistent_congestions = 0;
    }
  in
  self := Some t;
  t

(* ------------------------------------------------------------------ *)
(* Invariant-monitor surface.  Defined last: the [inspection] field names
   deliberately mirror the internal state and would otherwise shadow the
   mutable fields of [t] for the code above. *)

type inspection = {
  pn_next : int;
  largest_acked : int;
  inflight : int;
  unacked_bytes : int;  (* recomputed from the sent table, for cross-checks *)
  unacked_packets : int;
  active_streams : int list;  (* the active-stream index, ascending *)
  pending_streams : int list;  (* recomputed from every stream, ascending *)
  low_water : int;
  lowest_unacked : int;  (* recomputed from the sent table; [pn_next] when empty *)
  unindexed_holes : int list;  (* recomputed: holes the loss index lacks *)
  loss_visits : int;
  cwnd : int;
  pto_count : int;
  pto_backoff : float;
  amp_credit : int;  (* [max_int] when the limit does not apply *)
  bytes_received : int;
  bytes_sent : int;
  established : bool;
  closed : bool;
  close_reason : string option;
  idle_armed : bool;
  rtx_datagrams : int;
  rtx_chunks : int;
  time_loss_detections : int;
  persistent_congestions : int;
}

let inspect (t : t) : inspection =
  let unacked_bytes, unacked_packets, lowest_unacked =
    Sent.fold
      (fun p (b, n, lo) -> (b + p.payload, n + 1, Int.min lo p.pn))
      t.sent (0, 0, t.pn_next)
  in
  let pending_streams =
    Streams.fold (fun id s acc -> if pending s then id :: acc else acc) t.streams_out []
  in
  {
    pn_next = t.pn_next;
    largest_acked = t.largest_acked;
    inflight = t.inflight;
    unacked_bytes;
    unacked_packets;
    active_streams = Int_set.elements t.active;
    pending_streams = List.sort compare pending_streams;
    low_water = Sent.low_water t.sent;
    lowest_unacked;
    unindexed_holes = Sent.unindexed t.sent;
    loss_visits = Sent.loss_visits t.sent;
    cwnd = t.cc.Cc.cwnd ();
    pto_count = t.pto_count;
    pto_backoff = t.pto_backoff;
    amp_credit = amp_credit t;
    bytes_received = t.bytes_received;
    bytes_sent = t.bytes_sent;
    established = t.established;
    closed = t.closed;
    close_reason = t.close_reason;
    idle_armed = Engine.armed t.idle;
    rtx_datagrams = t.rtx_datagrams;
    rtx_chunks = t.rtx_chunks;
    time_loss_detections = t.time_loss_detections;
    persistent_congestions = t.persistent_congestions;
  }
