module Packet = Stob_net.Packet
module Engine = Stob_sim.Engine
module Config = Stob_tcp.Config
module Cc = Stob_tcp.Cc
module Rtt = Stob_tcp.Rtt
module Pacer = Stob_tcp.Pacer
module Hooks = Stob_tcp.Hooks

let default_config =
  {
    Config.default with
    Config.mss = 1350;  (* datagram payload budget *)
    header_bytes = 43;  (* IP + UDP + QUIC short header *)
    tso_max_bytes = 65535;  (* UDP GSO burst *)
    tso_min_bytes = 2 * 1350;
  }

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

type role = Client | Server

module Int_set = Set.Make (Int)

(* An ack-eliciting datagram still in flight. *)
type sent_packet = Sent.packet = { pn : int; payload : int; frames : Frame.t list; sent_at : float }

(* The frame table both endpoints of a connection share, keyed by
   [pn lsl 1 lor direction]. *)
module Wire = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash key = key
end)

type wire = Frame.t list Wire.t

let create_wire size = Wire.create size
let wire_length = Wire.length
let wire_key dir pn = (pn lsl 1) lor (match dir with Packet.Outgoing -> 0 | Packet.Incoming -> 1)

type stream_out = {
  id : int;
  mutable next_offset : int;
  mutable queued : int;
  mutable fin_pending : bool;
  mutable fin_sent : bool;
  mutable rtx : Frame.stream_chunk list;
}

type stream_in = {
  mutable intervals : (int * int) list;  (* sorted disjoint [lo, hi) *)
  mutable delivered : int;
  mutable fin_offset : int option;
  mutable fin_delivered : bool;
}

type t = {
  engine : Engine.t;
  config : Config.t;
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
  streams_out : (int, stream_out) Hashtbl.t;
  mutable active : Int_set.t;  (* exactly the ids of streams with [pending] data *)
  mutable send_timer : Engine.event_id option;
  mutable pto_timer : Engine.event_id option;
  mutable loss_timer : Engine.event_id option;  (* time-threshold reordering timer *)
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
  mutable idle_timer : Engine.event_id option;
  (* --- anti-amplification (server, before handshake confirmation) --- *)
  mutable bytes_received : int;  (* wire bytes from the peer *)
  mutable bytes_sent : int;  (* wire bytes sent *)
  mutable amp_blocked : bool;  (* sending stalled on amplification credit *)
  (* --- receiver --- *)
  streams_in : (int, stream_in) Hashtbl.t;
  mutable received : (int * int) list;  (* pn ranges [lo, hi] inclusive *)
  mutable ack_pending : bool;
  mutable pkts_since_ack : int;
  mutable ack_timer : Engine.event_id option;
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

let create ~engine ~config ~cc ~flow ~dir ~wire ?(hooks = Hooks.default) ~tx () =
  {
    engine;
    config;
    cc;
    rtt = Rtt.create config;
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
    streams_out = Hashtbl.create 16;
    active = Int_set.empty;
    send_timer = None;
    pto_timer = None;
    loss_timer = None;
    pto_backoff = 1.0;
    latest_rtt = 0.0;
    rate_limited_mark = -1;
    pc_oldest = infinity;
    pc_newest = neg_infinity;
    last_activity = Engine.now engine;
    ae_sent_since_rx = false;
    idle_timer = None;
    bytes_received = 0;
    bytes_sent = 0;
    amp_blocked = false;
    streams_in = Hashtbl.create 16;
    received = [];
    ack_pending = false;
    pkts_since_ack = 0;
    ack_timer = None;
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
  if t.role = Server && (not t.established) && t.config.Config.amp_factor > 0 then
    (t.config.Config.amp_factor * t.bytes_received) - t.bytes_sent
  else max_int

let stream_out t id =
  match Hashtbl.find_opt t.streams_out id with
  | Some s -> s
  | None ->
      let s = { id; next_offset = 0; queued = 0; fin_pending = false; fin_sent = false; rtx = [] } in
      Hashtbl.add t.streams_out id s;
      s

(* Something to send: retransmission chunks, queued bytes or an unsent
   FIN.  [send_stream], [next_chunk] and [mark_lost] are the only writers
   of this state, and each keeps [t.active] in step with it. *)
let pending s = s.rtx <> [] || s.queued > 0 || s.fin_pending

let has_data t = not (Int_set.is_empty t.active)

let lowest_outstanding t = Sent.lowest t.sent ~pn_next:t.pn_next

let stream_in t id =
  match Hashtbl.find_opt t.streams_in id with
  | Some s -> s
  | None ->
      let s = { intervals = []; delivered = 0; fin_offset = None; fin_delivered = false } in
      Hashtbl.add t.streams_in id s;
      s

(* ------------------------------------------------------------------ *)
(* Timers and lifecycle                                                 *)

let cancel_timer t field =
  match field with
  | Some ev ->
      Engine.cancel t.engine ev;
      None
  | None -> None

(* Cancel every pending timer.  Mirrors the TCP close-time quiesce fix: a
   PTO, delayed-ACK, loss-detection, pacer or idle timer left armed on a
   closed connection fires into dead state and keeps the engine
   artificially busy — at soak scale, forever. *)
let quiesce t =
  t.send_timer <- cancel_timer t t.send_timer;
  t.pto_timer <- cancel_timer t t.pto_timer;
  t.loss_timer <- cancel_timer t t.loss_timer;
  t.ack_timer <- cancel_timer t t.ack_timer;
  t.idle_timer <- cancel_timer t t.idle_timer

let close_internal t ~reason =
  if not t.closed then begin
    t.closed <- true;
    t.close_reason <- Some reason;
    quiesce t
  end

let close t = close_internal t ~reason:"application"

(* Idle timeout (RFC 9000 §10.1).  One timer armed at
   [last_activity + idle_timeout]; activity between firings just moves the
   deadline, so the timer re-arms instead of being cancelled per packet. *)
let rec arm_idle t =
  if t.config.Config.idle_timeout > 0.0 && not t.closed then begin
    t.idle_timer <- cancel_timer t t.idle_timer;
    let deadline = t.last_activity +. t.config.Config.idle_timeout in
    t.idle_timer <-
      Some
        (Engine.schedule_at t.engine ~time:deadline (fun () ->
             t.idle_timer <- None;
             if now t -. t.last_activity >= t.config.Config.idle_timeout -. 1e-9 then
               close_internal t ~reason:"idle-timeout"
             else arm_idle t))
  end

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
  Wire.replace t.wire (wire_key t.dir pn) frames;
  if ack_eliciting then begin
    Sent.add t.sent { pn; payload; frames; sent_at = now t };
    t.inflight <- t.inflight + payload;
    if not t.ae_sent_since_rx then begin
      t.ae_sent_since_rx <- true;
      t.last_activity <- now t
    end
  end;
  t.bytes_sent <- t.bytes_sent + payload + t.config.Config.header_bytes;
  t.datagrams_sent <- t.datagrams_sent + 1;
  t.packets_sent <- t.packets_sent + 1;
  if rtx then t.rtx_datagrams <- t.rtx_datagrams + 1;
  Packet.data ~flow:t.flow ~dir:t.dir ~seq:pn ~ack:0 ~payload ~header:t.config.Config.header_bytes
    ~rtx ~rwnd:t.config.Config.rcv_wnd ()

let transmit_burst t ~release packets =
  if Array.length packets > 0 then begin
    let send () = t.tx packets in
    if release <= now t then send ()
    else ignore (Engine.schedule_at t.engine ~time:release send)
  end

let ack_frame t =
  (* Up to 8 most recent ranges, highest first. *)
  let rec take n = function [] -> [] | x :: rest -> if n = 0 then [] else x :: take (n - 1) rest in
  Frame.Ack { ranges = take 8 t.received }

let send_ack_now t =
  if t.received <> [] && not t.closed then begin
    let wire = Frame.wire_bytes (ack_frame t) + t.config.Config.header_bytes in
    if amp_credit t < wire then
      (* Not even an ACK fits under the amplification limit: leave the ACK
         pending; the unblock-on-receive path flushes it. *)
      t.amp_blocked <- true
    else begin
      t.ack_pending <- false;
      t.pkts_since_ack <- 0;
      t.ack_timer <- cancel_timer t t.ack_timer;
      let pkt = make_datagram t [ ack_frame t ] in
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
    let s = Hashtbl.find t.streams_out id in
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
   scaled by the backoff multiplier and capped by [Config.pto_max]. *)
let pto_interval t =
  let base =
    match Rtt.srtt t.rtt with
    | None -> t.config.Config.rto_init
    | Some srtt ->
        let rttvar = Option.value ~default:(srtt /. 2.0) (Rtt.rttvar t.rtt) in
        srtt +. Float.max (4.0 *. rttvar) granularity +. max_ack_delay
  in
  Float.min t.config.Config.pto_max (base *. t.pto_backoff)

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
  if (not t.closed) && amp_credit t > t.config.Config.header_bytes + 9 then begin
    let space = t.config.Config.mss in
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

let rec arm_pto t =
  if not t.closed then begin
    t.pto_timer <- cancel_timer t t.pto_timer;
    t.pto_timer <- Some (Engine.schedule t.engine ~delay:(pto_interval t) (fun () -> handle_pto t))
  end

and handle_pto t =
  t.pto_timer <- None;
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
  t.loss_timer <- cancel_timer t t.loss_timer;
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
    if next_fire < infinity then
      t.loss_timer <-
        Some
          (Engine.schedule_at t.engine ~time:next_fire (fun () ->
               t.loss_timer <- None;
               detect_losses t;
               try_send t))
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
    if credit <= t.config.Config.header_bytes + 9 then begin
      t.amp_blocked <- true;
      (* Credit-starved: acks arriving across the stall are not a rate. *)
      t.rate_limited_mark <- Int.max t.rate_limited_mark (t.pn_next - 1)
    end
    else begin
      let departure = Pacer.next_departure t.pacer ~now:(now t) in
      if departure > now t then begin
        if t.send_timer = None then
          t.send_timer <-
            Some
              (Engine.schedule_at t.engine ~time:departure (fun () ->
                   t.send_timer <- None;
                   try_send t))
      end
      else begin
        let pacing_rate = t.cc.Cc.pacing_rate () in
        let stack_gso = Config.tso_autosize t.config ~pacing_rate_bps:pacing_rate in
        let budget = Int.min stack_gso window in
        let stack_decision =
          {
            Hooks.tso_bytes = Int.max 1 budget;
            packet_payload = t.config.Config.mss;
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
          let space = Int.min space (credit - !burst_wire - t.config.Config.header_bytes) in
          if space <= 8 then begin
            if !packets = [] && credit - !burst_wire <= t.config.Config.header_bytes + 9 then begin
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
              t.ack_timer <- cancel_timer t t.ack_timer
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
          if t.pto_timer = None then arm_pto t;
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
    let pkt = make_datagram t [ Frame.Padding (Int.min n t.config.Config.mss) ] in
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

let insert_interval intervals (lo : int) hi =
  let rec go acc lo hi = function
    | [] -> List.rev ((lo, hi) :: acc)
    | (l, h) :: rest when h < lo -> go ((l, h) :: acc) lo hi rest
    | (l, h) :: rest when l > hi -> List.rev_append acc ((lo, hi) :: (l, h) :: rest)
    | (l, h) :: rest -> go acc (Int.min l lo) (Int.max h hi) rest
  in
  go [] lo hi intervals

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

let deliver_stream t id =
  let s = stream_in t id in
  let rec drain () =
    match s.intervals with
    | (lo, hi) :: rest when lo <= s.delivered ->
        let fresh = Int.max 0 (hi - s.delivered) in
        s.intervals <- rest;
        s.delivered <- Int.max s.delivered hi;
        if fresh > 0 && id > finished_stream then t.on_stream ~stream:id fresh;
        drain ()
    | _ -> ()
  in
  drain ();
  match s.fin_offset with
  | Some fin_at when s.delivered >= fin_at && not s.fin_delivered ->
      s.fin_delivered <- true;
      if id > finished_stream then t.on_stream_fin ~stream:id;
      handshake_progress t ~stream:id
  | _ -> ()

let process_stream_chunk t (chunk : Frame.stream_chunk) =
  let s = stream_in t chunk.Frame.stream in
  if chunk.Frame.length > 0 then
    s.intervals <-
      insert_interval s.intervals chunk.Frame.offset (chunk.Frame.offset + chunk.Frame.length);
  if chunk.Frame.fin then s.fin_offset <- Some (chunk.Frame.offset + chunk.Frame.length);
  deliver_stream t chunk.Frame.stream

(* Every outstanding packet is in [sent] at or above the low-water mark, so
   each range is walked over [lowest outstanding, pn_next) only. *)
let process_ack t ranges =
  let low = lowest_outstanding t and top = t.pn_next - 1 in
  let rec walk pn hi acc =
    if pn > hi then acc
    else
      match Sent.find_opt t.sent pn with
      | Some p ->
          Sent.remove t.sent pn;
          Wire.remove t.wire (wire_key t.dir pn);
          walk (pn + 1) hi (p :: acc)
      | None -> walk (pn + 1) hi acc
  in
  match
    List.fold_left (fun acc (lo, hi) -> walk (Int.max lo low) (Int.min hi top) acc) [] ranges
  with
  | [] -> ()
  | first :: _ as newly ->
      let largest = List.fold_left (fun acc p -> if p.pn > acc.pn then p else acc) first newly in
      let total = List.fold_left (fun acc p -> acc + p.payload) 0 newly in
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
      else t.pto_timer <- cancel_timer t t.pto_timer;
      try_send t

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
    let key = wire_key p.Packet.dir p.Packet.seq in
    (match Wire.find_opt t.wire key with
    | None -> ()  (* metadata already collected (duplicate) or padding-only cleanup *)
    | Some frames ->
        t.received <- insert_range t.received p.Packet.seq;
        let ack_eliciting = List.exists Frame.is_ack_eliciting frames in
        List.iter
          (fun frame ->
            match frame with
            | Frame.Stream chunk -> process_stream_chunk t chunk
            | Frame.Ack { ranges } -> process_ack t ranges
            | Frame.Padding _ | Frame.Ping -> ())
          frames;
        (* Nobody acknowledges an ACK-only datagram, so nothing else would
           drop its entry; a duplicate finds none and is ignored. *)
        if not ack_eliciting then Wire.remove t.wire key;
        if ack_eliciting && not t.closed then begin
          t.pkts_since_ack <- t.pkts_since_ack + 1;
          if t.pkts_since_ack >= t.config.Config.ack_every then
            if has_data t then begin
              (* Piggyback the ACK on outgoing data. *)
              t.ack_pending <- true;
              try_send t;
              if t.ack_pending then send_ack_now t
            end
            else send_ack_now t
          else begin
            t.ack_pending <- true;
            if t.ack_timer = None then
              t.ack_timer <-
                Some
                  (Engine.schedule t.engine ~delay:max_ack_delay (fun () ->
                       t.ack_timer <- None;
                       if t.ack_pending && not t.closed then send_ack_now t))
          end
        end);
    (* Unblock-on-receive: fresh amplification credit may release parked
       data or a deferred ACK, and the PTO must be re-armed or a server
       whose whole flight was dropped while it was credit-starved would
       deadlock (nothing in flight it believes in, no timer, no sends). *)
    if was_blocked && not t.closed then begin
      try_send t;
      if t.ack_pending then send_ack_now t;
      if (t.inflight > 0 || has_data t) && t.pto_timer = None then arm_pto t
    end
  end

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
    Hashtbl.fold (fun id s acc -> if pending s then id :: acc else acc) t.streams_out []
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
    idle_armed = t.idle_timer <> None;
    rtx_datagrams = t.rtx_datagrams;
    rtx_chunks = t.rtx_chunks;
    time_loss_detections = t.time_loss_detections;
    persistent_congestions = t.persistent_congestions;
  }
