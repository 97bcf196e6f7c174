module Packet = Stob_net.Packet
module Engine = Stob_sim.Engine
module Cpu = Stob_sim.Cpu

type conn_state = Closed | Syn_sent | Syn_rcvd | Established_s

(* TCP small queues: max unsent bytes in the stack. *)
let tsq_limit_bytes = 256 * 1024

(* Upper bound on the zero-window persist-probe backoff, seconds. *)
let persist_max = 60.0

(* Sent-segment log used for RTT sampling (Karn's rule applied via
   [karn_floor]): a FIFO ring of (end_seq, sent_at) records in send order,
   [len] of them from [head].  End sequence numbers strictly increase in
   send order, so an ACK retires a prefix of the ring and the newest acked
   record is the last one retired. *)
type sent_log = {
  mutable ends : int array;
  mutable sent_at : float array;  (* capacity a power of two, as [ends] *)
  mutable head : int;
  mutable len : int;
}

let log_create () = { ends = Array.make 16 0; sent_at = Array.make 16 0.0; head = 0; len = 0 }

let log_clear log =
  log.head <- 0;
  log.len <- 0

let log_push log ~end_seq ~sent_at =
  let cap = Array.length log.ends in
  if log.len = cap then begin
    (* Grow by unrolling the ring into the front of arrays twice the size. *)
    let ends = Array.make (2 * cap) 0 and times = Array.make (2 * cap) 0.0 in
    for i = 0 to cap - 1 do
      let j = (log.head + i) land (cap - 1) in
      ends.(i) <- log.ends.(j);
      times.(i) <- log.sent_at.(j)
    done;
    log.ends <- ends;
    log.sent_at <- times;
    log.head <- 0
  end;
  let i = (log.head + log.len) land (Array.length log.ends - 1) in
  log.ends.(i) <- end_seq;
  log.sent_at.(i) <- sent_at;
  log.len <- log.len + 1

(* The newest record's slot; the log must not be empty. *)
let log_newest log = (log.head + log.len - 1) land (Array.length log.ends - 1)

(* Retire the records acked by [una]; the slot of the newest one retired,
   or -1.  The slot keeps its contents until the next push. *)
let log_retire log ~una =
  let last = ref (-1) in
  while log.len > 0 && log.ends.(log.head) <= una do
    last := log.head;
    log.head <- (log.head + 1) land (Array.length log.ends - 1);
    log.len <- log.len - 1
  done;
  !last

type t = {
  engine : Engine.t;
  config : Config.t;
  cc : Cc.t;
  flow : int;
  dir : Packet.direction;
  cpu : (Cpu.t * Cpu_costs.t) option;
  mutable hooks : Hooks.t;
  mutable tx : Packet.t array -> unit;
  (* --- connection state --- *)
  mutable state : conn_state;
  mutable fin_rcvd : bool;
  mutable fin_acked : bool;
  (* --- negotiated options (fixed after the handshake) --- *)
  mutable snd_mss : int;  (* min of our MSS and the peer's MSS option *)
  mutable sack_ok : bool;  (* both sides sent SACK-permitted *)
  mutable wscale_on : bool;  (* both SYNs carried the wscale option *)
  mutable snd_wscale : int;  (* shift for windows the peer advertises *)
  mutable rcv_wscale : int;  (* shift for windows we advertise *)
  (* --- sender --- *)
  mutable snd_una : int;
  mutable snd_nxt : int;
  mutable app_queue : int;
  mutable fin_pending : bool;
  mutable fin_sent : bool;
  mutable peer_rwnd : int;
  mutable dupacks : int;
  mutable karn_floor : int;
  mutable sacked : (int * int) list;  (* peer-reported [lo, hi) SACK ranges *)
  mutable in_recovery : bool;
  mutable rto_recovery : bool;  (* current episode was opened by a timeout *)
  mutable recover_point : int;  (* snd_nxt when recovery began *)
  mutable rtx_next : int;  (* next hole position to retransmit *)
  sent_log : sent_log;
  rto : Engine.timer;
  send_timer : Engine.timer;  (* wakes the sender at its pacing departure *)
  persist : Engine.timer;
  mutable persist_backoff : float;  (* current persist-probe delay *)
  mutable rate_limited_mark : int;
      (* Sequence point up to which delivery-rate samples are tainted: set
         to [snd_una + inflight] whenever sending is starved by the peer
         window or by lack of application data, so ACKs at or below it are
         flagged app/rwnd-limited to the CCA (tcp_rate_check_app_limited). *)
  mutable in_stack : int;
  pacer : Pacer.t;
  rtt : Rtt.t;
  (* --- receiver --- *)
  mutable rcv_nxt : int;
  mutable ooo : (int * int) list;  (* disjoint sorted [lo, hi) intervals *)
  mutable fin_seq : int option;  (* sequence number the peer's FIN occupies *)
  mutable unacked_pkts : int;
  delack : Engine.timer;
  mutable auto_read : bool;  (* application consumes delivery immediately *)
  mutable rcv_buffered : int;  (* delivered but unread bytes ([auto_read] off) *)
  mutable rcv_adv_edge : int;  (* highest rcv_nxt + window ever advertised *)
  (* --- callbacks --- *)
  mutable on_established : unit -> unit;
  mutable on_receive : int -> unit;
  mutable on_fin : unit -> unit;
  (* --- stats --- *)
  mutable retransmissions : int;
  mutable fast_recoveries : int;
  mutable rto_events : int;
  mutable segments_sent : int;
  mutable packets_sent : int;
  mutable persist_probes : int;
  mutable zero_windows : int;
  mutable dummies_suppressed : int;
}

let established t = t.state = Established_s
let closed t = t.fin_acked && t.fin_rcvd
let inflight t = t.snd_nxt - t.snd_una
let unsent t = t.app_queue
let retransmissions t = t.retransmissions
let fast_recoveries t = t.fast_recoveries
let rto_events t = t.rto_events
let packets_sent t = t.packets_sent
let persist_probes t = t.persist_probes
let zero_windows t = t.zero_windows
let dummies_suppressed t = t.dummies_suppressed
let srtt t = Rtt.srtt t.rtt
let set_on_established t f = t.on_established <- f
let set_on_receive t f = t.on_receive <- f
let set_on_fin t f = t.on_fin <- f
let set_hooks t h = t.hooks <- h
let hooks t = t.hooks
let config t = t.config

let now t = Engine.now t.engine

(* ------------------------------------------------------------------ *)
(* Receive window                                                       *)

let ooo_bytes t = List.fold_left (fun acc (lo, hi) -> acc + (hi - lo)) 0 t.ooo

(* Free receive-buffer space beyond rcv_nxt: capacity minus what is sitting
   in the reassembly queue and what was delivered in order but not yet read
   by the application. *)
let rcv_window t = Int.max 0 (t.config.Config.rcv_wnd - t.rcv_buffered - ooo_bytes t)

(* Encode the window for the wire (RFC 7323: right-shifted by our shift
   count, saturating the 16-bit field) and remember the right edge the peer
   will compute, so the receive path never drops data it was granted.

   RFC 793/1122: never retract an advertised right edge.  Free space
   transiently dips below the granted edge while out-of-order data occupies
   the reassembly buffer; advertising the dip would both "shrink the
   window" (forbidden) and make consecutive duplicate ACKs carry different
   windows, which disqualifies them as duplicates (RFC 5681) and silently
   kills fast retransmit. *)
let advertise_window t =
  let w = Int.max (rcv_window t) (t.rcv_adv_edge - t.rcv_nxt) in
  let enc = Int.min 0xFFFF (w lsr t.rcv_wscale) in
  t.rcv_adv_edge <- Int.max t.rcv_adv_edge (t.rcv_nxt + (enc lsl t.rcv_wscale));
  enc

(* The window field of a SYN or SYN|ACK is never scaled. *)
let syn_window t =
  let w = Int.min 0xFFFF (rcv_window t) in
  t.rcv_adv_edge <- Int.max t.rcv_adv_edge (t.rcv_nxt + w);
  w

let advertised_window t = Int.max 0 (t.rcv_adv_edge - t.rcv_nxt)
let rcv_buffered t = t.rcv_buffered
let set_auto_read t b = t.auto_read <- b

(* ------------------------------------------------------------------ *)
(* Transmission helpers                                                 *)

let transmit_burst t packets =
  t.packets_sent <- t.packets_sent + Array.length packets;
  t.tx packets

(* Data segments pass through the CPU model; control packets (SYN, pure
   ACKs) are treated as free — they are not the bottleneck Figure 3 is
   about.  The caller has already charged the TSQ budget. *)
let transmit_segment t packets =
  t.segments_sent <- t.segments_sent + 1;
  match t.cpu with
  | None -> transmit_burst t packets
  | Some (cpu, costs) ->
      let wire = Array.fold_left (fun acc p -> acc + Packet.wire_size p) 0 packets in
      let cost = Cpu_costs.segment_cost costs ~packets:(Array.length packets) ~bytes:wire in
      Cpu.submit cpu ~cost (fun () -> transmit_burst t packets)

(* Commit a built segment: charge the TSQ budget and either hand it to the
   CPU/NIC now or park it until its fq departure timestamp.  Like a real fq
   qdisc, the segment is already immutable — delaying it does not re-open
   the sizing decision. *)
let commit_segment t ~departure packets =
  let wire = Array.fold_left (fun acc p -> acc + Packet.wire_size p) 0 packets in
  t.in_stack <- t.in_stack + wire;
  if departure <= now t then transmit_segment t packets
  else Engine.schedule_at t.engine ~time:departure (fun () -> transmit_segment t packets)

let send_control t packet = transmit_burst t [| packet |]

let send_pure_ack t =
  Engine.disarm t.delack;
  t.unacked_pkts <- 0;
  let rec take n = function [] -> [] | x :: rest -> if n = 0 then [] else x :: take (n - 1) rest in
  let sack = if t.sack_ok then take 3 t.ooo else [] in
  send_control t
    (Packet.pure_ack ~flow:t.flow ~dir:t.dir ~seq:t.snd_nxt ~ack:t.rcv_nxt ~sack
       ~rwnd:(advertise_window t) ())

(* Insert [lo, hi) into a sorted disjoint interval list, coalescing
   overlapping and adjacent intervals. *)
let insert_interval intervals (lo : int) hi =
  let rec go acc lo hi = function
    | [] -> List.rev ((lo, hi) :: acc)
    | (l, h) :: rest when h < lo -> go ((l, h) :: acc) lo hi rest
    | (l, h) :: rest when l > hi -> List.rev_append acc ((lo, hi) :: (l, h) :: rest)
    | (l, h) :: rest -> go acc (Int.min l lo) (Int.max h hi) rest
  in
  go [] lo hi intervals

(* ------------------------------------------------------------------ *)
(* SACK scoreboard and hole retransmission                              *)

let merge_sack t blocks =
  if t.sack_ok then
    List.iter (fun (lo, hi) -> if hi > lo then t.sacked <- insert_interval t.sacked lo hi) blocks;
  (* Drop ranges cumulative ACKs have overtaken. *)
  t.sacked <-
    List.filter_map
      (fun (lo, hi) -> if hi <= t.snd_una then None else Some (Int.max lo t.snd_una, hi))
      t.sacked

let sacked_bytes t = List.fold_left (fun acc (lo, hi) -> acc + (hi - lo)) 0 t.sacked

(* RFC 6675-style pipe budget: how many MSS-sized retransmissions fit under
   the congestion window.  Bytes below the highest SACKed sequence that are
   not SACKed are treated as lost (they have left the pipe); what remains in
   flight is essentially everything above the highest SACK block. *)
let rtx_budget t =
  let top = List.fold_left (fun acc (_, hi) -> Int.max acc hi) t.snd_una t.sacked in
  let pipe = Int.max 0 (t.snd_nxt - top) in
  let budget = (t.cc.Cc.cwnd () - pipe) / Int.max 1 t.snd_mss in
  Int.min 45 (Int.max 1 budget)

(* Retransmit up to [limit] MSS-sized chunks of un-SACKed holes, resuming
   where the previous call stopped.

   Which holes are presumed lost depends on how recovery began.  In
   dupack-triggered recovery only sequence space {e below the highest
   SACKed byte} may be retransmitted (RFC 6675 IsLost): un-SACKed ranges
   above it are simply still in flight, and resending them both wastes the
   pipe and — because the copies arrive as pure duplicates and draw
   duplicate ACKs — can fake the sender into a second recovery episode.
   After a timeout ([presume_lost]) the whole outstanding window up to the
   recovery point is fair game, go-back-N style.

   The FIN occupies the last sequence number once sent but is NOT a
   payload byte: a rebuilt segment must stop its payload short of the FIN
   slot and carry the flag instead, or the receiver is handed a phantom
   byte and the FIN itself is lost for good. *)
let retransmit_holes ?(presume_lost = false) t ~limit =
  let scan_end =
    if presume_lost then t.recover_point
    else
      let top_sack = List.fold_left (fun acc (_, hi) -> Int.max acc hi) t.snd_una t.sacked in
      if top_sack > t.snd_una then Int.min t.recover_point top_sack
      else
        (* No SACK information — a non-SACK peer, or pure duplicate ACKs
           without blocks.  RFC 6675 degenerates to nothing here; fall back
           to NewReno and presume exactly the head segment lost, or fast
           retransmit would send nothing at all. *)
        Int.min t.recover_point (t.snd_una + t.snd_mss)
  in
  let fin_slot = if t.fin_sent then t.snd_nxt - 1 else max_int in
  let rec go pos sacked remaining =
    if remaining > 0 && pos < scan_end then
      match sacked with
      | (lo, hi) :: rest when pos >= lo -> go (Int.max pos hi) rest remaining
      | _ ->
          let cap = match sacked with (lo, _) :: _ -> Int.min lo scan_end | [] -> scan_end in
          if cap > pos then begin
            let payload = Int.min t.snd_mss (Int.max 0 (Int.min cap fin_slot - pos)) in
            let fin_here = t.fin_sent && pos + payload = fin_slot && cap > fin_slot in
            t.retransmissions <- t.retransmissions + 1;
            t.karn_floor <- t.snd_nxt;
            let pkt =
              Packet.data ~flow:t.flow ~dir:t.dir ~seq:pos ~ack:t.rcv_nxt ~payload ~fin:fin_here
                ~rtx:true ~rwnd:(advertise_window t) ()
            in
            transmit_segment t [| pkt |];
            let advance = Int.max 1 (payload + if fin_here then 1 else 0) in
            t.rtx_next <- pos + advance;
            go (pos + advance) sacked (remaining - 1)
          end
  in
  go (Int.max t.rtx_next t.snd_una) t.sacked limit

(* ------------------------------------------------------------------ *)
(* RTO timer                                                            *)

(* The SYN carries our options offer; the SYN|ACK echoes only what was
   mutually agreed, so a retransmitted copy must repeat the same offer. *)
let send_syn t ~rtx =
  send_control t
    (Packet.syn ~flow:t.flow ~dir:t.dir ~seq:0 ~rtx ~mss:t.config.Config.mss
       ?wscale:(if t.config.Config.wscale then Some (Config.wscale_shift t.config) else None)
       ~sack_permitted:t.config.Config.sack ~rwnd:(syn_window t) ())

let send_synack t ~rtx =
  send_control t
    (Packet.syn ~flow:t.flow ~dir:t.dir ~seq:0 ~ack:(Some t.rcv_nxt) ~rtx ~mss:t.config.Config.mss
       ?wscale:(if t.wscale_on then Some (Config.wscale_shift t.config) else None)
       ~sack_permitted:t.sack_ok ~rwnd:(syn_window t) ())

let arm_rto t = Engine.arm t.rto ~delay:(Rtt.rto t.rtt)

let rec handle_rto t =
  if inflight t > 0 || (t.state = Syn_sent || t.state = Syn_rcvd) then begin
    t.rto_events <- t.rto_events + 1;
    Rtt.backoff t.rtt;
    t.cc.Cc.on_rto ~now:(now t);
    (match t.state with
    | Syn_sent | Syn_rcvd -> retransmit_head t
    | Established_s | Closed ->
        (* Re-enter recovery over the whole outstanding window: subsequent
           ACKs clock out hole retransmissions at slow-start pace instead
           of one segment per timeout. *)
        t.in_recovery <- true;
        t.rto_recovery <- true;
        t.recover_point <- t.snd_nxt;
        t.rtx_next <- t.snd_una;
        retransmit_holes ~presume_lost:true t ~limit:1);
    arm_rto t
  end

(* Go-back-N style recovery: resend one MSS (or the SYN) from snd_una.
   Karn's rule: the retransmitted sequence space is ambiguous for RTT
   sampling.  During the handshake snd_nxt is still 0 while the SYN
   occupies sequence number 0 (end_seq 1), so the floor must be raised to
   at least 1 or a retransmitted SYN/SYN|ACK would still seed Rtt with an
   inflated sample. *)
and retransmit_head t =
  t.retransmissions <- t.retransmissions + 1;
  t.karn_floor <- Int.max 1 t.snd_nxt;
  match t.state with
  | Syn_sent -> send_syn t ~rtx:true
  | Syn_rcvd -> send_synack t ~rtx:true
  | Established_s | Closed ->
      let outstanding = t.snd_nxt - t.snd_una in
      if outstanding > 0 then begin
        (* The FIN occupies the last sequence number once sent, but it is
           not a payload byte: stop the rebuilt payload short of its slot
           and carry the flag when the segment reaches it. *)
        let fin_slot = if t.fin_sent then t.snd_nxt - 1 else max_int in
        let payload = Int.min t.snd_mss (Int.min outstanding (Int.max 0 (fin_slot - t.snd_una))) in
        let fin_here = t.fin_sent && t.snd_una + payload = fin_slot in
        let pkt =
          Packet.data ~flow:t.flow ~dir:t.dir ~seq:t.snd_una ~ack:t.rcv_nxt ~payload
            ~fin:fin_here ~rtx:true ~rwnd:(advertise_window t) ()
        in
        transmit_segment t [| pkt |]
      end

(* ------------------------------------------------------------------ *)
(* Zero-window persist timer                                            *)

(* When the peer closes its window with nothing left in flight, nothing
   would ever clock another transmission: probe the closed window with one
   byte past its edge (or the bare FIN), backing off exponentially up to
   [persist_max].  Probes are stack-internal recovery traffic like
   retransmissions — they bypass the Stob hooks — but still pass through
   the TSQ/CPU path so their cost is accounted. *)
let arm_persist t =
  if not (Engine.armed t.persist) then
    Engine.arm t.persist ~delay:(Float.min persist_max t.persist_backoff)

let persist_fire t =
  let want_fin = t.fin_pending && not t.fin_sent in
  if
    t.state = Established_s && t.peer_rwnd = 0 && (not t.fin_acked)
    && (t.app_queue > 0 || want_fin || inflight t > 0)
  then begin
    t.persist_probes <- t.persist_probes + 1;
    t.persist_backoff <- Float.min persist_max (t.persist_backoff *. 2.0);
    (* The probe itself is sent under starvation: its eventual ack must be
       flagged rwnd-limited, so taint everything up to and including it. *)
    t.rate_limited_mark <- Int.max t.rate_limited_mark (t.snd_nxt + 1);
    if inflight t > 0 then
      (* An earlier probe (or the FIN) is still unacknowledged: probe by
         resending the byte below the window, BSD-style. *)
      retransmit_head t
    else if t.app_queue > 0 then begin
      let pkt =
        Packet.data ~flow:t.flow ~dir:t.dir ~seq:t.snd_nxt ~ack:t.rcv_nxt ~payload:1
          ~rwnd:(advertise_window t) ()
      in
      t.app_queue <- t.app_queue - 1;
      t.snd_nxt <- t.snd_nxt + 1;
      (* The probe byte is ambiguous for RTT sampling once retransmitted. *)
      t.karn_floor <- t.snd_nxt;
      commit_segment t ~departure:(now t) [| pkt |]
    end
    else begin
      (* Only the FIN remains: the FIN consumes no buffer, but probing with
         it keeps the close from deadlocking behind the closed window. *)
      let seq = t.snd_nxt in
      t.snd_nxt <- t.snd_nxt + 1;
      t.fin_sent <- true;
      t.karn_floor <- t.snd_nxt;
      let pkt =
        Packet.data ~flow:t.flow ~dir:t.dir ~seq ~ack:t.rcv_nxt ~payload:0 ~fin:true
          ~rwnd:(advertise_window t) ()
      in
      commit_segment t ~departure:(now t) [| pkt |]
    end;
    arm_persist t
  end

(* ------------------------------------------------------------------ *)
(* Sender                                                               *)

(* Build the packets of one TSO segment, in sequence order: [payload]
   bytes in [packet_payload]-byte packets, the FIN (if any) on the last.
   [payload] > 0, or a bare FIN. *)
let build_segment t ~payload ~packet_payload ~fin =
  let n = if payload = 0 then 1 else (payload + packet_payload - 1) / packet_payload in
  let seq = t.snd_nxt in
  Array.init n (fun i ->
      let offset = i * packet_payload in
      Packet.data ~flow:t.flow ~dir:t.dir ~seq:(seq + offset) ~ack:t.rcv_nxt
        ~payload:(Int.min packet_payload (payload - offset))
        ~fin:(fin && i = n - 1) ~rwnd:(advertise_window t) ())

let rec try_send t =
  if t.state = Established_s then begin
    let window = Int.min (t.cc.Cc.cwnd ()) t.peer_rwnd in
    let inflight_now = inflight t in
    let available_window = window - inflight_now in
    let want_fin = t.fin_pending && not t.fin_sent in
    (* tcp_rate_check_app_limited: the congestion window has room but the
       peer window (or the application) is starving the sender — everything
       sent so far, probes included, will be acked under starvation and must
       not be read as a path-bandwidth measurement. *)
    if
      ((t.app_queue > 0 || want_fin) && t.peer_rwnd = 0)
      || (t.app_queue = 0 && (not want_fin) && available_window > 0)
    then t.rate_limited_mark <- Int.max t.rate_limited_mark t.snd_nxt;
    if (t.app_queue > 0 || want_fin) && t.peer_rwnd = 0 && inflight_now = 0 then begin
      (* Zero window and nothing in flight: no ACK will ever clock another
         send.  Start persist probing from the current RTO estimate. *)
      if not (Engine.armed t.persist) then begin
        t.persist_backoff <- Rtt.rto t.rtt;
        arm_persist t
      end
    end
    else if
      (t.app_queue > 0 || want_fin)
      && available_window > 0
      && t.in_stack < tsq_limit_bytes
    then begin
      let pacing_rate = t.cc.Cc.pacing_rate () in
      let stack_tso = Config.tso_autosize t.config ~pacing_rate_bps:pacing_rate in
      let payload_budget = Int.min stack_tso (Int.min available_window t.app_queue) in
      (* Sender-side silly-window avoidance: with data outstanding, wait for
         ACKs rather than dribbling sub-MSS segments. *)
      let sws_blocked =
        payload_budget < t.snd_mss && inflight_now > 0 && t.app_queue > payload_budget
      in
      if not sws_blocked then begin
        let fin_now = want_fin && t.app_queue <= payload_budget in
        if payload_budget > 0 || fin_now then begin
          let departure = Pacer.next_departure t.pacer ~now:(now t) in
          if departure > now t then begin
            (* The stack's own pacing says wait: wake up at the fq departure
               time and decide then.  The hook is only consulted for
               decisions the stack is about to commit. *)
            if not (Engine.armed t.send_timer) then Engine.arm_at t.send_timer ~time:departure
          end
          else begin
            let stack_decision =
              {
                Hooks.tso_bytes = Int.max 1 payload_budget;
                packet_payload = t.snd_mss;
                earliest_departure = departure;
              }
            in
            let proposed =
              t.hooks.Hooks.on_segment ~now:(now t) ~flow:t.flow ~phase:(t.cc.Cc.phase ())
                stack_decision
            in
            let decision = Hooks.clamp ~stack:stack_decision proposed in
            let payload = Int.min decision.Hooks.tso_bytes payload_budget in
            let fin_here = fin_now && payload = t.app_queue in
            let packets =
              build_segment t ~payload ~packet_payload:decision.Hooks.packet_payload ~fin:fin_here
            in
            let release = decision.Hooks.earliest_departure in
            t.app_queue <- t.app_queue - payload;
            t.snd_nxt <- t.snd_nxt + payload + (if fin_here then 1 else 0);
            if fin_here then t.fin_sent <- true;
            Pacer.commit t.pacer ~departure:release ~rate_bps:pacing_rate ~bytes:payload;
            log_push t.sent_log ~end_seq:t.snd_nxt ~sent_at:release;
            if not (Engine.armed t.rto) then arm_rto t;
            commit_segment t ~departure:release packets;
            try_send t
          end
        end
      end
    end
  end

let write t n =
  if n <= 0 then invalid_arg "Endpoint.write: byte count must be positive";
  if t.fin_pending then invalid_arg "Endpoint.write: connection is closing";
  t.app_queue <- t.app_queue + n;
  try_send t

let close t =
  if not t.fin_pending then begin
    t.fin_pending <- true;
    try_send t
  end

let send_dummy t n =
  if n <= 0 then invalid_arg "Endpoint.send_dummy: byte count must be positive";
  if t.fin_pending then invalid_arg "Endpoint.send_dummy: connection is closing";
  if t.state = Established_s && t.peer_rwnd = 0 then
    (* A closed peer window means the receiver has no buffer for anything —
       padding may not bypass flow control any more than data may. *)
    t.dummies_suppressed <- t.dummies_suppressed + 1
  else begin
    let pkt =
      Packet.data ~flow:t.flow ~dir:t.dir ~seq:t.snd_nxt ~ack:t.rcv_nxt
        ~payload:(Int.min n t.snd_mss) ~dummy:true ~rwnd:(advertise_window t) ()
    in
    (* Dummies respect pacing budget so padding cannot out-run the CCA. *)
    let rate = t.cc.Cc.pacing_rate () in
    let departure = Pacer.next_departure t.pacer ~now:(now t) in
    commit_segment t ~departure [| pkt |];
    Pacer.commit t.pacer ~departure ~rate_bps:rate ~bytes:pkt.Packet.payload
  end

let connect t =
  if t.state <> Closed then invalid_arg "Endpoint.connect: not closed";
  t.state <- Syn_sent;
  log_clear t.sent_log;
  log_push t.sent_log ~end_seq:1 ~sent_at:(now t);
  send_syn t ~rtx:false;
  arm_rto t

(* Only packets that passed through [transmit_segment] (data, FIN, dummies)
   were charged to the TSQ budget; pure ACKs and SYNs were not. *)
let notify_serialized t (p : Packet.t) =
  if (p.Packet.payload > 0 || p.Packet.fin || p.Packet.dummy) && t.in_stack > 0 then begin
    t.in_stack <- Int.max 0 (t.in_stack - Packet.wire_size p);
    try_send t
  end

(* ------------------------------------------------------------------ *)
(* Receiver                                                             *)

let schedule_ack t =
  t.unacked_pkts <- t.unacked_pkts + 1;
  if t.unacked_pkts >= t.config.Config.ack_every then send_pure_ack t
  else if not (Engine.armed t.delack) then
    Engine.arm t.delack ~delay:(Float.max t.config.Config.delayed_ack 1e-4)

(* Advance rcv_nxt to [seq_end], deliver [payload_delivered] real payload
   bytes, then pull now-contiguous out-of-order data.  The peer's FIN
   occupies one sequence number ([t.fin_seq]) that is NOT payload: byte
   accounting must stop short of it, and crossing it — whether in this
   segment, in drained out-of-order data, or in a retransmission overlap —
   is what makes the FIN "received".  Returns [true] when the FIN was
   newly delivered by this call (the caller owes the peer an immediate
   ACK). *)
let deliver_payload t n =
  if n > 0 then begin
    if not t.auto_read then t.rcv_buffered <- t.rcv_buffered + n;
    t.on_receive n
  end

let deliver_in_order t seq_end payload_delivered =
  t.rcv_nxt <- seq_end;
  deliver_payload t payload_delivered;
  let rec drain () =
    match t.ooo with
    | (lo, hi) :: rest when lo <= t.rcv_nxt ->
        let data_hi = match t.fin_seq with Some s -> Int.min hi s | None -> hi in
        let new_bytes = Int.max 0 (data_hi - t.rcv_nxt) in
        t.ooo <- rest;
        t.rcv_nxt <- Int.max t.rcv_nxt hi;
        deliver_payload t new_bytes;
        drain ()
    | _ -> ()
  in
  drain ();
  match t.fin_seq with
  | Some s when t.rcv_nxt > s && not t.fin_rcvd ->
      t.fin_rcvd <- true;
      t.on_fin ();
      true
  | _ -> false

(* Consume up to [n] delivered-but-unread bytes from the receive buffer
   (meaningful with [auto_read] off).  Re-opening buffer space re-opens the
   advertised window; per RFC 1122 receiver-side SWS avoidance the bigger
   window is only announced once it has grown by at least one MSS (or half
   the buffer) over what the peer last saw, via an immediate window-update
   ACK. *)
let read t n =
  if n < 0 then invalid_arg "Endpoint.read: negative byte count";
  let consumed = Int.min n t.rcv_buffered in
  t.rcv_buffered <- t.rcv_buffered - consumed;
  if consumed > 0 && t.state = Established_s && not t.fin_rcvd then begin
    let announced = Int.max 0 (t.rcv_adv_edge - t.rcv_nxt) in
    let grown = rcv_window t - announced in
    if grown >= Int.min t.config.Config.mss (t.config.Config.rcv_wnd / 2) then send_pure_ack t
  end;
  consumed

let process_ack t (p : Packet.t) =
  if p.Packet.is_ack && t.state = Established_s then begin
    let old_rwnd = t.peer_rwnd in
    (* Post-handshake windows arrive scaled by the peer's negotiated shift;
       SYN windows are always raw (RFC 7323). *)
    let rwnd = if p.Packet.syn then p.Packet.rwnd else p.Packet.rwnd lsl t.snd_wscale in
    t.peer_rwnd <- rwnd;
    if rwnd = 0 && old_rwnd > 0 then t.zero_windows <- t.zero_windows + 1;
    if rwnd > 0 && Engine.armed t.persist then begin
      (* The window re-opened: stop probing and restart the backoff. *)
      Engine.disarm t.persist;
      t.persist_backoff <- Rtt.rto t.rtt
    end;
    if p.Packet.ack > t.snd_una then begin
      let acked = p.Packet.ack - t.snd_una in
      t.snd_una <- p.Packet.ack;
      if t.rtx_next < t.snd_una then t.rtx_next <- t.snd_una;
      merge_sack t p.Packet.sack;
      t.dupacks <- 0;
      (* Recovery bookkeeping: a partial ACK (below the recovery point)
         means the next hole was lost too — retransmit it now (NewReno /
         RFC 6675 behaviour) instead of waiting for an RTO. *)
      if t.in_recovery then begin
        if t.snd_una >= t.recover_point then begin
          t.in_recovery <- false;
          t.rto_recovery <- false
        end
        else retransmit_holes ~presume_lost:t.rto_recovery t ~limit:(rtx_budget t)
      end;
      Rtt.reset_backoff t.rtt;
      if t.fin_sent && t.snd_una >= t.snd_nxt then t.fin_acked <- true;
      (* RTT sample from the newest fully-acked, never-retransmitted
         segment. *)
      let newest = log_retire t.sent_log ~una:t.snd_una in
      let rtt_for_cc =
        if newest >= 0 && t.sent_log.ends.(newest) > t.karn_floor then begin
          let sample = now t -. t.sent_log.sent_at.(newest) in
          Rtt.observe t.rtt sample;
          sample
        end
        else Option.value ~default:0.1 (Rtt.srtt t.rtt)
      in
      t.cc.Cc.on_ack ~now:(now t) ~acked ~rtt:rtt_for_cc ~inflight:(inflight t)
        ~limited:(t.snd_una <= t.rate_limited_mark);
      if inflight t > 0 then arm_rto t else Engine.disarm t.rto;
      try_send t
    end
    else if
      p.Packet.ack = t.snd_una && inflight t > 0 && p.Packet.payload = 0 && (not p.Packet.syn)
      && rwnd = old_rwnd && rwnd > 0
      (* RFC 5681: an ACK that changes the advertised window is a window
         update, not a duplicate — counting it toward the dupack threshold
         fakes the sender into spurious fast retransmits.  During a zero
         window the "duplicates" are just probe rejections. *)
    then begin
      t.dupacks <- t.dupacks + 1;
      merge_sack t p.Packet.sack;
      if
        (not t.in_recovery)
        && (t.dupacks >= 3 || sacked_bytes t >= 3 * t.config.Config.mss)
      then begin
        (* Enter loss recovery with the SACK scoreboard. *)
        t.in_recovery <- true;
        t.rto_recovery <- false;
        t.fast_recoveries <- t.fast_recoveries + 1;
        t.recover_point <- t.snd_nxt;
        t.rtx_next <- t.snd_una;
        t.cc.Cc.on_loss ~now:(now t);
        retransmit_holes t ~limit:(rtx_budget t);
        arm_rto t;
        try_send t
      end
      else if t.in_recovery then
        (* Each further dupack clocks out more hole retransmissions, up to
           the pipe budget. *)
        retransmit_holes t ~limit:(rtx_budget t)
    end
    else if p.Packet.ack = t.snd_una && rwnd <> old_rwnd then begin
      (* Pure window update (same cumulative ACK, different window). *)
      if rwnd > 0 && old_rwnd = 0 && inflight t > 0 then begin
        (* The zero-window probe sits unacknowledged below the re-opened
           window: plug the hole now instead of waiting out a timeout. *)
        retransmit_head t;
        arm_rto t
      end;
      try_send t
    end
  end

(* SYN-time options negotiation (both the passive side reading the SYN and
   the active side reading the SYN|ACK).  MSS: effective send MSS is the
   minimum of ours and the peer's offer.  SACK and window scaling are in
   effect only when both sides offered them; an incoming shift count above
   14 is used as 14 (RFC 7323 clamp).  A SYN with no options is a peer that
   negotiates nothing — SACK off, windows unscaled. *)
let apply_syn_options t (p : Packet.t) =
  (match p.Packet.mss_opt with
  | Some m -> t.snd_mss <- Int.max 1 (Int.min t.config.Config.mss m)
  | None -> ());
  t.sack_ok <- t.config.Config.sack && p.Packet.sack_permitted;
  match p.Packet.wscale_opt with
  | Some s when t.config.Config.wscale ->
      t.wscale_on <- true;
      t.snd_wscale <- Int.min 14 (Int.max 0 s);
      t.rcv_wscale <- Config.wscale_shift t.config
  | _ ->
      t.wscale_on <- false;
      t.snd_wscale <- 0;
      t.rcv_wscale <- 0

(* Once both directions are done ([closed]) no timer has work left; a
   pending delayed-ACK, persist probe, or parked pacer wakeup would fire
   into a dead connection and keep the engine artificially busy. *)
let quiesce t = List.iter Engine.disarm [ t.rto; t.persist; t.delack; t.send_timer ]

(* The handshake's RTT sample, from the SYN (or SYN|ACK) record, which the
   handshake then retires. *)
let handshake_sample t =
  let log = t.sent_log in
  if log.len > 0 && t.karn_floor < 1 then begin
    let i = log_newest log in
    if log.ends.(i) = 1 then Rtt.observe t.rtt (now t -. log.sent_at.(i))
  end;
  log_clear log

let rec receive t (p : Packet.t) =
  if p.Packet.dummy then ( (* padding: observe and discard; never acknowledged *) )
  else begin
    (match (t.state, p.Packet.syn, p.Packet.is_ack) with
    | Closed, true, false ->
        (* Passive open: answer SYN with SYN|ACK echoing the agreed options. *)
        t.state <- Syn_rcvd;
        t.rcv_nxt <- 1;
        apply_syn_options t p;
        t.peer_rwnd <- p.Packet.rwnd;
        log_clear t.sent_log;
        log_push t.sent_log ~end_seq:1 ~sent_at:(now t);
        send_synack t ~rtx:false;
        arm_rto t
    | Syn_sent, true, true ->
        (* SYN|ACK: complete the three-way handshake.  Karn's rule: if our
           SYN was retransmitted ([karn_floor] >= its end_seq of 1), this
           SYN|ACK may answer either copy — no RTT sample. *)
        t.rcv_nxt <- 1;
        t.snd_una <- 1;
        t.snd_nxt <- Int.max t.snd_nxt 1;
        handshake_sample t;
        apply_syn_options t p;
        t.peer_rwnd <- p.Packet.rwnd;
        Engine.disarm t.rto;
        t.state <- Established_s;
        send_pure_ack t;
        t.on_established ();
        try_send t
    | Syn_rcvd, false, true when p.Packet.ack >= 1 ->
        (* Final handshake ACK.  Same Karn guard: a retransmitted SYN|ACK
           makes this sample ambiguous. *)
        t.snd_una <- Int.max t.snd_una 1;
        t.snd_nxt <- Int.max t.snd_nxt 1;
        handshake_sample t;
        t.peer_rwnd <- p.Packet.rwnd lsl t.snd_wscale;
        Engine.disarm t.rto;
        t.state <- Established_s;
        t.on_established ();
        process_data t p;
        try_send t
    | Syn_rcvd, true, false ->
        (* Duplicate SYN: retransmit the SYN|ACK.  The SYN|ACK has now been
           sent twice, so the eventual handshake ACK is ambiguous for RTT
           sampling (Karn). *)
        t.retransmissions <- t.retransmissions + 1;
        t.karn_floor <- Int.max 1 t.karn_floor;
        send_synack t ~rtx:true
    | _ ->
        process_ack t p;
        process_data t p);
    if closed t then quiesce t
  end

and process_data t (p : Packet.t) =
  if (p.Packet.payload > 0 || p.Packet.fin) && t.state = Established_s then begin
    let seq_end = Packet.seq_end p in
    let data_end = seq_end - if p.Packet.fin then 1 else 0 in
    if p.Packet.payload > 0 && data_end > t.rcv_adv_edge then
      (* Payload beyond the advertised right edge — a zero-window probe, or
         data sent against a stale window.  Drop the whole segment and
         re-ACK so the sender sees the current window.  (A bare FIN is
         never rejected: it consumes no buffer.) *)
      send_pure_ack t
    else begin
    (* Remember where the peer's FIN sits in sequence space, wherever the
       carrying segment lands (in order, buffered out of order, or inside a
       retransmission overlap): delivery past it is what closes the
       receive side. *)
    if p.Packet.fin then t.fin_seq <- Some (seq_end - 1);
    if p.Packet.seq = t.rcv_nxt then begin
      let fin_now = deliver_in_order t seq_end p.Packet.payload in
      if fin_now then send_pure_ack t else schedule_ack t
    end
    else if p.Packet.seq > t.rcv_nxt then begin
      (* Out of order: buffer and emit an immediate duplicate ACK. *)
      t.ooo <- insert_interval t.ooo p.Packet.seq seq_end;
      send_pure_ack t
    end
    else if seq_end > t.rcv_nxt then begin
      (* Partial overlap with delivered data (retransmission overshoot).
         Only the sequence range beyond rcv_nxt is new, and the FIN's
         sequence-space slot is not a payload byte. *)
      let data_end = seq_end - if p.Packet.fin then 1 else 0 in
      let fin_now = deliver_in_order t seq_end (Int.max 0 (data_end - t.rcv_nxt)) in
      if fin_now then send_pure_ack t else schedule_ack t
    end
    else
      (* Pure duplicate: re-ACK so the sender makes progress. *)
      send_pure_ack t
    end
  end

let delack_fire t = if t.unacked_pkts > 0 then send_pure_ack t

(* Defined after the sender and receiver so that each timer's callback is
   built once, here.  The callbacks need the endpoint, which holds the
   timers: [self] ties the knot. *)
let create ~engine ~config ~cc ~flow ~dir ?cpu ?(hooks = Hooks.default) ~tx () =
  let self = ref None in
  let on f () = Option.iter f !self in
  let t =
    {
      engine;
      config;
      cc;
      flow;
      dir;
      cpu;
      hooks;
      tx;
      state = Closed;
      fin_rcvd = false;
      fin_acked = false;
      snd_mss = config.Config.mss;
      sack_ok = false;
      wscale_on = false;
      snd_wscale = 0;
      rcv_wscale = 0;
      snd_una = 0;
      snd_nxt = 0;
      app_queue = 0;
      fin_pending = false;
      fin_sent = false;
      (* Nothing is known about the peer's window until its SYN arrives. *)
      peer_rwnd = 0;
      dupacks = 0;
      karn_floor = 0;
      sacked = [];
      in_recovery = false;
      rto_recovery = false;
      recover_point = 0;
      rtx_next = 0;
      sent_log = log_create ();
      rto = Engine.timer engine (on handle_rto);
      send_timer = Engine.timer engine (on try_send);
      persist = Engine.timer engine (on persist_fire);
      persist_backoff = Rtt.rto_init;
      rate_limited_mark = 0;
      in_stack = 0;
      pacer = Pacer.create ();
      rtt = Rtt.create ();
      rcv_nxt = 0;
      ooo = [];
      fin_seq = None;
      unacked_pkts = 0;
      delack = Engine.timer engine (on delack_fire);
      auto_read = true;
      rcv_buffered = 0;
      rcv_adv_edge = 0;
      on_established = (fun () -> ());
      on_receive = (fun _ -> ());
      on_fin = (fun () -> ());
      retransmissions = 0;
      fast_recoveries = 0;
      rto_events = 0;
      segments_sent = 0;
      packets_sent = 0;
      persist_probes = 0;
      zero_windows = 0;
      dummies_suppressed = 0;
    }
  in
  self := Some t;
  t

(* ------------------------------------------------------------------ *)
(* Invariant-monitor surface.  Defined last: the [inspection] field names
   deliberately mirror the internal state and would otherwise shadow the
   mutable fields of [t] for the code above. *)

type inspection = {
  snd_una : int;
  snd_nxt : int;
  rcv_nxt : int;
  cwnd : int;
  inflight : int;
  in_stack : int;
  app_queue : int;
  sacked : (int * int) list;
  in_recovery : bool;
  recover_point : int;
  rtx_next : int;
  fin_sent : bool;
  fin_acked : bool;
  retransmissions : int;
  pacer_next_free : float;
  peer_rwnd : int;
  adv_wnd : int;
  rcv_buffered : int;
  rcv_capacity : int;
  snd_mss : int;
  sack_ok : bool;
  snd_wscale : int;
  rcv_wscale : int;
  persist_armed : bool;
  delack_armed : bool;
  persist_probes : int;
  zero_windows : int;
}

let inspect (t : t) : inspection =
  {
    snd_una = t.snd_una;
    snd_nxt = t.snd_nxt;
    rcv_nxt = t.rcv_nxt;
    cwnd = t.cc.Cc.cwnd ();
    inflight = t.snd_nxt - t.snd_una;
    in_stack = t.in_stack;
    app_queue = t.app_queue;
    sacked = t.sacked;
    in_recovery = t.in_recovery;
    recover_point = t.recover_point;
    rtx_next = t.rtx_next;
    fin_sent = t.fin_sent;
    fin_acked = t.fin_acked;
    retransmissions = t.retransmissions;
    pacer_next_free = Pacer.next_free t.pacer;
    peer_rwnd = t.peer_rwnd;
    adv_wnd = Int.max 0 (t.rcv_adv_edge - t.rcv_nxt);
    rcv_buffered = t.rcv_buffered;
    rcv_capacity = t.config.Config.rcv_wnd;
    snd_mss = t.snd_mss;
    sack_ok = t.sack_ok;
    snd_wscale = t.snd_wscale;
    rcv_wscale = t.rcv_wscale;
    persist_armed = Engine.armed t.persist;
    delack_armed = Engine.armed t.delack;
    persist_probes = t.persist_probes;
    zero_windows = t.zero_windows;
  }

let inject_pacer_jump (t : t) delta = Pacer.jump t.pacer delta
