let startup_gain = 2.885
let drain_gain = 1.0 /. 2.885
let probe_gains = [| 1.25; 0.75; 1.0; 1.0; 1.0; 1.0; 1.0; 1.0 |]
let bw_window_rounds = 10

type state = {
  mutable phase : Cc.phase;
  mutable min_rtt : float;
  mutable bw_samples : (int * float) list;  (* (round, bits/s), newest first *)
  mutable round : int;
  mutable delivered : int;  (* cumulative bytes delivered *)
  mutable next_round_delivered : int;
  mutable full_bw : float;
  mutable full_bw_rounds : int;
  mutable cycle_index : int;
  mutable cycle_start : float;
  mutable cwnd : int;
  mutable rate_epoch_time : float;  (* start of the current delivery-rate sample *)
  mutable rate_epoch_delivered : int;
}

let make (config : Config.t) : Cc.t =
  let s =
    {
      phase = Cc.Startup;
      min_rtt = infinity;
      bw_samples = [];
      round = 0;
      delivered = 0;
      next_round_delivered = 0;
      full_bw = 0.0;
      full_bw_rounds = 0;
      cycle_index = 0;
      cycle_start = 0.0;
      cwnd = Config.initial_cwnd_pkts * config.mss;
      rate_epoch_time = -1.0;
      rate_epoch_delivered = 0;
    }
  in
  let btl_bw () = List.fold_left (fun acc (_, bw) -> Float.max acc bw) 0.0 s.bw_samples in
  let bdp_bytes () =
    if s.min_rtt = infinity then Config.initial_cwnd_pkts * config.mss
    else int_of_float (btl_bw () *. s.min_rtt /. 8.0)
  in
  let pacing_gain () =
    match s.phase with
    | Cc.Startup -> startup_gain
    | Cc.Drain -> drain_gain
    | Cc.Probe_bw -> probe_gains.(s.cycle_index)
    | _ -> 1.0
  in
  let on_ack ~now ~acked ~rtt ~inflight ~limited =
    if rtt < s.min_rtt then s.min_rtt <- rtt;
    s.delivered <- s.delivered + acked;
    (* A "round" is one window's worth of delivery. *)
    let new_round = s.delivered >= s.next_round_delivered in
    if new_round then begin
      s.round <- s.round + 1;
      s.next_round_delivered <- s.delivered + inflight
    end;
    (* Delivery-rate sample: bytes delivered over elapsed wall time since
       the sample epoch (the ACK-clock rate), not acked/rtt — several ACKs
       arrive per RTT, so the latter underestimates grossly.  The windowed
       max filters out ACK compression. *)
    (if s.rate_epoch_time < 0.0 || limited then begin
       (* App/rwnd-limited delivery measures the starvation, not the path:
          a persist-probe byte acked across a zero-window stall reads as a
          few bits per second, and because probe acks advance the round
          counter, inserting it would flush every healthy sample from the
          windowed max — collapsing the pacing rate and wedging the flow
          (nothing is ever delivered again to re-measure).  Restart the
          sample epoch and admit nothing. *)
       s.rate_epoch_time <- now;
       s.rate_epoch_delivered <- s.delivered
     end
     else
       let min_interval =
         if s.min_rtt = infinity then 1e-5 else Float.max 1e-6 (s.min_rtt /. 4.0)
       in
       if now -. s.rate_epoch_time >= min_interval then begin
         let sample =
           float_of_int ((s.delivered - s.rate_epoch_delivered) * 8)
           /. (now -. s.rate_epoch_time)
         in
         s.rate_epoch_time <- now;
         s.rate_epoch_delivered <- s.delivered;
         s.bw_samples <-
           (s.round, sample)
           :: List.filter (fun (r, _) -> r > s.round - bw_window_rounds) s.bw_samples
       end);
    let bw = btl_bw () in
    (match s.phase with
    | Cc.Startup ->
        (* Exit when bandwidth stopped growing >= 25% for three consecutive
           rounds (evaluated once per round, as in BBR v1). *)
        if new_round then begin
          if bw > s.full_bw *. 1.25 then begin
            s.full_bw <- bw;
            s.full_bw_rounds <- 0
          end
          else begin
            s.full_bw_rounds <- s.full_bw_rounds + 1;
            if s.full_bw_rounds >= 3 then s.phase <- Cc.Drain
          end
        end
    | Cc.Drain ->
        if inflight <= bdp_bytes () then begin
          s.phase <- Cc.Probe_bw;
          s.cycle_index <- 0;
          s.cycle_start <- now
        end
    | Cc.Probe_bw ->
        let cycle_len = if s.min_rtt = infinity then 0.01 else Float.max s.min_rtt 1e-4 in
        if now -. s.cycle_start >= cycle_len then begin
          s.cycle_start <- now;
          s.cycle_index <- (s.cycle_index + 1) mod Array.length probe_gains
        end
    | _ -> ());
    let gain = match s.phase with Cc.Startup -> startup_gain | _ -> 2.0 in
    s.cwnd <-
      Int.max (4 * config.mss)
        (Int.min Config.snd_buf (int_of_float (gain *. float_of_int (bdp_bytes ()))))
  in
  let on_loss ~now:_ = () in
  let on_rto ~now:_ = s.cwnd <- config.mss in
  {
    Cc.name = "bbr";
    on_ack;
    on_loss;
    on_rto;
    cwnd = (fun () -> s.cwnd);
    pacing_rate =
      (fun () ->
        let bw = btl_bw () in
        if bw <= 0.0 then infinity else pacing_gain () *. bw);
    phase = (fun () -> s.phase);
  }
