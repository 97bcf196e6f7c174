type state = {
  mutable cwnd : int;
  mutable ssthresh : int;
  mutable phase : Cc.phase;
  mutable srtt : float option;
  mutable recovery_acks : int;  (* bytes acked since entering recovery *)
}

let make (config : Config.t) : Cc.t =
  let s =
    {
      cwnd = Config.initial_cwnd_pkts * config.mss;
      ssthresh = Config.initial_ssthresh;
      phase = Cc.Slow_start;
      srtt = None;
      recovery_acks = 0;
    }
  in
  let update_srtt rtt =
    s.srtt <- Some (match s.srtt with None -> rtt | Some v -> (0.875 *. v) +. (0.125 *. rtt))
  in
  let on_ack ~now:_ ~acked ~rtt ~inflight:_ ~limited:_ =
    update_srtt rtt;
    (match s.phase with
    | Cc.Recovery ->
        (* Leave recovery once a full window has been acknowledged. *)
        s.recovery_acks <- s.recovery_acks + acked;
        if s.recovery_acks >= s.ssthresh then
          s.phase <- (if s.cwnd < s.ssthresh then Cc.Slow_start else Cc.Congestion_avoidance)
    | _ -> ());
    (match s.phase with
    | Cc.Slow_start ->
        s.cwnd <- s.cwnd + acked;
        if s.cwnd >= s.ssthresh then begin
          s.cwnd <- s.ssthresh;
          s.phase <- Cc.Congestion_avoidance
        end
    | Cc.Congestion_avoidance ->
        (* cwnd += mss * (acked bytes / cwnd): one MSS per window per RTT. *)
        let incr = config.mss * acked / Int.max 1 s.cwnd in
        s.cwnd <- s.cwnd + Int.max 0 incr
    | Cc.Recovery | Cc.Startup | Cc.Drain | Cc.Probe_bw -> ());
    s.cwnd <- Int.min s.cwnd Config.snd_buf
  in
  let on_loss ~now:_ =
    if s.phase <> Cc.Recovery then begin
      s.ssthresh <- Int.max (2 * config.mss) (s.cwnd / 2);
      s.cwnd <- s.ssthresh;
      s.recovery_acks <- 0;
      s.phase <- Cc.Recovery
    end
  in
  let on_rto ~now:_ =
    s.ssthresh <- Int.max (2 * config.mss) (s.cwnd / 2);
    s.cwnd <- config.mss;
    s.phase <- Cc.Slow_start
  in
  {
    Cc.name = "reno";
    on_ack;
    on_loss;
    on_rto;
    cwnd = (fun () -> s.cwnd);
    pacing_rate = (fun () -> Cc.generic_pacing_rate ~cwnd:s.cwnd ~srtt:s.srtt ~phase:s.phase);
    phase = (fun () -> s.phase);
  }
