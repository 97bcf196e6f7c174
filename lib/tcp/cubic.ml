let beta = 0.7
let c = 0.4

type state = {
  mutable cwnd : int;
  mutable ssthresh : int;
  mutable phase : Cc.phase;
  mutable srtt : float option;
  mutable w_max : float;  (* window (segments) before the last reduction *)
  mutable epoch_start : float option;  (* start of the current growth epoch *)
  mutable k : float;  (* time to regain w_max *)
  mutable tcp_cwnd : float;  (* Reno-equivalent window for the friendly region *)
  mutable recovery_acks : int;
}

let make (config : Config.t) : Cc.t =
  let s =
    {
      cwnd = Config.initial_cwnd_pkts * config.mss;
      ssthresh = Config.initial_ssthresh;
      phase = Cc.Slow_start;
      srtt = None;
      w_max = 0.0;
      epoch_start = None;
      k = 0.0;
      tcp_cwnd = 0.0;
      recovery_acks = 0;
    }
  in
  let segs bytes = float_of_int bytes /. float_of_int config.mss in
  let bytes segments = int_of_float (segments *. float_of_int config.mss) in
  let update_srtt rtt =
    s.srtt <- Some (match s.srtt with None -> rtt | Some v -> (0.875 *. v) +. (0.125 *. rtt))
  in
  let cubic_update ~now ~rtt ~acked =
    (match s.epoch_start with
    | Some _ -> ()
    | None ->
        s.epoch_start <- Some now;
        let cwnd_segs = segs s.cwnd in
        if cwnd_segs < s.w_max then s.k <- Float.cbrt ((s.w_max -. cwnd_segs) /. c)
        else s.k <- 0.0;
        s.tcp_cwnd <- cwnd_segs);
    let t = now -. Option.get s.epoch_start +. rtt in
    let target = (c *. ((t -. s.k) ** 3.0)) +. s.w_max in
    (* TCP-friendly region: grow at least as fast as Reno would. *)
    s.tcp_cwnd <- s.tcp_cwnd +. (3.0 *. (1.0 -. beta) /. (1.0 +. beta) *. segs acked /. segs s.cwnd);
    let target = Float.max target s.tcp_cwnd in
    let cwnd_segs = segs s.cwnd in
    if target > cwnd_segs then begin
      (* Approach the target over one RTT's worth of ACKs. *)
      let incr = (target -. cwnd_segs) /. cwnd_segs *. segs acked in
      s.cwnd <- Int.min Config.snd_buf (s.cwnd + bytes incr)
    end
  in
  let on_ack ~now ~acked ~rtt ~inflight:_ ~limited:_ =
    update_srtt rtt;
    (match s.phase with
    | Cc.Recovery ->
        s.recovery_acks <- s.recovery_acks + acked;
        if s.recovery_acks >= s.ssthresh then
          s.phase <- (if s.cwnd < s.ssthresh then Cc.Slow_start else Cc.Congestion_avoidance)
    | _ -> ());
    match s.phase with
    | Cc.Slow_start ->
        s.cwnd <- Int.min Config.snd_buf (s.cwnd + acked);
        if s.cwnd >= s.ssthresh then begin
          s.cwnd <- s.ssthresh;
          s.phase <- Cc.Congestion_avoidance
        end
    | Cc.Congestion_avoidance -> cubic_update ~now ~rtt ~acked
    | Cc.Recovery | Cc.Startup | Cc.Drain | Cc.Probe_bw -> ()
  in
  let reduce () =
    s.w_max <- segs s.cwnd;
    s.epoch_start <- None;
    s.ssthresh <- Int.max (2 * config.mss) (int_of_float (beta *. float_of_int s.cwnd));
    s.cwnd <- s.ssthresh
  in
  let on_loss ~now:_ =
    if s.phase <> Cc.Recovery then begin
      reduce ();
      s.recovery_acks <- 0;
      s.phase <- Cc.Recovery
    end
  in
  let on_rto ~now:_ =
    reduce ();
    s.cwnd <- config.mss;
    s.phase <- Cc.Slow_start
  in
  {
    Cc.name = "cubic";
    on_ack;
    on_loss;
    on_rto;
    cwnd = (fun () -> s.cwnd);
    pacing_rate = (fun () -> Cc.generic_pacing_rate ~cwnd:s.cwnd ~srtt:s.srtt ~phase:s.phase);
    phase = (fun () -> s.phase);
  }
