type t = {
  mss : int;
  header_bytes : int;
  initial_cwnd_pkts : int;
  initial_ssthresh : int;
  rto_min : float;
  rto_init : float;
  ack_every : int;
  delayed_ack : float;
  rcv_wnd : int;
  snd_buf : int;
  tso_max_bytes : int;
  tso_min_bytes : int;
  pacing : bool;
  pacing_segment_interval : float;
  tsq_limit_bytes : int;
  sack : bool;
  wscale : bool;
  persist_max : float;
  pto_max : float;
  idle_timeout : float;
  amp_factor : int;
}

let default =
  {
    mss = 1448;
    header_bytes = Stob_net.Packet.default_header_bytes;
    initial_cwnd_pkts = 10;
    initial_ssthresh = max_int;
    rto_min = 0.2;
    rto_init = 1.0;
    ack_every = 2;
    delayed_ack = 0.0;
    rcv_wnd = 16 * 1024 * 1024;
    snd_buf = 16 * 1024 * 1024;
    tso_max_bytes = 65535;
    tso_min_bytes = 2 * 1448;
    pacing = true;
    pacing_segment_interval = 1e-3;
    tsq_limit_bytes = 256 * 1024;
    sack = true;
    wscale = true;
    persist_max = 60.0;
    pto_max = 10.0;
    idle_timeout = 30.0;
    amp_factor = 3;
  }

(* Smallest shift count that makes [rcv_wnd] representable in the 16-bit
   window field, clamped to the RFC 7323 maximum of 14. *)
let wscale_shift t =
  let rec go s = if s >= 14 || t.rcv_wnd lsr s <= 0xFFFF then s else go (s + 1) in
  go 0

let tso_autosize t ~pacing_rate_bps =
  let target_bytes =
    if pacing_rate_bps = infinity || pacing_rate_bps <= 0.0 then t.tso_max_bytes
    else int_of_float (pacing_rate_bps *. t.pacing_segment_interval /. 8.0)
  in
  let clamped = Int.max t.tso_min_bytes (Int.min t.tso_max_bytes target_bytes) in
  let segments = Int.max 1 (clamped / t.mss) in
  segments * t.mss
