type t = {
  mss : int;
  header_bytes : int;
  ack_every : int;
  delayed_ack : float;
  rcv_wnd : int;
  tso_min_bytes : int;
  sack : bool;
  wscale : bool;
}

let default =
  {
    mss = 1448;
    header_bytes = Stob_net.Packet.default_header_bytes;
    ack_every = 2;
    delayed_ack = 0.0;
    rcv_wnd = 16 * 1024 * 1024;
    tso_min_bytes = 2 * 1448;
    sack = true;
    wscale = true;
  }

let initial_cwnd_pkts = 10
let initial_ssthresh = max_int
let snd_buf = 16 * 1024 * 1024

(* Largest transport segment handed to the NIC (a UDP GSO burst for
   QUIC). *)
let tso_max_bytes = 65535

(* TSO autosizing target: pick segment sizes so one segment departs
   roughly every this many seconds at the current pacing rate (the Linux
   behaviour that shrinks TSO on long-RTT paths). *)
let pacing_segment_interval = 1e-3

(* Smallest shift count that makes [rcv_wnd] representable in the 16-bit
   window field, clamped to the RFC 7323 maximum of 14. *)
let wscale_shift t =
  let rec go s = if s >= 14 || t.rcv_wnd lsr s <= 0xFFFF then s else go (s + 1) in
  go 0

let tso_autosize t ~pacing_rate_bps =
  let target_bytes =
    if pacing_rate_bps = infinity || pacing_rate_bps <= 0.0 then tso_max_bytes
    else int_of_float (pacing_rate_bps *. pacing_segment_interval /. 8.0)
  in
  let clamped = Int.max t.tso_min_bytes (Int.min tso_max_bytes target_bytes) in
  let segments = Int.max 1 (clamped / t.mss) in
  segments * t.mss
