type phase = Slow_start | Congestion_avoidance | Recovery | Startup | Drain | Probe_bw

let phase_name = function
  | Slow_start -> "slow-start"
  | Congestion_avoidance -> "congestion-avoidance"
  | Recovery -> "recovery"
  | Startup -> "startup"
  | Drain -> "drain"
  | Probe_bw -> "probe-bw"

type t = {
  name : string;
  on_ack : now:float -> acked:int -> rtt:float -> inflight:int -> limited:bool -> unit;
  on_loss : now:float -> unit;
  on_rto : now:float -> unit;
  cwnd : unit -> int;
  pacing_rate : unit -> float;
  phase : unit -> phase;
}

type factory = Config.t -> t

let generic_pacing_rate ~cwnd ~srtt ~phase =
  match srtt with
  | None -> infinity
  | Some srtt when srtt > 0.0 ->
      let factor = match phase with Slow_start | Startup -> 2.0 | _ -> 1.2 in
      factor *. float_of_int (cwnd * 8) /. srtt
  | Some _ -> infinity
