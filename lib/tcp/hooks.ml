type decision = { tso_bytes : int; packet_payload : int; earliest_departure : float }

type t = { on_segment : now:float -> flow:int -> phase:Cc.phase -> decision -> decision }

let default = { on_segment = (fun ~now:_ ~flow:_ ~phase:_ d -> d) }

let clamp ~stack proposed =
  {
    tso_bytes = Int.max 1 (Int.min stack.tso_bytes proposed.tso_bytes);
    packet_payload = Int.max 1 (Int.min stack.packet_payload proposed.packet_payload);
    earliest_departure = Float.max stack.earliest_departure proposed.earliest_departure;
  }
