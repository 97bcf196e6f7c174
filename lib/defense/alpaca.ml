module Trace = Stob_net.Trace
module Packet = Stob_net.Packet

type params = {
  lambda : int;  (** Object-size quantum, bytes. *)
  burst_gap : float;  (** Silence that separates two objects, seconds. *)
  dummy_size : int;
}

let params = { lambda = 8 * 1024; burst_gap = 0.025; dummy_size = 1500 }

(* Group the incoming packets into bursts separated by > burst_gap. *)
let bursts params trace =
  let events = List.init (Trace.length trace) (Trace.get trace) in
  let incoming = List.filter (fun e -> e.Trace.dir = Packet.Incoming) events in
  let rec go acc current last_time = function
    | [] -> List.rev (if current = [] then acc else List.rev current :: acc)
    | (e : Trace.event) :: rest ->
        if current <> [] && e.Trace.time -. last_time > params.burst_gap then
          go (List.rev current :: acc) [ e ] e.Trace.time rest
        else go acc (e :: current) e.Trace.time rest
  in
  go [] [] 0.0 incoming

let apply trace =
  let padding =
    List.concat_map
      (fun burst ->
        let total = List.fold_left (fun acc e -> acc + e.Trace.size) 0 burst in
        let target = (total + params.lambda - 1) / params.lambda * params.lambda in
        let deficit = target - total in
        let tail_time =
          List.fold_left (fun acc (e : Trace.event) -> Float.max acc e.Trace.time) 0.0 burst
        in
        let n = (deficit + params.dummy_size - 1) / params.dummy_size in
        List.init n (fun i ->
            {
              Trace.time = tail_time +. (float_of_int (i + 1) *. 1e-4);
              dir = Packet.Incoming;
              size = (if i = n - 1 then deficit - ((n - 1) * params.dummy_size) else params.dummy_size);
            }))
      (bursts params trace)
  in
  Trace.concat_sorted [ trace; Trace.of_events (Array.of_list padding) ]
