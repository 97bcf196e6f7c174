type stream_chunk = { stream : int; offset : int; length : int; fin : bool }

type t = Stream of stream_chunk | Ack of { ranges : (int * int) list } | Padding of int | Ping

(* Frame header estimates: type byte + varint fields. *)
let wire_bytes = function
  | Stream c -> 8 + c.length  (* type + stream id + offset + length varints *)
  | Ack { ranges } -> 8 + (4 * List.length ranges)
  | Padding n -> n
  | Ping -> 1

let is_ack_eliciting = function Ack _ -> false | Stream _ | Padding _ | Ping -> true
