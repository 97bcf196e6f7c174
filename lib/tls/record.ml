type config = { max_plaintext : int; overhead : int }

let default = { max_plaintext = 16384; overhead = 22 }

type padding =
  | No_padding
  | Pad_to_multiple of int
  | Pad_to_fixed of int
  | Pad_random of Stob_util.Rng.t * int

let fragment config n =
  if n <= 0 then invalid_arg "Record.fragment: byte count must be positive";
  let rec go acc remaining =
    if remaining <= 0 then List.rev acc
    else
      let take = Int.min config.max_plaintext remaining in
      go (take :: acc) (remaining - take)
  in
  go [] n

let padded_plaintext padding size =
  match padding with
  | No_padding -> size
  | Pad_to_multiple n when n > 0 -> (size + n - 1) / n * n
  | Pad_to_multiple _ -> size
  | Pad_to_fixed n -> Int.max size n
  | Pad_random (rng, n) when n > 0 -> size + Stob_util.Rng.int rng (n + 1)
  | Pad_random _ -> size

let records_for config ~padding n =
  List.map (fun frag -> padded_plaintext padding frag + config.overhead) (fragment config n)

let wire_bytes config ~padding n = List.fold_left ( + ) 0 (records_for config ~padding n)

let client_hello_bytes rng = Stob_util.Rng.int_in rng 300 600
let client_finished_bytes rng = Stob_util.Rng.int_in rng 60 80
