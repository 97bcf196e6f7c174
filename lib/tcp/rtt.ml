type t = {
  config : Config.t;
  mutable srtt : float option;
  mutable rttvar : float option;
  mutable backoff : float;
}

let create config = { config; srtt = None; rttvar = None; backoff = 1.0 }

let observe t sample =
  if sample < 0.0 then invalid_arg "Rtt.observe: negative sample";
  match t.srtt with
  | None ->
      t.srtt <- Some sample;
      t.rttvar <- Some (sample /. 2.0)
  | Some srtt ->
      let rttvar = Option.get t.rttvar in
      let rttvar = (0.75 *. rttvar) +. (0.25 *. Float.abs (srtt -. sample)) in
      let srtt = (0.875 *. srtt) +. (0.125 *. sample) in
      t.srtt <- Some srtt;
      t.rttvar <- Some rttvar

let srtt t = t.srtt
let rttvar t = t.rttvar

let rto t =
  let base =
    match (t.srtt, t.rttvar) with
    | Some srtt, Some rttvar -> srtt +. (4.0 *. rttvar)
    | _ -> t.config.Config.rto_init
  in
  let rto = Float.max t.config.Config.rto_min base *. t.backoff in
  Float.min rto 60.0

let backoff t = t.backoff <- Float.min (t.backoff *. 2.0) 64.0
let reset_backoff t = t.backoff <- 1.0
