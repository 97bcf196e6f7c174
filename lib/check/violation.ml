type t = { invariant : string; time : float; flow : int option; detail : string }

let make ~invariant ~time ?flow detail = { invariant; time; flow; detail }

let pp ppf v =
  Format.fprintf ppf "[%.6fs]%s %s: %s" v.time
    (match v.flow with None -> "" | Some f -> Printf.sprintf " flow %d" f)
    v.invariant v.detail

let to_string v = Format.asprintf "%a" pp v
