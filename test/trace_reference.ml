(* The record-array trace, preserved as it was before [Stob_net.Trace]
   became two bigarray lanes, with the record-array Section 3 emulation
   beside it.  Do not "improve" this file: its whole value is being the
   original whose observers, codecs and defense outputs the lane
   implementation must reproduce exactly (the net.packed and
   defense.emulate batteries are the gates, kfp_reference featurizes it).

   [event] is [Stob_net.Trace.event], so one event value moves between the
   two representations unchanged; [of_lanes] (the events of a lane trace)
   is the only addition. *)

module Packet = Stob_net.Packet

type event = Stob_net.Trace.event = { time : float; dir : Packet.direction; size : int }

(* [+1] for [Outgoing], [-1] for [Incoming]: the signed encoding of the WF
   literature. *)
let direction_sign = function Packet.Outgoing -> 1 | Packet.Incoming -> -1

type t = event array

let empty = [||]
let length = Array.length

let is_sorted t =
  let ok = ref true in
  for i = 1 to Array.length t - 1 do
    if t.(i).time < t.(i - 1).time then ok := false
  done;
  !ok

(* Non-decreasing under [<=].  Unlike [is_sorted]'s [<], this fails across
   a NaN timestamp, so a trace that passes is its own stable sort.  Captures
   and the emulated defenses hand [sort] such traces almost always. *)
let in_order t =
  let rec go i = i >= Array.length t || (t.(i - 1).time <= t.(i).time && go (i + 1)) in
  go 1

let sort t =
  if in_order t then Array.copy t
  else begin
    (* Array.sort is not stable; sort (time, original index) pairs instead
       so equal timestamps keep their relative order. *)
    let indexed = Array.mapi (fun i e -> (e.time, i, e)) t in
    Array.sort (fun (t1, i1, _) (t2, i2, _) -> if t1 <> t2 then compare t1 t2 else compare i1 i2) indexed;
    Array.map (fun (_, _, e) -> e) indexed
  end

let prefix t n = if n >= Array.length t then Array.copy t else Array.sub t 0 (max n 0)

let duration t =
  let n = Array.length t in
  if n < 2 then 0.0 else t.(n - 1).time -. t.(0).time

let select ?dir t =
  match dir with None -> t | Some d -> Array.of_list (List.filter (fun e -> e.dir = d) (Array.to_list t))

let count ?dir t = Array.length (select ?dir t)

let bytes ?dir t = Array.fold_left (fun acc e -> acc + e.size) 0 (select ?dir t)

let times ?dir t = Array.map (fun e -> e.time) (select ?dir t)
let sizes ?dir t = Array.map (fun e -> float_of_int e.size) (select ?dir t)

let interarrivals ?dir t =
  let ts = times ?dir t in
  let n = Array.length ts in
  if n < 2 then [||] else Array.init (n - 1) (fun i -> ts.(i + 1) -. ts.(i))

let signed_sizes t =
  Array.map (fun e -> float_of_int (e.size * direction_sign e.dir)) t

let shift_to_zero t =
  if Array.length t = 0 then [||]
  else
    let t0 = t.(0).time in
    Array.map (fun e -> { e with time = e.time -. t0 }) t

let concat_sorted traces = sort (Array.concat traces)

let to_csv t =
  let buf = Buffer.create (Array.length t * 24) in
  Array.iter
    (fun e -> Buffer.add_string buf (Printf.sprintf "%.9f,%d,%d\n" e.time (direction_sign e.dir) e.size))
    t;
  Buffer.contents buf

let of_csv text =
  let parse_line line =
    match String.split_on_char ',' (String.trim line) with
    | [ time; dir; size ] ->
        let dir =
          match int_of_string (String.trim dir) with
          | 1 -> Packet.Outgoing
          | -1 -> Packet.Incoming
          | d -> failwith (Printf.sprintf "Trace.of_csv: bad direction %d" d)
        in
        { time = float_of_string (String.trim time); dir; size = int_of_string (String.trim size) }
    | _ -> failwith (Printf.sprintf "Trace.of_csv: malformed line %S" line)
  in
  String.split_on_char '\n' text
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map parse_line
  |> Array.of_list

(* Atomic (write-to-temp then rename): a crash mid-save can leave a stray
   temp file but never a truncated trace under the target name. *)
let save path t = Stob_store.Atomic_file.write path (to_csv t)

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let len = in_channel_length ic in
      let buf = really_input_string ic len in
      of_csv buf)

let pp_summary fmt t =
  Format.fprintf fmt "%d pkts (%d out / %d in), %d B out, %d B in, %.3f s" (length t)
    (count ~dir:Packet.Outgoing t) (count ~dir:Packet.Incoming t) (bytes ~dir:Packet.Outgoing t)
    (bytes ~dir:Packet.Incoming t) (duration t)

let of_lanes lanes = Array.init (Stob_net.Trace.length lanes) (Stob_net.Trace.get lanes)

module Emulate = struct
  module Trace = struct
    type nonrec event = event = { time : float; dir : Packet.direction; size : int }

    let length = length
    let sort = sort
  end

  module Rng = Stob_util.Rng

  let split ?(threshold = 1200) ?first_n trace =
    let bound = Option.value ~default:(Trace.length trace) first_n in
    let out = ref [] in
    Array.iteri
      (fun i (e : Trace.event) ->
        if i < bound && e.Trace.dir = Packet.Incoming && e.Trace.size > threshold then begin
          let first = e.Trace.size / 2 in
          let second = e.Trace.size - first in
          (* The second half leaves immediately after the first; a negligible
             offset keeps the trace strictly ordered without shifting later
             packets (the paper treats the split as instantaneous). *)
          out := { e with Trace.size = second; time = e.Trace.time +. 1e-7 } :: { e with Trace.size = first } :: !out
        end
        else out := e :: !out)
      trace;
    Trace.sort (Array.of_list (List.rev !out))

  let delay ?(lo = 0.1) ?(hi = 0.3) ?first_n ~rng trace =
    let bound = Option.value ~default:(Trace.length trace) first_n in
    let offset = ref 0.0 in
    let shifted =
      Array.mapi
        (fun i (e : Trace.event) ->
          if i < bound && i > 0 && e.Trace.dir = Packet.Incoming then begin
            let gap = e.Trace.time -. trace.(i - 1).Trace.time in
            offset := !offset +. (gap *. Rng.uniform rng lo hi)
          end;
          { e with Trace.time = e.Trace.time +. !offset })
        trace
    in
    Trace.sort shifted

  let combined ?threshold ?lo ?hi ?first_n ~rng trace =
    delay ?lo ?hi ?first_n ~rng (split ?threshold ?first_n trace)
end
