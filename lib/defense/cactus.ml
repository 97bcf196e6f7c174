module Trace = Stob_net.Trace
module Packet = Stob_net.Packet
module Rng = Stob_util.Rng

type params = { window : float; cell_size : int }

let default_params = { window = 0.025; cell_size = 1200 }

let apply ?(params = default_params) ~rng trace =
  if Trace.length trace = 0 then Trace.empty
  else begin
    let t0 = Trace.time trace 0 in
    (* Per-window byte totals per direction. *)
    let windows : (int, int ref * int ref) Hashtbl.t = Hashtbl.create 64 in
    for i = 0 to Trace.length trace - 1 do
      let e = Trace.get trace i in
      let w = int_of_float ((e.Trace.time -. t0) /. params.window) in
      let out_bytes, in_bytes =
        match Hashtbl.find_opt windows w with
        | Some pair -> pair
        | None ->
            let pair = (ref 0, ref 0) in
            Hashtbl.add windows w pair;
            pair
      in
      match e.Trace.dir with
      | Packet.Outgoing -> out_bytes := !out_bytes + e.Trace.size
      | Packet.Incoming -> in_bytes := !in_bytes + e.Trace.size
    done;
    let out = ref [] in
    Hashtbl.iter
      (fun w (out_bytes, in_bytes) ->
        let cells bytes = (bytes + params.cell_size - 1) / params.cell_size in
        let dirs =
          Array.append
            (Array.make (cells !out_bytes) Packet.Outgoing)
            (Array.make (cells !in_bytes) Packet.Incoming)
        in
        Rng.shuffle rng dirs;
        (* Everything re-emits at the window boundary, back to back. *)
        let release = t0 +. (float_of_int (w + 1) *. params.window) in
        Array.iteri
          (fun i dir ->
            out :=
              { Trace.time = release +. (float_of_int i *. 2e-5); dir; size = params.cell_size }
              :: !out)
          dirs)
      windows;
    Trace.sort (Trace.of_events (Array.of_list !out))
  end
