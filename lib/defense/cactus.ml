module Trace = Stob_net.Trace
module Packet = Stob_net.Packet
module Rng = Stob_util.Rng

type params = {
  window : float;  (** Batching window, seconds. *)
  cell_size : int;  (** Uniform re-packetization size, bytes. *)
}

let params = { window = 0.025; cell_size = 1200 }

let apply ~rng trace =
  if Trace.length trace = 0 then Trace.empty
  else begin
    let t0 = Trace.time trace 0 in
    let window_of i = int_of_float ((Trace.time trace i -. t0) /. params.window) in
    let first = ref max_int and last = ref min_int in
    for i = 0 to Trace.length trace - 1 do
      first := Int.min !first (window_of i);
      last := Int.max !last (window_of i)
    done;
    (* Per-window byte totals per direction, indexed from the first window. *)
    let out_bytes = Array.make (!last - !first + 1) 0 in
    let in_bytes = Array.make (!last - !first + 1) 0 in
    for i = 0 to Trace.length trace - 1 do
      let k = window_of i - !first in
      match Trace.dir trace i with
      | Packet.Outgoing -> out_bytes.(k) <- out_bytes.(k) + Trace.size trace i
      | Packet.Incoming -> in_bytes.(k) <- in_bytes.(k) + Trace.size trace i
    done;
    (* Windows in ascending order, so each window's shuffle draws from the
       shared generator at a fixed point of its stream.  An empty window
       shuffles nothing and draws nothing. *)
    let out = ref [] in
    Array.iteri
      (fun k out_b ->
        let cells bytes = (bytes + params.cell_size - 1) / params.cell_size in
        let dirs =
          Array.append
            (Array.make (cells out_b) Packet.Outgoing)
            (Array.make (cells in_bytes.(k)) Packet.Incoming)
        in
        Rng.shuffle rng dirs;
        (* Everything re-emits at the window boundary, back to back. *)
        let release = t0 +. (float_of_int (!first + k + 1) *. params.window) in
        Array.iteri
          (fun i dir ->
            out :=
              { Trace.time = release +. (float_of_int i *. 2e-5); dir; size = params.cell_size }
              :: !out)
          dirs)
      out_bytes;
    Trace.sort (Trace.of_events (Array.of_list !out))
  end
