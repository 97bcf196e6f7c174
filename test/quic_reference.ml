(* Two pieces of the QUIC endpoint, preserved as they were before they
   were reworked: the sender's loss-detection scan and the receiver's
   stream reassembly.  Do not "improve" this file: its whole value is
   being the originals whose outputs the reworked code must reproduce
   exactly (quic.loss and quic.reassembly are the gates).

   The loss-detection scan predates the hole index ({!Stob_quic.Sent}):
   the index must reproduce its declarations, timer deadline and
   time-threshold count.

   The scan visited every outstanding packet with [Hashtbl.iter] over the
   sender's [Hashtbl.create 256] table; [Endpoint.mark_lost] then ran over
   [lost] from its head.  Only the scan's free variables became
   arguments. *)

module Sent = Stob_quic.Sent

let loss_threshold = 3

(* The lost packets in the order they were declared, the earliest pending
   time-threshold deadline ([infinity] if none), and the number of
   time-threshold losses. *)
let detect_losses (sent : (int, Sent.packet) Hashtbl.t) ~largest_acked ~threshold ~now:now_ =
  let time_loss_detections = ref 0 in
  let lost = ref [] and next_fire = ref infinity in
  Hashtbl.iter
    (fun _ (p : Sent.packet) ->
      if p.pn < largest_acked then
        if p.pn <= largest_acked - loss_threshold then lost := p :: !lost
        else
          match threshold with
          | Some th ->
              (* One consistent deadline expression for both the test and
                 the timer, or float rounding lets the timer fire at an
                 instant where the packet is still "not yet lost" and
                 re-arm at the same instant forever. *)
              let deadline = p.sent_at +. th in
              if deadline <= now_ then begin
                incr time_loss_detections;
                lost := p :: !lost
              end
              else next_fire := Float.min !next_fire deadline
          | None -> ())
    sent;
  (!lost, !next_fire, !time_loss_detections)

(* The receiver's stream reassembly, preserved as it was before
   {!Stob_quic.Reassembly}: intervals ascending, each chunk inserted by a
   walk from the lowest, then drained from the head.  Verbatim but for
   the endpoint: the callbacks are arguments, and the stream-id filter
   and handshake step that followed them stay in the endpoint.  The
   oracle of quic.reassembly. *)

type stream_in = {
  mutable intervals : (int * int) list;  (* sorted disjoint [lo, hi) *)
  mutable delivered : int;
  mutable fin_offset : int option;
  mutable fin_delivered : bool;
}

let stream_in () = { intervals = []; delivered = 0; fin_offset = None; fin_delivered = false }

let insert_interval intervals (lo : int) hi =
  let rec go acc lo hi = function
    | [] -> List.rev ((lo, hi) :: acc)
    | (l, h) :: rest when h < lo -> go ((l, h) :: acc) lo hi rest
    | (l, h) :: rest when l > hi -> List.rev_append acc ((lo, hi) :: (l, h) :: rest)
    | (l, h) :: rest -> go acc (Int.min l lo) (Int.max h hi) rest
  in
  go [] lo hi intervals

let deliver_stream s ~on_stream ~on_stream_fin =
  let rec drain () =
    match s.intervals with
    | (lo, hi) :: rest when lo <= s.delivered ->
        let fresh = Int.max 0 (hi - s.delivered) in
        s.intervals <- rest;
        s.delivered <- Int.max s.delivered hi;
        if fresh > 0 then on_stream fresh;
        drain ()
    | _ -> ()
  in
  drain ();
  match s.fin_offset with
  | Some fin_at when s.delivered >= fin_at && not s.fin_delivered ->
      s.fin_delivered <- true;
      on_stream_fin ()
  | _ -> ()

let process_stream_chunk s (chunk : Stob_quic.Frame.stream_chunk) ~on_stream ~on_stream_fin =
  if chunk.length > 0 then
    s.intervals <- insert_interval s.intervals chunk.offset (chunk.offset + chunk.length);
  if chunk.fin then s.fin_offset <- Some (chunk.offset + chunk.length);
  deliver_stream s ~on_stream ~on_stream_fin
