(* The QUIC sender's loss-detection scan, preserved as it was before the
   hole index ({!Stob_quic.Sent}).  Do not "improve" this file: its whole
   value is being the original whose declarations, timer deadline and
   time-threshold count the index must reproduce exactly (the quic.loss
   battery is the gate).

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
