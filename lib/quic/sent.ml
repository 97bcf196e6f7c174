type packet = { pn : int; payload : int; frames : Frame.t list; sent_at : float }

(* What a slot holds when no outstanding packet maps to it. *)
let vacant = { pn = -1; payload = 0; frames = []; sent_at = 0.0 }

type t = {
  (* Packet [pn] sits at [pn land (Array.length ring - 1)] while it is
     outstanding; every other slot is [vacant].  No two outstanding
     packets share a slot: [add] grows the ring until they do not. *)
  mutable ring : packet array;
  mutable live : int;  (* outstanding packets *)
  mutable buckets : int;  (* the modelled bucket count, the key of the declaration order *)
  mutable low_water : int;  (* lower bound on every outstanding packet number *)
  (* The hole index, ascending: every outstanding packet number below
     [edge], plus acked or lost ones not yet pruned. *)
  mutable holes : int list;
  mutable edge : int;
  mutable visits : int;
}

let initial_capacity = 64
let initial_buckets = 256

let create () =
  {
    ring = Array.make initial_capacity vacant;
    live = 0;
    buckets = initial_buckets;
    low_water = 0;
    holes = [];
    edge = 0;
    visits = 0;
  }

let slot ring pn = pn land (Array.length ring - 1)

(* The outstanding packet numbered [pn], or [vacant]. *)
let lookup t pn =
  let p = t.ring.(slot t.ring pn) in
  if p.pn = pn then p else vacant

let mem t pn = lookup t pn != vacant

(* Double the ring until [pn]'s slot is free.  Packets in distinct slots
   stay in distinct slots when the mask widens. *)
let rec grow t pn =
  let ring = Array.make (2 * Array.length t.ring) vacant in
  Array.iter (fun p -> if p != vacant then ring.(slot ring p.pn) <- p) t.ring;
  t.ring <- ring;
  if ring.(slot ring pn) != vacant then grow t pn

(* The modelled bucket count doubles when an insertion leaves more than two
   packets per bucket, as the stdlib table that recorded the order did. *)
let add t p =
  if t.ring.(slot t.ring p.pn) != vacant then grow t p.pn;
  t.ring.(slot t.ring p.pn) <- p;
  t.live <- t.live + 1;
  if t.live > 2 * t.buckets then t.buckets <- 2 * t.buckets

let find_opt t pn =
  let p = lookup t pn in
  if p == vacant then None else Some p

let remove t pn =
  if mem t pn then begin
    t.ring.(slot t.ring pn) <- vacant;
    t.live <- t.live - 1
  end

let lowest t ~pn_next =
  while t.low_water < pn_next && not (mem t t.low_water) do
    t.low_water <- t.low_water + 1
  done;
  t.low_water

(* Every number below [largest_acked] that is still outstanding becomes a
   hole; numbers below the edge or the low-water mark were walked already
   or are known not to be outstanding.  A check leaves at most two holes
   behind, so the append copies little. *)
let extend t ~largest_acked =
  let from = Int.max t.edge t.low_water in
  let fresh = ref [] in
  for pn = largest_acked - 1 downto from do
    if mem t pn then fresh := pn :: !fresh
  done;
  t.visits <- t.visits + Int.max 0 (largest_acked - from);
  t.holes <- t.holes @ !fresh;
  t.edge <- Int.max t.edge largest_acked

let bucket t pn = Hashtbl.hash pn land (t.buckets - 1)

let declaration_order t a b =
  match Int.compare (bucket t b.pn) (bucket t a.pn) with 0 -> Int.compare a.pn b.pn | c -> c

let detect_losses t ~largest_acked ~packet_threshold ~time_threshold ~now =
  extend t ~largest_acked;
  let lost = ref [] and next_fire = ref infinity and time_losses = ref 0 in
  let still_a_hole pn =
    t.visits <- t.visits + 1;
    match find_opt t pn with
    | None -> false  (* acked or declared lost since it was indexed *)
    | Some p -> (
        if p.pn <= largest_acked - packet_threshold then begin
          lost := p :: !lost;
          false
        end
        else
          match time_threshold with
          | Some th ->
              (* One deadline expression for both the test and the timer, or
                 float rounding lets the timer fire at an instant where the
                 packet is still "not yet lost" and re-arm there forever. *)
              let deadline = p.sent_at +. th in
              if deadline <= now then begin
                incr time_losses;
                lost := p :: !lost;
                false
              end
              else begin
                next_fire := Float.min !next_fire deadline;
                true
              end
          | None -> true)
  in
  t.holes <- List.filter still_a_hole t.holes;
  (List.sort (declaration_order t) !lost, !next_fire, !time_losses)

let fold f t init = Array.fold_left (fun acc p -> if p == vacant then acc else f p acc) init t.ring
let low_water t = t.low_water
let loss_visits t = t.visits

let unindexed t =
  List.sort Int.compare
    (fold
       (fun p acc -> if p.pn < t.edge && not (List.memq p.pn t.holes) then p.pn :: acc else acc)
       t [])
