type packet = { pn : int; payload : int; frames : Frame.t list; sent_at : float }

type t = {
  table : (int, packet) Hashtbl.t;  (* exactly the outstanding packets *)
  mutable buckets : int;  (* [table]'s bucket count, the key of the declaration order *)
  mutable low_water : int;  (* lower bound on every packet number in [table] *)
  (* The hole index, ascending: every outstanding packet number below
     [edge], plus acked or lost ones not yet pruned. *)
  mutable holes : int list;
  mutable edge : int;
  mutable visits : int;
}

let initial_buckets = 256

let create () =
  {
    table = Hashtbl.create initial_buckets;
    buckets = initial_buckets;
    low_water = 0;
    holes = [];
    edge = 0;
    visits = 0;
  }

(* The stdlib table grows when an insertion leaves more than two entries
   per bucket. *)
let add t p =
  Hashtbl.replace t.table p.pn p;
  if Hashtbl.length t.table > 2 * t.buckets then t.buckets <- 2 * t.buckets

let find_opt t pn = Hashtbl.find_opt t.table pn
let remove t pn = Hashtbl.remove t.table pn

let lowest t ~pn_next =
  while t.low_water < pn_next && not (Hashtbl.mem t.table t.low_water) do
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
    if Hashtbl.mem t.table pn then fresh := pn :: !fresh
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
    match Hashtbl.find_opt t.table pn with
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

let fold f t init = Hashtbl.fold (fun _ p acc -> f p acc) t.table init
let low_water t = t.low_water
let loss_visits t = t.visits

let unindexed t =
  List.sort Int.compare
    (Hashtbl.fold
       (fun pn _ acc -> if pn < t.edge && not (List.memq pn t.holes) then pn :: acc else acc)
       t.table [])
