type t = {
  (* Received bytes above [delivered]: disjoint [lo, hi) intervals, none
     touching another, highest first. *)
  mutable intervals : (int * int) list;
  mutable delivered : int;  (* the in-order prefix *)
  mutable fin_at : int;  (* [max_int] until a FIN arrives *)
  mutable fin_delivered : bool;
}

let create () = { intervals = []; delivered = 0; fin_at = max_int; fin_delivered = false }

(* Insert [lo, hi), merging it with every interval it overlaps or
   touches. *)
let insert intervals (lo : int) hi =
  let rec go acc lo hi = function
    | ((l, _) as iv) :: rest when l > hi -> go (iv :: acc) lo hi rest
    | ((_, h) :: _) as below when h < lo -> List.rev_append acc ((lo, hi) :: below)
    | (l, h) :: rest -> go acc (Int.min l lo) (Int.max h hi) rest
    | [] -> List.rev_append acc [ (lo, hi) ]
  in
  go [] lo hi intervals

(* A chunk ending at [hi] has reached the prefix: it absorbs the
   intervals that start at or below [hi], the list's tail.  The first of
   them ends highest, and the merged interval stops short of the next
   one up, which started above [hi]. *)
let rec reach hi = function
  | (l, _) :: rest when l > hi -> reach hi rest
  | (_, h) :: _ -> Int.max h hi
  | [] -> hi

(* The intervals that start above [hi]: the list itself when the chunk
   absorbed none. *)
let rec above (hi : int) = function
  | ((l, _) as iv) :: rest as all when l > hi ->
      let kept = above hi rest in
      if kept == rest then all else iv :: kept
  | _ -> []

let add t ~offset ~length ~fin =
  let hi = offset + length in
  if fin then t.fin_at <- hi;
  if length <= 0 || hi <= t.delivered then 0
  else if offset > t.delivered then begin
    t.intervals <- insert t.intervals offset hi;
    0
  end
  else begin
    let top = reach hi t.intervals in
    let fresh = top - t.delivered in
    t.intervals <- above hi t.intervals;
    t.delivered <- top;
    fresh
  end

let take_fin t =
  if t.delivered >= t.fin_at && not t.fin_delivered then begin
    t.fin_delivered <- true;
    true
  end
  else false
