let hamming (a : int array) b =
  if Array.length a <> Array.length b then invalid_arg "Knn.hamming: length mismatch";
  let d = ref 0 in
  for i = 0 to Array.length a - 1 do
    if a.(i) <> b.(i) then incr d
  done;
  !d

type t = { fingerprints : int array array; labels : int array; n_classes : int }

let create ~fingerprints ~labels ~n_classes =
  if Array.length fingerprints <> Array.length labels then
    invalid_arg "Knn.create: fingerprints/labels length mismatch";
  if Array.length fingerprints = 0 then invalid_arg "Knn.create: empty training set";
  { fingerprints; labels; n_classes }

(* Bounded top-k selection, ordered by (distance, training index) with
   explicit int comparisons: the k best live in [bd]/[bi] as a sorted
   prefix; insertion shifts only past strictly-greater distances, and a
   candidate that merely ties the current worst is rejected — so among
   equal distances the earliest training samples win, and the result is
   independent of label values.  O(n k) worst case with k small, no
   full-array sort, no tuple allocation. *)
let nearest t ~k x =
  let n = Array.length t.fingerprints in
  let k = Int.min k n in
  if k <= 0 then []
  else begin
    let bd = Array.make k 0 and bi = Array.make k 0 in
    let filled = ref 0 in
    for i = 0 to n - 1 do
      let d = hamming t.fingerprints.(i) x in
      let limit =
        if !filled < k then begin
          incr filled;
          !filled - 1
        end
        else if d < bd.(k - 1) then k - 1
        else -1
      in
      if limit >= 0 then begin
        let pos = ref limit in
        while !pos > 0 && bd.(!pos - 1) > d do
          decr pos
        done;
        for j = limit downto !pos + 1 do
          bd.(j) <- bd.(j - 1);
          bi.(j) <- bi.(j - 1)
        done;
        bd.(!pos) <- d;
        bi.(!pos) <- i
      end
    done;
    List.init k (fun j -> (t.labels.(bi.(j)), bd.(j)))
  end

let classify t ~k x =
  let votes = Array.make t.n_classes 0 in
  List.iter (fun (l, _) -> votes.(l) <- votes.(l) + 1) (nearest t ~k x);
  let best = ref 0 in
  Array.iteri (fun c v -> if v > votes.(!best) then best := c) votes;
  !best
