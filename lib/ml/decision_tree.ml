module Rng = Stob_util.Rng

type params = { max_depth : int; min_samples_leaf : int; features_per_split : int option }

let default_params = { max_depth = 32; min_samples_leaf = 1; features_per_split = None }

type leaf = { id : int; label : int; dist : float array }

type node = Leaf of leaf | Split of { feature : int; threshold : float; left : node; right : node }

type t = { root : node; n_leaves : int; depth : int; gains : float array }

(* Gini impurity over counts.(0 .. n_classes-1).  The accumulation order
   matches the seed trainer's [Array.fold_left] exactly so that split
   scores — and therefore tie-breaking — stay bit-identical. *)
let gini_counts counts n_classes total =
  if total = 0 then 0.0
  else begin
    let t = float_of_int total in
    let acc = ref 0.0 in
    for c = 0 to n_classes - 1 do
      let p = float_of_int (Array.unsafe_get counts c) /. t in
      acc := !acc +. (p *. p)
    done;
    1.0 -. !acc
  end

let majority (counts : int array) =
  let best = ref 0 in
  Array.iteri (fun i c -> if c > counts.(!best) then best := i) counts;
  !best

(* Presorted CART.  Instead of re-sorting the node's samples per feature
   per node (the seed's O(depth x features x n log n) with polymorphic
   [compare] on boxed rows), each tree keeps, per feature, its bootstrap
   positions in ascending value order.  The orders are derived once from
   the matrix-wide presort shared by the whole forest, and every split
   maintains them by a stable in-place partition of ints — values are
   gathered from the (cache-resident) columns on demand, so partitions
   move no floats at all.  Children that are provably leaves (pure,
   depth-capped or below the size floor — all decidable from class counts
   alone) never get their segments partitioned, which prunes the d x m
   partition cost exactly where fully-grown trees spend it: the bottom
   levels.

   Determinism contract (bit-for-bit with the seed trainer, pinned by the
   Reference parity battery in test/test_ml.ml):
   - boundaries are considered in ascending value order, only where the
     value strictly increases; thresholds are midpoints [(v +. v') /. 2.];
   - a candidate replaces the incumbent only when strictly better, with
     features scanned in candidate order — first-best wins ties;
   - partitioning sends [value <= threshold] left (by value, not by scan
     position: midpoint rounding can land on the right-hand value);
   - the RNG is consumed once per non-terminal node, in pre-order;
   - leaves are numbered in the seed's construction order (left subtree
     fully before the right child), also when built without recursing. *)
let train_presorted ?(params = default_params) ~rng ~n_classes ~matrix ~labels ~sample ~orders
    () =
  let n = Array.length sample in
  if n = 0 then invalid_arg "Decision_tree.train_presorted: no samples";
  let n_rows = Matrix.n_rows matrix in
  if Array.length labels <> n_rows then
    invalid_arg "Decision_tree.train_presorted: labels/matrix length mismatch";
  let d = Matrix.n_cols matrix in
  if Array.length orders <> d then
    invalid_arg "Decision_tree.train_presorted: orders/matrix column mismatch";
  let n_root = float_of_int n in
  let gains = Array.make d 0.0 in
  (* Bucket bootstrap positions by original row (counting sort) so each
     feature's position order falls out of the shared presort in
     O(n_rows + n), with no per-tree sorting at all. *)
  let row_count = Array.make n_rows 0 in
  Array.iter
    (fun r ->
      if r < 0 || r >= n_rows then invalid_arg "Decision_tree.train_presorted: sample out of range";
      row_count.(r) <- row_count.(r) + 1)
    sample;
  let row_start = Array.make n_rows 0 in
  let acc = ref 0 in
  for r = 0 to n_rows - 1 do
    row_start.(r) <- !acc;
    acc := !acc + row_count.(r)
  done;
  let row_fill = Array.copy row_start in
  let row_pos = Array.make n 0 in
  Array.iteri
    (fun p r ->
      row_pos.(row_fill.(r)) <- p;
      row_fill.(r) <- row_fill.(r) + 1)
    sample;
  let ylab = Array.make n 0 in
  Array.iteri (fun p r -> ylab.(p) <- labels.(r)) sample;
  let cols = Array.init d (fun f -> Matrix.col matrix f) in
  (* Value of bootstrap position [p] under column [col]. *)
  let value col p = Float.Array.unsafe_get col (Array.unsafe_get sample p) in
  (* Column-major per-tree state: segment f of [order] holds the tree's
     positions sorted by feature f. *)
  let order = Array.make (Int.max 1 (d * n)) 0 in
  for f = 0 to d - 1 do
    let ord_f = orders.(f) in
    let j = ref (f * n) in
    for idx = 0 to n_rows - 1 do
      let r = Array.unsafe_get ord_f idx in
      let c = Array.unsafe_get row_count r in
      (* c = 1 is the common bootstrap case; the loop handles duplicates. *)
      if c = 1 then begin
        Array.unsafe_set order !j (Array.unsafe_get row_pos (Array.unsafe_get row_start r));
        incr j
      end
      else if c > 1 then begin
        let s = Array.unsafe_get row_start r in
        for k = 0 to c - 1 do
          Array.unsafe_set order !j (Array.unsafe_get row_pos (s + k));
          incr j
        done
      end
    done
  done;
  (* Node membership (any order) — the one list that exists even with
     zero features — plus reusable scratch for partitions and counts. *)
  let pos = Array.init n (fun p -> p) in
  let mask = Bytes.make n '\000' in
  let sc_i = Array.make n 0 in
  let node_counts = Array.make n_classes 0 in
  let left_counts = Array.make n_classes 0 in
  let right_counts = Array.make n_classes 0 in
  let best_feature = ref (-1) in
  let best_threshold = ref 0.0 in
  let best_score = ref infinity in
  let best_found = ref false in
  (* Exact-score pre-filter.  The seed accepts a boundary iff its
     computed float score strictly beats the incumbent's.  Minimizing the
     exact score over a node is equivalent to maximizing
     G = Sl/nl + Sr/nr, where Sl/Sr are the sums of squared left/right
     class counts — a rational [g_num/g_den] in pure integers,
     maintained in O(1) per sample.  The seed's computed score sits
     within E < 5e-15 (absolute) of the exact score — a few dozen IEEE
     roundings over values in [0, 1] — so whenever the candidate's exact
     score trails the incumbent's by at least 2E, its computed score
     cannot win the strict [<] test, and the candidate is rejected on
     integer arithmetic alone.  Exact ties and near-ties (within the
     slack) fall through to the seed's division-heavy float formula and
     its accept test verbatim, so rounding collisions resolve exactly as
     the seed resolves them.  In score units the slack is 1e-13 — two
     orders of magnitude above the bound.  Cross products stay under
     2^62 for node sizes up to ~8k; larger nodes skip the filter. *)
  let best_gnum = ref 0 in
  let best_gden = ref 1 in
  let sq_node = ref 0 in
  let sl = ref 0 in
  let sr = ref 0 in
  let scan_feature f lo hi total =
    Array.fill left_counts 0 n_classes 0;
    Array.blit node_counts 0 right_counts 0 n_classes;
    sl := 0;
    sr := !sq_node;
    let exact_filter = total <= 8192 in
    let col = Array.unsafe_get cols f in
    let base = f * n in
    let ftotal = float_of_int total in
    let prev = ref (value col (Array.unsafe_get order (base + lo))) in
    for i = lo to hi - 2 do
      let p = Array.unsafe_get order (base + i) in
      let l = Array.unsafe_get ylab p in
      (* Counts and squared sums move one sample at a time — integer
         arithmetic is exact, identical to a recompute. *)
      let lc = Array.unsafe_get left_counts l in
      let rc = Array.unsafe_get right_counts l in
      Array.unsafe_set left_counts l (lc + 1);
      Array.unsafe_set right_counts l (rc - 1);
      sl := !sl + (2 * lc) + 1;
      sr := !sr - (2 * rc) + 1;
      let v = !prev in
      let v' = value col (Array.unsafe_get order (base + i + 1)) in
      prev := v';
      if v < v' then begin
        let n_left = i - lo + 1 in
        let n_right = total - n_left in
        let g_num = (!sl * n_right) + (!sr * n_left) in
        let g_den = n_left * n_right in
        if
          (not !best_found)
          || (not exact_filter)
          || float_of_int ((!best_gnum * g_den) - (g_num * !best_gden))
             < 1e-13 *. ftotal *. float_of_int !best_gden
               *. float_of_int g_den
        then begin
          let score =
            (float_of_int n_left *. gini_counts left_counts n_classes n_left
            +. float_of_int n_right *. gini_counts right_counts n_classes n_right)
            /. ftotal
          in
          if (not !best_found) || score < !best_score then begin
            best_found := true;
            best_feature := f;
            best_threshold := (v +. v') /. 2.0;
            best_score := score;
            best_gnum := g_num;
            best_gden := g_den
          end
        end
      end
    done
  in
  let next_leaf = ref 0 in
  let max_depth_seen = ref 0 in
  let fresh_leaf ~label ~dist depth =
    if depth > !max_depth_seen then max_depth_seen := depth;
    let id = !next_leaf in
    incr next_leaf;
    Leaf { id; label; dist }
  in
  let leaf_dist counts total =
    Array.map (fun c -> float_of_int c /. float_of_int (Int.max 1 total)) counts
  in
  let make_leaf counts total depth =
    fresh_leaf ~label:(majority counts) ~dist:(leaf_dist counts total) depth
  in
  let feature_candidates () =
    match params.features_per_split with
    | None -> Array.init d (fun i -> i)
    | Some k -> Rng.sample_without_replacement rng (Int.min k d) d
  in
  (* A child whose class counts are already known is a leaf — without
     scanning — iff it is too small to split, depth-capped, or pure. *)
  let child_is_leaf counts total depth =
    total < 2 * params.min_samples_leaf
    || depth >= params.max_depth
    || Array.exists (fun c -> c = total) counts
  in
  let rec grow lo hi depth =
    let total = hi - lo in
    Array.fill node_counts 0 n_classes 0;
    for j = lo to hi - 1 do
      let l = Array.unsafe_get ylab (Array.unsafe_get pos j) in
      Array.unsafe_set node_counts l (Array.unsafe_get node_counts l + 1)
    done;
    let pure = Array.exists (fun c -> c = total) node_counts in
    if pure || depth >= params.max_depth || total < 2 * params.min_samples_leaf then
      make_leaf node_counts total depth
    else begin
      best_found := false;
      best_score := infinity;
      sq_node := 0;
      for c = 0 to n_classes - 1 do
        let k = Array.unsafe_get node_counts c in
        sq_node := !sq_node + (k * k)
      done;
      Array.iter (fun f -> scan_feature f lo hi total) (feature_candidates ());
      if not !best_found then make_leaf node_counts total depth
      else begin
        let bf = !best_feature and thr = !best_threshold and score = !best_score in
        let bbase = bf * n in
        let bcol = Array.unsafe_get cols bf in
        let going_left = ref 0 in
        for j = lo to hi - 1 do
          let p = Array.unsafe_get order (bbase + j) in
          if value bcol p <= thr then begin
            Bytes.unsafe_set mask p '\001';
            incr going_left
          end
          else Bytes.unsafe_set mask p '\000'
        done;
        let n_left = !going_left in
        let n_right = total - n_left in
        if n_left < params.min_samples_leaf || n_right < params.min_samples_leaf then
          make_leaf node_counts total depth
        else begin
          (* Gini importance: impurity decrease weighted by node mass. *)
          let parent_gini = gini_counts node_counts n_classes total in
          gains.(bf) <- gains.(bf) +. ((parent_gini -. score) *. float_of_int total /. n_root);
          let mid = lo + n_left in
          let child_depth = depth + 1 in
          (* Child class counts from the mask, so immediate leaves need no
             partitioned segments at all. *)
          Array.fill left_counts 0 n_classes 0;
          for j = lo to hi - 1 do
            let p = Array.unsafe_get pos j in
            if Bytes.unsafe_get mask p = '\001' then begin
              let l = Array.unsafe_get ylab p in
              Array.unsafe_set left_counts l (Array.unsafe_get left_counts l + 1)
            end
          done;
          for c = 0 to n_classes - 1 do
            right_counts.(c) <- node_counts.(c) - left_counts.(c)
          done;
          let left_leaf = child_is_leaf left_counts n_left child_depth in
          let right_leaf = child_is_leaf right_counts n_right child_depth in
          if left_leaf && right_leaf then begin
            (* Neither child recurses: skip all partitioning. *)
            let left = make_leaf left_counts n_left child_depth in
            let right = make_leaf right_counts n_right child_depth in
            Split { feature = bf; threshold = thr; left; right }
          end
          else if left_leaf then begin
            (* Only the right child's segments matter: one-sided stable
               partition through the scratch (each side stays sorted). *)
            let left = make_leaf left_counts n_left child_depth in
            (* Branchless: always write, advance the cursor by the mask
               bit — stray writes are overwritten or sit past the end. *)
            for f = 0 to d - 1 do
              let base = f * n in
              let r = ref 0 in
              for j = lo to hi - 1 do
                let p = Array.unsafe_get order (base + j) in
                Array.unsafe_set sc_i !r p;
                r := !r + 1 - Char.code (Bytes.unsafe_get mask p)
              done;
              Array.blit sc_i 0 order (base + mid) !r
            done;
            let r = ref 0 in
            for j = lo to hi - 1 do
              let p = Array.unsafe_get pos j in
              Array.unsafe_set sc_i !r p;
              r := !r + 1 - Char.code (Bytes.unsafe_get mask p)
            done;
            Array.blit sc_i 0 pos mid !r;
            let right = grow mid hi child_depth in
            Split { feature = bf; threshold = thr; left; right }
          end
          else if right_leaf then begin
            (* Only the left child recurses: compact lefts in place
               (writes trail reads).  The right leaf's label and
               distribution are fixed before recursion clobbers the count
               scratch; its id is drawn after the left subtree, matching
               the seed's construction order. *)
            let right_label = majority right_counts in
            let right_dist = leaf_dist right_counts n_right in
            (* Branchless in-place compaction: the write index trails the
               read index, and strays land in the dead right half. *)
            for f = 0 to d - 1 do
              let base = f * n in
              let l = ref lo in
              for j = lo to hi - 1 do
                let p = Array.unsafe_get order (base + j) in
                Array.unsafe_set order (base + !l) p;
                l := !l + Char.code (Bytes.unsafe_get mask p)
              done
            done;
            let l = ref lo in
            for j = lo to hi - 1 do
              let p = Array.unsafe_get pos j in
              Array.unsafe_set pos !l p;
              l := !l + Char.code (Bytes.unsafe_get mask p)
            done;
            let left = grow lo mid child_depth in
            let right = fresh_leaf ~label:right_label ~dist:right_dist child_depth in
            Split { feature = bf; threshold = thr; left; right }
          end
          else begin
            (* Stable in-place partition of every feature segment: lefts
               compact in place (writes trail reads), rights spill into
               the scratch and blit back — each side stays value-sorted.
               Branchless: both targets are written unconditionally and
               the mask bit picks which cursor advances; stray writes are
               overwritten by later elements or by the blit. *)
            for f = 0 to d - 1 do
              let base = f * n in
              let l = ref lo and r = ref 0 in
              for j = lo to hi - 1 do
                let p = Array.unsafe_get order (base + j) in
                Array.unsafe_set order (base + !l) p;
                Array.unsafe_set sc_i !r p;
                let m = Char.code (Bytes.unsafe_get mask p) in
                l := !l + m;
                r := !r + 1 - m
              done;
              Array.blit sc_i 0 order (base + mid) !r
            done;
            let l = ref lo and r = ref 0 in
            for j = lo to hi - 1 do
              let p = Array.unsafe_get pos j in
              Array.unsafe_set pos !l p;
              Array.unsafe_set sc_i !r p;
              let m = Char.code (Bytes.unsafe_get mask p) in
              l := !l + m;
              r := !r + 1 - m
            done;
            Array.blit sc_i 0 pos mid !r;
            let left = grow lo mid child_depth in
            let right = grow mid hi child_depth in
            Split { feature = bf; threshold = thr; left; right }
          end
        end
      end
    end
  in
  let root = grow 0 n 0 in
  { root; n_leaves = !next_leaf; depth = !max_depth_seen; gains }

let rec descend_m node m row =
  match node with
  | Leaf l -> l
  | Split { feature; threshold; left; right } ->
      if Matrix.get m row feature <= threshold then descend_m left m row
      else descend_m right m row

let predict_m t m row = (descend_m t.root m row).label
let leaf_id_m t m row = (descend_m t.root m row).id

let n_leaves t = t.n_leaves
let depth t = t.depth

let feature_gains t = Array.copy t.gains

let fold t ~leaf ~split =
  let rec go = function
    | Leaf l -> leaf ~id:l.id ~label:l.label ~dist:(Array.copy l.dist)
    | Split { feature; threshold; left; right } -> split ~feature ~threshold (go left) (go right)
  in
  go t.root
