(* Hierarchical timing wheel with an exact-order ready heap.

   The kernel-style wheel buys O(1) amortized scheduling, but a naive wheel
   orders events only up to tick granularity — and the engine's contract is
   exact (time, sequence) order, bit-identical to the heap oracle.  The
   design that preserves both:

   - An event's [tick] is [trunc (time / granularity)].  Truncation (not
     floor) is fine: it is monotone in [time], which is all the ordering
     argument needs.
   - Events with [tick <= cursor] live in a small binary heap (the "ready
     heap") ordered by exact (time, seq).  Everything the caller can pop
     next is in there, so pops are exact even when many distinct times
     collapse into one tick, when a callback pushes at or before the
     current instant, or when raw pushes go backwards in time.
   - Events with [tick > cursor] whose tick fits in the wheel's
     [levels * bits]-bit horizon above the cursor hang off the slot of
     their highest block that differs from the cursor's.  Per-level
     occupancy bitmaps make "next occupied slot" a couple of word scans.
   - Events beyond the horizon wait in an overflow list; when the wheel
     drains, the cursor is rebased onto the earliest overflow tick and the
     list is re-placed (rare by construction: the horizon is 2^32 ticks —
     over twelve simulated days at the default 256 µs granularity).

   Invariant (the reason slot scans never wrap): every wheel entry at level
   [k] has blocks above [k] equal to the cursor's, and its block [k]
   strictly greater than the cursor's.  Advancing the cursor cascades the
   drained slot's entries to lower levels (or to the ready heap), restoring
   the invariant.

   Storage: every queued event is a node of a recycled pool, its time,
   seq, tick and value held in parallel arrays indexed by node id, so push,
   pop and remove allocate nothing once the pool has reached the queue's
   peak size.  Slot lists and the overflow list are intrusive
   doubly-linked lists threaded through [next]/[prev]; the ready heap holds
   node ids beside unboxed (time, seq) keys, so a sift step writes only
   float and int arrays and never reaches the write barrier.  A node's
   [loc] says where it is, which makes [remove] O(1) from a list and
   O(log n) from the ready heap.  A node leaves the pool with its value
   slot overwritten, so the queue never keeps a popped or removed value
   reachable. *)

let bits = 8
let wheel_slots = 1 lsl bits (* 256 *)
let slot_mask = wheel_slots - 1
let levels = 4
let horizon_bits = levels * bits

(* Lists are numbered: slot [s] of level [k] is list [k * wheel_slots + s],
   and the overflow list comes last. *)
let overflow_list = levels * wheel_slots

(* Occupancy bitmaps use 32 bits of each OCaml int: 32 divides 256. *)
let word_bits = 32
let words_per_level = wheel_slots / word_bits

(* [loc.(n)]: the ready-heap position when [>= 0]; [free_loc] for a node
   in the free list; [-2 - l] for a member of list [l]. *)
let free_loc = -1
let list_loc l = -2 - l

(* The value held by free nodes and spare array cells.  An immediate, so a
   [values] array is never a flat float array, and every access to one
   goes through the generic (tag-checking) array primitives. *)
let vacant () : 'a = Obj.magic 0

type 'a t = {
  inv_granularity : float;
  mutable next_seq : int;
  mutable len : int; (* live nodes: ready heap + wheel + overflow *)
  (* Node pool.  Nodes [0, used) have been handed out at least once;
     released ones are chained through [next] from [free]. *)
  mutable times : float array;
  mutable seqs : int array;
  mutable ticks : int array;
  mutable values : 'a array;
  mutable next : int array;
  mutable prev : int array;
  mutable loc : int array;
  mutable free : int;
  mutable used : int;
  (* Ready heap: all nodes with tick <= cursor, exact (time, seq) order.
     The keys are copied beside the node ids so that sifting compares
     within three flat arrays. *)
  mutable heap : int array;
  mutable heap_times : float array;
  mutable heap_seqs : int array;
  mutable ready_len : int;
  heads : int array; (* first node of each list, or -1 *)
  bitmaps : int array; (* level k's slot bits in words [k * words_per_level ..] *)
  counts : int array; (* live wheel entries per level *)
  mutable cursor : int;
}

let default_granularity = 256e-6

let create ?(granularity = default_granularity) () =
  if not (granularity > 0.0) then
    invalid_arg "Timing_wheel.create: granularity must be positive";
  {
    inv_granularity = 1.0 /. granularity;
    next_seq = 0;
    len = 0;
    times = [||];
    seqs = [||];
    ticks = [||];
    values = [||];
    next = [||];
    prev = [||];
    loc = [||];
    free = -1;
    used = 0;
    heap = [||];
    heap_times = [||];
    heap_seqs = [||];
    ready_len = 0;
    heads = Array.make (overflow_list + 1) (-1);
    bitmaps = Array.make (levels * words_per_level) 0;
    counts = Array.make levels 0;
    cursor = 0;
  }

let size t = t.len

(* Ticks clamp before [int_of_float] leaves defined territory; clamped
   events simply ride the overflow path. *)
let max_tick_float = 4.0e18

let tick t time =
  let x = time *. t.inv_granularity in
  if x >= max_tick_float then max_int
  else if x <= -.max_tick_float then min_int
  else int_of_float x

let extend a len fill =
  let b = Array.make (if len = 0 then 64 else 2 * len) fill in
  Array.blit a 0 b 0 len;
  b

(* --- node pool --- *)

let alloc_node t =
  if t.free >= 0 then begin
    let n = t.free in
    t.free <- t.next.(n);
    n
  end
  else begin
    let n = t.used in
    if n = Array.length t.times then begin
      t.times <- extend t.times n 0.0;
      t.seqs <- extend t.seqs n 0;
      t.ticks <- extend t.ticks n 0;
      t.values <- extend t.values n (vacant ());
      t.next <- extend t.next n 0;
      t.prev <- extend t.prev n 0;
      t.loc <- extend t.loc n free_loc
    end;
    t.used <- n + 1;
    n
  end

let release t n =
  t.loc.(n) <- free_loc;
  t.values.(n) <- vacant ();
  t.next.(n) <- t.free;
  t.free <- n

(* --- ready heap ---

   Both sift loops bubble a hole instead of swapping, with the moving
   node's key held in registers: one store per level plus the final
   placement.  Keys are read from the node arrays inside each loop rather
   than passed in, because a float argument would be boxed. *)

let heap_set t i n =
  t.heap_times.(i) <- t.times.(n);
  t.heap_seqs.(i) <- t.seqs.(n);
  t.heap.(i) <- n;
  t.loc.(n) <- i

(* Move node [n] up from the hole at [i] to its place. *)
let sift_up t i n =
  let heap = t.heap and times = t.heap_times and seqs = t.heap_seqs and loc = t.loc in
  let time = t.times.(n) and seq = t.seqs.(n) in
  let i = ref i in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pt = times.(parent) in
    if time < pt || (time = pt && seq < seqs.(parent)) then begin
      let pn = heap.(parent) in
      times.(!i) <- pt;
      seqs.(!i) <- seqs.(parent);
      heap.(!i) <- pn;
      loc.(pn) <- !i;
      i := parent
    end
    else continue := false
  done;
  heap_set t !i n

(* Move node [n] down from the hole at [i] to its place. *)
let sift_down t i n =
  let heap = t.heap and times = t.heap_times and seqs = t.heap_seqs and loc = t.loc in
  let len = t.ready_len in
  let time = t.times.(n) and seq = t.seqs.(n) in
  let i = ref i in
  let continue = ref true in
  while !continue do
    let left = (2 * !i) + 1 in
    if left >= len then continue := false
    else begin
      let right = left + 1 in
      let child =
        if
          right < len
          && (times.(right) < times.(left)
             || (times.(right) = times.(left) && seqs.(right) < seqs.(left)))
        then right
        else left
      in
      let ct = times.(child) in
      if ct < time || (ct = time && seqs.(child) < seq) then begin
        let cn = heap.(child) in
        times.(!i) <- ct;
        seqs.(!i) <- seqs.(child);
        heap.(!i) <- cn;
        loc.(cn) <- !i;
        i := child
      end
      else continue := false
    end
  done;
  heap_set t !i n

let ready_push t n =
  let len = t.ready_len in
  if len = Array.length t.heap then begin
    t.heap <- extend t.heap len 0;
    t.heap_times <- extend t.heap_times len 0.0;
    t.heap_seqs <- extend t.heap_seqs len 0
  end;
  t.ready_len <- len + 1;
  sift_up t len n

(* Take the node at heap position [i] out; the last node fills the hole,
   moving up if it beats the hole's parent, down otherwise. *)
let ready_remove t i =
  let last = t.ready_len - 1 in
  t.ready_len <- last;
  if i < last then begin
    let n = t.heap.(last) in
    let parent = (i - 1) / 2 in
    if
      i > 0
      && (t.times.(n) < t.heap_times.(parent)
         || (t.times.(n) = t.heap_times.(parent) && t.seqs.(n) < t.heap_seqs.(parent)))
    then sift_up t i n
    else sift_down t i n
  end

(* --- slot and overflow lists --- *)

let block tk level = (tk asr (level * bits)) land slot_mask

let bit_word k s = (k * words_per_level) + (s / word_bits)
let bit_mask s = 1 lsl (s land (word_bits - 1))

let list_add t l n =
  let h = t.heads.(l) in
  t.next.(n) <- h;
  t.prev.(n) <- -1;
  if h >= 0 then t.prev.(h) <- n;
  t.heads.(l) <- n;
  t.loc.(n) <- list_loc l

let list_unlink t l n =
  let nx = t.next.(n) and pv = t.prev.(n) in
  if pv >= 0 then t.next.(pv) <- nx else t.heads.(l) <- nx;
  if nx >= 0 then t.prev.(nx) <- pv

let place t n =
  let tk = t.ticks.(n) in
  if tk <= t.cursor then ready_push t n
  else begin
    let diff = tk lxor t.cursor in
    if diff asr horizon_bits <> 0 then list_add t overflow_list n
    else begin
      (* Highest block where tick and cursor differ; the compare chain
         hardcodes bits = 8, levels = 4 (one compare for the common
         near-future case instead of a top-down loop). *)
      let k = if diff <= 0xFF then 0 else if diff <= 0xFFFF then 1 else if diff <= 0xFF_FFFF then 2 else 3 in
      let s = block tk k in
      list_add t ((k * wheel_slots) + s) n;
      let w = bit_word k s in
      t.bitmaps.(w) <- t.bitmaps.(w) lor bit_mask s;
      t.counts.(k) <- t.counts.(k) + 1
    end
  end

let reserve t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

let add_reserved t ~time ~seq value =
  let n = alloc_node t in
  t.times.(n) <- time;
  t.seqs.(n) <- seq;
  t.ticks.(n) <- tick t time;
  t.values.(n) <- value;
  t.len <- t.len + 1;
  place t n;
  n

let add t ~time value = add_reserved t ~time ~seq:(reserve t) value
let push t ~time value = ignore (add t ~time value)

let remove t n =
  let l = t.loc.(n) in
  if l >= 0 then ready_remove t l
  else if l = free_loc then invalid_arg "Timing_wheel.remove: node is not queued"
  else begin
    let l = -2 - l in
    list_unlink t l n;
    if l < overflow_list then begin
      let k = l / wheel_slots and s = l land slot_mask in
      t.counts.(k) <- t.counts.(k) - 1;
      if t.heads.(l) < 0 then begin
        let w = bit_word k s in
        t.bitmaps.(w) <- t.bitmaps.(w) land lnot (bit_mask s)
      end
    end
  end;
  t.len <- t.len - 1;
  release t n

(* Trailing zeros of a non-zero 32-bit word. *)
let ctz x =
  let n = ref 0 and x = ref x in
  if !x land 0xFFFF = 0 then begin
    n := !n + 16;
    x := !x lsr 16
  end;
  if !x land 0xFF = 0 then begin
    n := !n + 8;
    x := !x lsr 8
  end;
  if !x land 0xF = 0 then begin
    n := !n + 4;
    x := !x lsr 4
  end;
  if !x land 0x3 = 0 then begin
    n := !n + 2;
    x := !x lsr 2
  end;
  if !x land 0x1 = 0 then incr n;
  !n

(* Smallest occupied slot index >= [from] on level [k], or -1.  A loop,
   not a local recursive function, which would allocate its closure. *)
let find_slot t k ~from =
  let base = k * words_per_level in
  let w = ref (from / word_bits) in
  let word =
    ref (if !w < words_per_level then t.bitmaps.(base + !w) land (-1 lsl (from land (word_bits - 1))) else 0)
  in
  while !word = 0 && !w < words_per_level - 1 do
    incr w;
    word := t.bitmaps.(base + !w)
  done;
  if !word = 0 then -1 else (!w * word_bits) + ctz !word

(* Detach list [l] and re-place its nodes; returns how many there were. *)
let replace_list t l =
  let n = ref t.heads.(l) and count = ref 0 in
  t.heads.(l) <- -1;
  while !n >= 0 do
    let node = !n in
    n := t.next.(node);
    incr count;
    place t node
  done;
  !count

(* Pull the next batch of due nodes into the ready heap.  No-op unless
   the ready heap is empty while wheel/overflow nodes remain. *)
let rec refill t =
  if t.ready_len = 0 && t.len > 0 then begin
    let k = ref 0 in
    while !k < levels && t.counts.(!k) = 0 do
      incr k
    done;
    if !k < levels then begin
      let k = !k in
      (* The placement invariant puts every occupied slot of the lowest
         non-empty level strictly beyond the cursor's block, so the scan
         never wraps and never misses. *)
      let s = find_slot t k ~from:(block t.cursor k + 1) in
      assert (s >= 0);
      t.cursor <- t.cursor land (-1 lsl ((k + 1) * bits)) lor (s lsl (k * bits));
      let w = bit_word k s in
      t.bitmaps.(w) <- t.bitmaps.(w) land lnot (bit_mask s);
      (* Level 0: every node has tick = cursor and lands in ready.  Higher
         levels: nodes cascade to lower levels (or ready) and we loop.
         None can land back on level [k]: the cursor now shares its
         block. *)
      t.counts.(k) <- t.counts.(k) - replace_list t ((k * wheel_slots) + s);
      refill t
    end
    else begin
      (* Wheel empty: rebase the cursor onto the earliest overflow tick and
         re-place the whole list (nodes still beyond the new horizon go
         straight back to overflow). *)
      let n = ref t.heads.(overflow_list) and lo = ref max_int in
      assert (!n >= 0) (* len counts ready + wheel + overflow *);
      while !n >= 0 do
        lo := Int.min !lo t.ticks.(!n);
        n := t.next.(!n)
      done;
      t.cursor <- !lo;
      ignore (replace_list t overflow_list);
      refill t
    end
  end

let take t =
  let n = t.heap.(0) in
  let value = t.values.(n) in
  ready_remove t 0;
  t.len <- t.len - 1;
  release t n;
  value

let take_due t ~limit default =
  refill t;
  if t.ready_len = 0 || t.heap_times.(0) > limit then default else take t

let pop t =
  refill t;
  if t.ready_len = 0 then None
  else begin
    let time = t.heap_times.(0) in
    Some (time, take t)
  end
