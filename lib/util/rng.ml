type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

(* SplitMix64: used only to expand a seed into xoshiro's 256-bit state, as
   recommended by the xoshiro authors. *)
let splitmix64_next state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create seed =
  let state = ref (Int64.of_int seed) in
  let s0 = splitmix64_next state in
  let s1 = splitmix64_next state in
  let s2 = splitmix64_next state in
  let s3 = splitmix64_next state in
  { s0; s1; s2; s3 }

let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let bits64 t =
  let open Int64 in
  let result = mul (rotl (mul t.s1 5L) 7) 9L in
  let tmp = shift_left t.s1 17 in
  t.s2 <- logxor t.s2 t.s0;
  t.s3 <- logxor t.s3 t.s1;
  t.s1 <- logxor t.s1 t.s2;
  t.s0 <- logxor t.s0 t.s3;
  t.s2 <- logxor t.s2 tmp;
  t.s3 <- rotl t.s3 45;
  result

let split t =
  (* Seed a fresh SplitMix64 expansion from the parent's stream. *)
  let state = ref (bits64 t) in
  let s0 = splitmix64_next state in
  let s1 = splitmix64_next state in
  let s2 = splitmix64_next state in
  let s3 = splitmix64_next state in
  { s0; s1; s2; s3 }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling on the top 62 bits (OCaml's int width) to avoid
     modulo bias. *)
  let rec draw () =
    let r = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
    let v = r mod bound in
    if r - v > max_int - bound + 1 then draw () else v
  in
  draw ()

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let float t bound =
  (* 53 uniform bits -> [0,1), scaled. *)
  let r = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  r /. 9007199254740992.0 *. bound

let uniform t lo hi = lo +. float t (hi -. lo)
let bool t = Int64.compare (Int64.logand (bits64 t) 1L) 0L <> 0
let bernoulli t p = float t 1.0 < p

let normal t ~mu ~sigma =
  let rec nonzero () =
    let u = float t 1.0 in
    if u > 0.0 then u else nonzero ()
  in
  let u1 = nonzero () and u2 = float t 1.0 in
  mu +. (sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

let lognormal t ~mu ~sigma = exp (normal t ~mu ~sigma)

let exponential t ~rate =
  if rate <= 0.0 then invalid_arg "Rng.exponential: rate must be positive";
  let rec nonzero () =
    let u = float t 1.0 in
    if u > 0.0 then u else nonzero ()
  in
  -.log (nonzero ()) /. rate

let geometric t ~p =
  if p <= 0.0 || p > 1.0 then invalid_arg "Rng.geometric: p must be in (0,1]";
  let rec count acc = if bernoulli t p then acc else count (acc + 1) in
  count 0

let poisson t ~lambda =
  if lambda < 0.0 then invalid_arg "Rng.poisson: lambda must be non-negative";
  if lambda = 0.0 then 0
  else begin
    let threshold = exp (-.lambda) in
    let rec count k p =
      let p = p *. float t 1.0 in
      if p <= threshold then k else count (k + 1) p
    in
    count 0 1.0
  end

let choice t a =
  if Array.length a = 0 then invalid_arg "Rng.choice: empty array";
  a.(int t (Array.length a))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample_without_replacement t k n =
  if k > n || k < 0 then invalid_arg "Rng.sample_without_replacement";
  let idx = Array.init n (fun i -> i) in
  (* Partial Fisher–Yates: only the first k positions need finalizing. *)
  for i = 0 to k - 1 do
    let j = i + int t (n - i) in
    let tmp = idx.(i) in
    idx.(i) <- idx.(j);
    idx.(j) <- tmp
  done;
  Array.sub idx 0 k
