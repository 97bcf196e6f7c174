(* Tests for stob_nn: the per-sample float64 Reference oracle, the batched
   float32 tensor engine that replaced it on the hot path (GEMM vs a naive
   oracle, finite-difference gradient checks, batched-vs-reference parity,
   --jobs bit-identity), and the DF-lite attack. *)

module Rng = Stob_util.Rng
module Tensor = Stob_nn.Tensor
module Layer = Stob_nn.Layer
module Network = Stob_nn.Network
module RL = Stob_nn.Reference.Layer
module RN = Stob_nn.Reference.Network
module Dfnet = Stob_kfp.Dfnet

(* --- the Reference oracle (the pre-batching engine, kept verbatim) ----- *)

(* Numerical gradient check: compare analytic dLoss/dInput with central
   differences through an arbitrary layer stack. *)
let gradient_check ~rng layers ~inputs ~n_classes =
  let net = RN.create layers in
  let x = Array.init inputs (fun _ -> Rng.uniform rng (-1.0) 1.0) in
  let label = Rng.int rng n_classes in
  (* Analytic input gradient: run train_sample on a wrapper layer that
     records the gradient flowing out of the bottom. *)
  let recorded = ref [||] in
  let probe =
    {
      RL.forward = (fun v -> v);
      backward =
        (fun g ->
          recorded := g;
          g);
      update = (fun ~lr:_ -> ());
    }
  in
  let probed = RN.create (probe :: layers) in
  ignore (RN.train_sample probed ~x ~label);
  let analytic = !recorded in
  let eps = 1e-4 in
  let loss v =
    let out = RN.logits net v in
    let probs = RN.softmax out in
    -.log (Float.max 1e-12 probs.(label))
  in
  let max_err = ref 0.0 in
  (* Check a sample of coordinates to keep the test fast. *)
  let coords = [ 0; inputs / 3; inputs / 2; (2 * inputs / 3) + 1; inputs - 1 ] in
  List.iter
    (fun i ->
      let saved = x.(i) in
      x.(i) <- saved +. eps;
      let up = loss x in
      x.(i) <- saved -. eps;
      let down = loss x in
      x.(i) <- saved;
      let numeric = (up -. down) /. (2.0 *. eps) in
      let err = Float.abs (numeric -. analytic.(i)) /. Float.max 1.0 (Float.abs numeric) in
      if err > !max_err then max_err := err)
    coords;
  !max_err

let test_dense_gradients () =
  let rng = Rng.create 1 in
  let err =
    gradient_check ~rng
      [ RL.dense ~rng ~inputs:12 ~outputs:8; RL.relu (); RL.dense ~rng ~inputs:8 ~outputs:3 ]
      ~inputs:12 ~n_classes:3
  in
  Alcotest.(check bool) (Printf.sprintf "max rel err %.2e < 1e-3" err) true (err < 1e-3)

let test_conv_gradients () =
  let rng = Rng.create 2 in
  let c1 = RL.conv_output_length ~length:20 ~kernel:5 in
  let p1 = RL.pool_output_length ~length:c1 ~factor:2 in
  let err =
    gradient_check ~rng
      [
        RL.conv1d ~rng ~in_channels:1 ~out_channels:3 ~kernel:5 ~length:20;
        RL.relu ();
        RL.maxpool1d ~channels:3 ~length:c1 ~factor:2;
        RL.dense ~rng ~inputs:(3 * p1) ~outputs:2;
      ]
      ~inputs:20 ~n_classes:2
  in
  Alcotest.(check bool) (Printf.sprintf "max rel err %.2e < 1e-3" err) true (err < 1e-3)

let test_shapes () =
  let rng = Rng.create 3 in
  let conv = RL.conv1d ~rng ~in_channels:2 ~out_channels:4 ~kernel:3 ~length:10 in
  let out = conv.RL.forward (Array.make 20 1.0) in
  Alcotest.(check int) "conv output size" (4 * 8) (Array.length out);
  let pool = RL.maxpool1d ~channels:4 ~length:8 ~factor:2 in
  Alcotest.(check int) "pool output size" (4 * 4) (Array.length (pool.RL.forward out))

let test_maxpool_selects_max () =
  let pool = RL.maxpool1d ~channels:1 ~length:6 ~factor:3 in
  let out = pool.RL.forward [| 1.0; 5.0; 2.0; -1.0; -7.0; -2.0 |] in
  Alcotest.(check (array (float 1e-12))) "maxima" [| 5.0; -1.0 |] out;
  (* Backward routes gradient to the argmax positions. *)
  let din = pool.RL.backward [| 1.0; 2.0 |] in
  Alcotest.(check (array (float 1e-12))) "routed" [| 0.0; 1.0; 0.0; 2.0; 0.0; 0.0 |] din

(* Regression pin for the shared-argmax fix: the original engine kept one
   mutable argmax buffer for the lifetime of the layer, so a backward with
   no preceding forward silently routed every gradient to index 0.  The
   kept-as-oracle copy allocates per forward; backward-before-forward now
   raises instead of corrupting gradients (the batched engine rules the
   bug out structurally — argmax scratch lives in the per-shard ctx). *)
let test_maxpool_backward_requires_forward () =
  let pool = RL.maxpool1d ~channels:1 ~length:6 ~factor:3 in
  (match pool.RL.backward [| 1.0; 2.0 |] with
  | _ -> Alcotest.fail "backward before any forward must raise, not route gradients to index 0"
  | exception _ -> ());
  (* ...and a forward arms it as before. *)
  ignore (pool.RL.forward [| 1.0; 5.0; 2.0; -1.0; -7.0; -2.0 |]);
  ignore (pool.RL.backward [| 1.0; 2.0 |])

let test_softmax () =
  let p = RN.softmax [| 1.0; 1.0; 1.0 |] in
  Array.iter (fun v -> Alcotest.(check (float 1e-9)) "uniform" (1.0 /. 3.0) v) p;
  let q = RN.softmax [| 1000.0; 0.0 |] in
  Alcotest.(check bool) "stable on large logits" true (q.(0) > 0.999 && Float.is_finite q.(0))

let test_network_learns_xor () =
  let rng = Rng.create 4 in
  let net =
    RN.create [ RL.dense ~rng ~inputs:2 ~outputs:8; RL.relu (); RL.dense ~rng ~inputs:8 ~outputs:2 ]
  in
  let xs = [| [| 0.0; 0.0 |]; [| 0.0; 1.0 |]; [| 1.0; 0.0 |]; [| 1.0; 1.0 |] |] in
  let labels = [| 0; 1; 1; 0 |] in
  RN.fit net ~rng ~xs ~labels ~epochs:600 ~batch:4 ~lr:0.3 ();
  Alcotest.(check (float 1e-9)) "xor solved" 1.0 (RN.accuracy net ~xs ~labels)

let test_loss_decreases () =
  let rng = Rng.create 5 in
  let xs = Array.init 40 (fun _ -> Array.init 10 (fun _ -> Rng.uniform rng (-1.0) 1.0)) in
  let labels = Array.map (fun x -> if x.(0) +. x.(5) > 0.0 then 1 else 0) xs in
  let net =
    RN.create
      [ RL.dense ~rng ~inputs:10 ~outputs:8; RL.relu (); RL.dense ~rng ~inputs:8 ~outputs:2 ]
  in
  let first = ref nan and last = ref nan in
  RN.fit net ~rng ~xs ~labels ~epochs:50 ~lr:0.1
    ~on_epoch:(fun p ->
      if p.RN.epoch = 1 then first := p.RN.mean_loss;
      last := p.RN.mean_loss)
    ();
  Alcotest.(check bool)
    (Printf.sprintf "loss fell (%.3f -> %.3f)" !first !last)
    true (!last < !first /. 2.0)

(* --- Tensor: GEMM vs a naive float64 oracle ---------------------------- *)

(* A tensor's contents as row arrays, read back through [Tensor.get]. *)
let row_of t i = Array.init (Tensor.cols t) (Tensor.get t i)
let rows_of t = Array.init (Tensor.rows t) (row_of t)

let fill_random rng t =
  for i = 0 to Tensor.rows t - 1 do
    for j = 0 to Tensor.cols t - 1 do
      Tensor.set t i j (Rng.uniform rng (-1.0) 1.0)
    done
  done

(* Naive triple loop over the exact float32 contents, float64 accumulator —
   the semantics the C kernels must reproduce up to one float32 rounding on
   store. *)
let naive_gemm ~ta ~tb ~alpha ~beta a b c0 =
  let m = if ta then Tensor.cols a else Tensor.rows a in
  let k = if ta then Tensor.rows a else Tensor.cols a in
  let n = if tb then Tensor.rows b else Tensor.cols b in
  Array.init m (fun i ->
      Array.init n (fun j ->
          let s = ref 0.0 in
          for l = 0 to k - 1 do
            let av = if ta then Tensor.get a l i else Tensor.get a i l in
            let bv = if tb then Tensor.get b j l else Tensor.get b l j in
            s := !s +. (av *. bv)
          done;
          (alpha *. !s) +. (beta *. c0.(i).(j))))

let check_gemm_matches ~what got oracle =
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j expect ->
          let d = Float.abs (Tensor.get got i j -. expect) in
          if d > 1e-5 *. Float.max 1.0 (Float.abs expect) then
            Alcotest.failf "%s: c[%d,%d] = %.8f, oracle %.8f" what i j (Tensor.get got i j)
              expect)
        row)
    oracle

let test_gemm_randomized () =
  let rng = Rng.create 11 in
  List.iter
    (fun (ta, tb, tag) ->
      for trial = 1 to 8 do
        let m = 1 + Rng.int rng 17 and k = 1 + Rng.int rng 17 and n = 1 + Rng.int rng 17 in
        let a = if ta then Tensor.create k m else Tensor.create m k in
        let b = if tb then Tensor.create n k else Tensor.create k n in
        let c = Tensor.create m n in
        fill_random rng a;
        fill_random rng b;
        fill_random rng c;
        let alpha = List.nth [ 1.0; 0.5; -2.0 ] (trial mod 3) in
        let beta = List.nth [ 0.0; 1.0; 0.25 ] (trial mod 3) in
        let c0 = rows_of c in
        let oracle = naive_gemm ~ta ~tb ~alpha ~beta a b c0 in
        Tensor.gemm ~ta ~tb ~alpha ~beta ~a ~b c;
        check_gemm_matches
          ~what:(Printf.sprintf "%s %dx%dx%d alpha=%g beta=%g" tag m k n alpha beta)
          c oracle
      done)
    [ (false, false, "nn"); (false, true, "nt"); (true, false, "tn") ]

let test_gemm_on_views () =
  (* sub_rows/reshape views alias the parent: a GEMM over a view must read
     exactly the carved-out rows and leave the parent's storage alone. *)
  let rng = Rng.create 12 in
  let parent = Tensor.create 6 8 in
  fill_random rng parent;
  let before = rows_of parent in
  let a = Tensor.sub_rows parent ~off:2 ~len:3 in
  let b = Tensor.create 8 4 in
  let c = Tensor.create 3 4 in
  fill_random rng b;
  let oracle = naive_gemm ~ta:false ~tb:false ~alpha:1.0 ~beta:0.0 a b (rows_of c) in
  Tensor.gemm ~a ~b c;
  check_gemm_matches ~what:"view operand" c oracle;
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j v -> Alcotest.(check (float 0.0)) "parent untouched" v (Tensor.get parent i j))
        row)
    before;
  (* Writing through a reshaped view lands in the parent's storage. *)
  let view = Tensor.reshape (Tensor.sub_rows parent ~off:1 ~len:1) ~rows:2 ~cols:4 in
  Tensor.set view 1 3 42.0;
  Alcotest.(check (float 0.0)) "aliased write" 42.0 (Tensor.get parent 1 7)

let test_tensor_roundtrip () =
  let rows = [| [| 1.0; -2.5; 0.125 |]; [| 4.0; 0.0; -0.5 |] |] in
  let t = Tensor.of_rows rows in
  Alcotest.(check int) "rows" 2 (Tensor.rows t);
  Alcotest.(check int) "cols" 3 (Tensor.cols t);
  Array.iteri
    (fun i r ->
      Array.iteri (fun j v -> Alcotest.(check (float 0.0)) "roundtrip" v (Tensor.get t i j)) r)
    rows

(* --- batched engine: finite-difference parameter gradients ------------- *)

(* Central differences on the float32 parameters against the engine's own
   analytic gradients (Network.gradients runs all rows as one shard).
   Perturbations round to float32, so the realized step is re-read from
   the tensor and used as the divisor.  The loss is only piecewise smooth
   (ReLU, maxpool argmax): when the two one-sided slopes disagree the
   interval straddles a kink, where a central difference says nothing
   about the (one-sided) analytic gradient — those coordinates are
   skipped, and the check asserts it still measured a quorum. *)
let fd_param_check net ~xs ~labels =
  let _, grads = Network.gradients net ~xs ~labels in
  let params = List.concat_map Layer.params (Network.layers net) in
  let eps = 1e-3 in
  let max_err = ref 0.0 in
  let measured = ref 0 and skipped = ref 0 in
  let base = Network.loss net ~xs ~labels in
  List.iter2
    (fun p g ->
      let cols = Tensor.cols p in
      let total = Tensor.rows p * cols in
      let coords = [ 0; total / 3; total / 2; total - 1 ] in
      List.iter
        (fun idx ->
          let i = idx / cols and j = idx mod cols in
          let saved = Tensor.get p i j in
          Tensor.set p i j (saved +. eps);
          let vup = Tensor.get p i j in
          let up = Network.loss net ~xs ~labels in
          Tensor.set p i j (saved -. eps);
          let vdown = Tensor.get p i j in
          let down = Network.loss net ~xs ~labels in
          Tensor.set p i j saved;
          let fwd = (up -. base) /. (vup -. saved) in
          let bwd = (base -. down) /. (saved -. vdown) in
          if Float.abs (fwd -. bwd) > 0.02 *. Float.max 1.0 (Float.abs (fwd +. bwd) /. 2.0) then
            incr skipped
          else begin
            let numeric = (up -. down) /. (vup -. vdown) in
            let err = Float.abs (numeric -. g.(idx)) /. Float.max 1.0 (Float.abs numeric) in
            incr measured;
            if err > !max_err then max_err := err
          end)
        coords)
    params grads;
  if !measured < 3 * (!measured + !skipped) / 4 then
    Alcotest.failf "too many kinked coordinates: %d measured, %d skipped" !measured !skipped;
  !max_err

let test_batched_dense_gradients () =
  let rng = Rng.create 21 in
  let net =
    Network.create
      [
        Layer.dense ~rng ~inputs:12 ~outputs:8;
        Layer.relu ~size:8;
        Layer.dense ~rng ~inputs:8 ~outputs:3;
      ]
  in
  let xs = Tensor.create 6 12 in
  fill_random rng xs;
  let labels = Array.init 6 (fun i -> i mod 3) in
  let err = fd_param_check net ~xs ~labels in
  Alcotest.(check bool) (Printf.sprintf "max rel err %.2e < 1e-2" err) true (err < 1e-2)

let test_batched_conv_gradients () =
  let rng = Rng.create 22 in
  let c1 = Layer.conv_output_length ~length:20 ~kernel:5 in
  let p1 = Layer.pool_output_length ~length:c1 ~factor:2 in
  let net =
    Network.create
      [
        Layer.conv1d ~rng ~in_channels:1 ~out_channels:3 ~kernel:5 ~length:20;
        Layer.relu ~size:(3 * c1);
        Layer.maxpool1d ~channels:3 ~length:c1 ~factor:2;
        Layer.dense ~rng ~inputs:(3 * p1) ~outputs:2;
      ]
  in
  let xs = Tensor.create 5 20 in
  fill_random rng xs;
  let labels = Array.init 5 (fun i -> i mod 2) in
  let err = fd_param_check net ~xs ~labels in
  Alcotest.(check bool) (Printf.sprintf "max rel err %.2e < 1e-2" err) true (err < 1e-2)

(* --- batched vs reference parity --------------------------------------- *)

(* Paired builders: same seed, same draw order, so the batched net holds
   the float32 rounding of the reference net's float64 weights. *)
let paired_dense ~seed ~inputs ~hidden ~outputs =
  let r1 = Rng.create seed and r2 = Rng.create seed in
  let batched =
    Network.create
      [
        Layer.dense ~rng:r1 ~inputs ~outputs:hidden;
        Layer.relu ~size:hidden;
        Layer.dense ~rng:r1 ~inputs:hidden ~outputs;
      ]
  in
  let reference =
    RN.create
      [
        RL.dense ~rng:r2 ~inputs ~outputs:hidden;
        RL.relu ();
        RL.dense ~rng:r2 ~inputs:hidden ~outputs;
      ]
  in
  (batched, reference)

let paired_conv ~seed ~length ~outputs =
  let r1 = Rng.create seed and r2 = Rng.create seed in
  let c1 = Layer.conv_output_length ~length ~kernel:4 in
  let p1 = Layer.pool_output_length ~length:c1 ~factor:2 in
  let batched =
    Network.create
      [
        Layer.conv1d ~rng:r1 ~in_channels:1 ~out_channels:4 ~kernel:4 ~length;
        Layer.relu ~size:(4 * c1);
        Layer.maxpool1d ~channels:4 ~length:c1 ~factor:2;
        Layer.dense ~rng:r1 ~inputs:(4 * p1) ~outputs;
      ]
  in
  let reference =
    RN.create
      [
        RL.conv1d ~rng:r2 ~in_channels:1 ~out_channels:4 ~kernel:4 ~length;
        RL.relu ();
        RL.maxpool1d ~channels:4 ~length:c1 ~factor:2;
        RL.dense ~rng:r2 ~inputs:(4 * p1) ~outputs;
      ]
  in
  (batched, reference)

(* [n] rows of signed packet directions (0 = padding) at DF input length. *)
let direction_rows rng n =
  let xs = Tensor.create n Dfnet.input_length in
  for i = 0 to n - 1 do
    for j = 0 to Dfnet.input_length - 1 do
      Tensor.set xs i j (float_of_int (Rng.int rng 3 - 1))
    done
  done;
  xs

let logits_dev batched reference xs =
  let lg = Network.logits_m batched xs in
  let dev = ref 0.0 in
  for i = 0 to Tensor.rows xs - 1 do
    let rl = RN.logits reference (row_of xs i) in
    Array.iteri (fun c v -> dev := Float.max !dev (Float.abs (v -. Tensor.get lg i c))) rl
  done;
  !dev

let test_parity_randomized_shapes () =
  let rng = Rng.create 31 in
  for seed = 100 to 104 do
    let batched, reference =
      if seed mod 2 = 0 then
        paired_dense ~seed ~inputs:(4 + Rng.int rng 20) ~hidden:(2 + Rng.int rng 12)
          ~outputs:(2 + Rng.int rng 5)
      else paired_conv ~seed ~length:(10 + Rng.int rng 30) ~outputs:(2 + Rng.int rng 5)
    in
    let inputs = Layer.input_size (List.hd (Network.layers batched)) in
    let xs = Tensor.create (1 + Rng.int rng 9) inputs in
    fill_random rng xs;
    let dev = logits_dev batched reference xs in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: max logit dev %.2e <= 1e-5" seed dev)
      true (dev <= 1e-5)
  done;
  (* The DF-lite network itself at seed-paired weights: same bound, and
     identical predictions. *)
  let batched = Dfnet.build ~rng:(Rng.create 7) ~n_classes:9 in
  let reference = Dfnet.build_reference ~rng:(Rng.create 7) ~n_classes:9 in
  let xs = direction_rows rng 12 in
  let dev = logits_dev batched reference xs in
  Alcotest.(check bool) (Printf.sprintf "DF-lite: max logit dev %.2e <= 1e-5" dev) true (dev <= 1e-5);
  Array.iteri
    (fun i p ->
      Alcotest.(check int) (Printf.sprintf "DF-lite prediction %d" i)
        (RN.predict reference (row_of xs i)) p)
    (Network.predict_m batched xs)

let test_parity_after_training () =
  (* One epoch of paired training: the engines share shuffle order and
     update schedule, so the batched weights stay the float32 shadow of
     the reference weights — logits agree tightly, predictions exactly. *)
  let rng = Rng.create 32 in
  let batched, reference = paired_dense ~seed:77 ~inputs:10 ~hidden:8 ~outputs:3 in
  let n = 24 in
  let rows = Array.init n (fun _ -> Array.init 10 (fun _ -> Rng.uniform rng (-1.0) 1.0)) in
  let labels = Array.init n (fun i -> i mod 3) in
  let xs = Tensor.of_rows rows in
  Network.fit batched ~rng:(Rng.create 9) ~xs ~labels ~epochs:1 ~batch:8 ~lr:0.05 ();
  RN.fit reference ~rng:(Rng.create 9) ~xs:rows ~labels ~epochs:1 ~batch:8 ~lr:0.05 ();
  let dev = logits_dev batched reference xs in
  Alcotest.(check bool) (Printf.sprintf "post-fit logit dev %.2e <= 1e-3" dev) true (dev <= 1e-3);
  let preds = Network.predict_m batched xs in
  Array.iteri
    (fun i x ->
      Alcotest.(check int) (Printf.sprintf "prediction %d" i) (RN.predict reference x) preds.(i))
    rows

let test_fit_jobs_invariant () =
  (* The determinism contract: training is bit-identical at any domain
     count (fixed-width shards, fixed-order float64 reduction, RNG drawn
     only on the calling domain). *)
  let rng = Rng.create 33 in
  let n = 40 in
  let rows = Array.init n (fun _ -> Array.init 16 (fun _ -> Rng.uniform rng (-1.0) 1.0)) in
  let labels = Array.init n (fun i -> i mod 4) in
  let xs = Tensor.of_rows rows in
  let train pool =
    let r = Rng.create 55 in
    let net =
      Network.create
        [
          Layer.dense ~rng:r ~inputs:16 ~outputs:12;
          Layer.relu ~size:12;
          Layer.dense ~rng:r ~inputs:12 ~outputs:4;
        ]
    in
    Network.fit net ~rng:r ~xs ~labels ~epochs:3 ~batch:16 ?pool ();
    Network.weights_digest net
  in
  let d1 = train None in
  let d4 = Stob_par.Pool.with_pool ~domains:4 (fun pool -> train (Some pool)) in
  Alcotest.(check string) "digest at --jobs 1 = --jobs 4" d1 d4;
  (* The DF-lite stack (conv, pool, dense) at DF input length. *)
  let xs = direction_rows rng 72 in
  let labels = Array.init 72 (fun i -> i mod 9) in
  let train pool =
    let r = Rng.create 2024 in
    let net = Dfnet.build ~rng:r ~n_classes:9 in
    Network.fit net ~rng:r ~xs ~labels ~epochs:1 ?pool ();
    Network.weights_digest net
  in
  Alcotest.(check string) "DF-lite digest at --jobs 1 = --jobs 2" (train None)
    (Stob_par.Pool.with_pool ~domains:2 (fun pool -> train (Some pool)))

(* --- DF-lite ----------------------------------------------------------- *)

let test_dfnet_encode () =
  let trace =
    Stob_net.Trace.of_events
      [|
        { Stob_net.Trace.time = 0.0; dir = Stob_net.Packet.Outgoing; size = 100 };
        { Stob_net.Trace.time = 0.1; dir = Stob_net.Packet.Incoming; size = 1500 };
      |]
  in
  let x = Dfnet.encode_batch [| trace |] in
  Alcotest.(check int) "length" Dfnet.input_length (Tensor.cols x);
  Alcotest.(check (float 0.0)) "outgoing" 1.0 (Tensor.get x 0 0);
  Alcotest.(check (float 0.0)) "incoming" (-1.0) (Tensor.get x 0 1);
  Alcotest.(check (float 0.0)) "padding" 0.0 (Tensor.get x 0 2)

let test_dfnet_encode_batch_packed_agree () =
  (* encode_batch and the zero-copy packed path must agree exactly with a
     row built event by event from [Trace.dir] (directions are 0/±1, exact
     in float32). *)
  let rng = Rng.create 41 in
  let traces =
    Array.init 5 (fun _ ->
        Stob_net.Trace.of_events
          (Array.init
             (50 + Rng.int rng 700)
             (fun i ->
               {
                 Stob_net.Trace.time = 0.001 *. float_of_int i;
                 dir =
                   (if Rng.float rng 1.0 < 0.4 then Stob_net.Packet.Outgoing
                    else Stob_net.Packet.Incoming);
                 size = 100 + Rng.int rng 1000;
               })))
  in
  let batch = Dfnet.encode_batch traces in
  let packed = Dfnet.encode_packed (Array.map Stob_net.Packed_trace.of_trace traces) in
  Array.iteri
    (fun i trace ->
      let x =
        Array.init Dfnet.input_length (fun i ->
            if i < Stob_net.Trace.length trace then
              float_of_int (Stob_net.Packet.direction_sign (Stob_net.Trace.dir trace i))
            else 0.0)
      in
      Array.iteri
        (fun p v ->
          Alcotest.(check (float 0.0)) "batch" v (Tensor.get batch i p);
          Alcotest.(check (float 0.0)) "packed" v (Tensor.get packed i p))
        x)
    traces

let test_dfnet_learns_synthetic_classes () =
  (* Class 0: long incoming bursts; class 1: alternating directions. *)
  let rng = Rng.create 6 in
  let make label =
    Array.init 30 (fun _ ->
        let n = 200 + Rng.int rng 100 in
        Array.init Dfnet.input_length (fun i ->
            if i >= n then 0.0
            else if label = 0 then if i mod 12 < 2 then 1.0 else -1.0
            else if i mod 2 = 0 then 1.0
            else -1.0))
  in
  let xs = Tensor.of_rows (Array.append (make 0) (make 1)) in
  let labels = Array.init 60 (fun i -> if i < 30 then 0 else 1) in
  let net = Dfnet.train ~epochs:8 ~seed:7 ~n_classes:2 ~xs ~labels () in
  let acc = Dfnet.accuracy_m net ~xs ~labels in
  Alcotest.(check bool) (Printf.sprintf "separates patterns (%.2f)" acc) true (acc > 0.95)

let suite =
  [
    ( "nn.reference",
      [
        Alcotest.test_case "dense gradients" `Quick test_dense_gradients;
        Alcotest.test_case "conv gradients" `Quick test_conv_gradients;
        Alcotest.test_case "shapes" `Quick test_shapes;
        Alcotest.test_case "maxpool" `Quick test_maxpool_selects_max;
        Alcotest.test_case "maxpool backward needs forward" `Quick
          test_maxpool_backward_requires_forward;
        Alcotest.test_case "softmax" `Quick test_softmax;
        Alcotest.test_case "learns xor" `Quick test_network_learns_xor;
        Alcotest.test_case "loss decreases" `Quick test_loss_decreases;
      ] );
    ( "nn.tensor",
      [
        Alcotest.test_case "gemm randomized vs oracle" `Quick test_gemm_randomized;
        Alcotest.test_case "gemm on views" `Quick test_gemm_on_views;
        Alcotest.test_case "of_rows/to_rows roundtrip" `Quick test_tensor_roundtrip;
        Alcotest.test_case "dense fd gradients" `Quick test_batched_dense_gradients;
        Alcotest.test_case "conv fd gradients" `Quick test_batched_conv_gradients;
      ] );
    ( "nn.parity",
      [
        Alcotest.test_case "randomized shapes logits" `Quick test_parity_randomized_shapes;
        Alcotest.test_case "one-epoch training" `Quick test_parity_after_training;
        Alcotest.test_case "fit --jobs bit-identity" `Quick test_fit_jobs_invariant;
      ] );
    ( "nn.dfnet",
      [
        Alcotest.test_case "encode" `Quick test_dfnet_encode;
        Alcotest.test_case "encode batch/packed agree" `Quick test_dfnet_encode_batch_packed_agree;
        Alcotest.test_case "learns synthetic classes" `Slow test_dfnet_learns_synthetic_classes;
      ] );
  ]
