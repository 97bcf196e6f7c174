module Rng = Stob_util.Rng
module A1 = Bigarray.Array1

let momentum = 0.9

(* Shared, mutated only by apply_update on the calling domain.  Values are
   float32 (the storage the kernels read); velocity stays float64 so the
   momentum recurrence matches the Reference oracle's arithmetic. *)
type param = { value : Tensor.t; vel : float array }

let make_param value = { value; vel = Array.make (Tensor.rows value * Tensor.cols value) 0.0 }

(* Identical draw sequence to Reference.Layer.he_init: n samples in
   row-major order, so a batched net built from the same seed holds the
   float32 rounding of the oracle's exact weights. *)
let he_tensor rng ~rows ~cols ~fan_in =
  let scale = sqrt (2.0 /. float_of_int (Int.max 1 fan_in)) in
  let t = Tensor.create rows cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      Tensor.set t i j (Rng.normal rng ~mu:0.0 ~sigma:scale)
    done
  done;
  t

type t =
  | Dense of { inputs : int; outputs : int; w : param; b : param }
  | Relu of { size : int }
  | Conv1d of {
      in_channels : int;
      out_channels : int;
      kernel : int;
      length : int;
      out_len : int;
      w : param;  (** [out_channels x (in_channels * kernel)] *)
      b : param;
    }
  | Maxpool1d of { channels : int; length : int; factor : int; out_len : int }

let conv_output_length ~length ~kernel = length - kernel + 1
let pool_output_length ~length ~factor = length / factor

let dense ~rng ~inputs ~outputs =
  let w = make_param (he_tensor rng ~rows:outputs ~cols:inputs ~fan_in:inputs) in
  let b = make_param (Tensor.create 1 outputs) in
  Dense { inputs; outputs; w; b }

let relu ~size = Relu { size }

let conv1d ~rng ~in_channels ~out_channels ~kernel ~length =
  let out_len = conv_output_length ~length ~kernel in
  if out_len <= 0 then invalid_arg "Layer.conv1d: kernel larger than input";
  let w =
    make_param
      (he_tensor rng ~rows:out_channels ~cols:(in_channels * kernel)
         ~fan_in:(in_channels * kernel))
  in
  let b = make_param (Tensor.create 1 out_channels) in
  Conv1d { in_channels; out_channels; kernel; length; out_len; w; b }

let maxpool1d ~channels ~length ~factor =
  if factor <= 0 then invalid_arg "Layer.maxpool1d: factor must be positive";
  let out_len = pool_output_length ~length ~factor in
  if out_len = 0 then invalid_arg "Layer.maxpool1d: input shorter than factor";
  Maxpool1d { channels; length; factor; out_len }

let input_size = function
  | Dense d -> d.inputs
  | Relu r -> r.size
  | Conv1d c -> c.in_channels * c.length
  | Maxpool1d p -> p.channels * p.length

let output_size = function
  | Dense d -> d.outputs
  | Relu r -> r.size
  | Conv1d c -> c.out_channels * c.out_len
  | Maxpool1d p -> p.channels * p.out_len

let params = function
  | Dense { w; b; _ } | Conv1d { w; b; _ } -> [ w.value; b.value ]
  | Relu _ | Maxpool1d _ -> []

let velocities = function
  | Dense { w; b; _ } | Conv1d { w; b; _ } -> [ w.vel; b.vel ]
  | Relu _ | Maxpool1d _ -> []

(* ------------------------------------------------------------------ *)
(* Per-shard state.  A ctx owns every buffer forward/backward touch
   besides the shared read-only params, so shards run on separate
   domains without sharing a mutable word — which is also what fixes
   the reference engine's shared-argmax pitfall structurally: the
   argmax scratch lives in the ctx, one per shard. *)

type ctx = {
  out : Tensor.t;  (** [max_rows x output_size] *)
  din : Tensor.t;  (** [max_rows x input_size] *)
  argmax : int array;  (** maxpool only: per-row input index of each max *)
  col : Tensor.t;  (** conv only: im2col scratch, [(ic * k) x out_len] *)
  dcol : Tensor.t;  (** conv only: dLoss/dcol scratch *)
}

let make_ctx spec ~rows =
  let out = Tensor.create rows (output_size spec) in
  let din = Tensor.create rows (input_size spec) in
  match spec with
  | Maxpool1d p ->
      {
        out;
        din;
        argmax = Array.make (rows * p.channels * p.out_len) 0;
        col = Tensor.create 0 0;
        dcol = Tensor.create 0 0;
      }
  | Conv1d c ->
      let ick = c.in_channels * c.kernel in
      { out; din; argmax = [||]; col = Tensor.create ick c.out_len; dcol = Tensor.create ick c.out_len }
  | Dense _ | Relu _ ->
      { out; din; argmax = [||]; col = Tensor.create 0 0; dcol = Tensor.create 0 0 }

(* Per-shard gradient accumulators, float64: each shard sums its own rows'
   gradients here; the trainer then folds shards in fixed index order. *)
type grads = { gw : float array; gb : float array }

let make_grads = function
  | Dense d -> { gw = Array.make (d.outputs * d.inputs) 0.0; gb = Array.make d.outputs 0.0 }
  | Conv1d c ->
      {
        gw = Array.make (c.out_channels * c.in_channels * c.kernel) 0.0;
        gb = Array.make c.out_channels 0.0;
      }
  | Relu _ | Maxpool1d _ -> { gw = [||]; gb = [||] }

let zero_grads g =
  Array.fill g.gw 0 (Array.length g.gw) 0.0;
  Array.fill g.gb 0 (Array.length g.gb) 0.0

let add_grads ~src ~dst =
  for i = 0 to Array.length src.gw - 1 do
    dst.gw.(i) <- dst.gw.(i) +. src.gw.(i)
  done;
  for i = 0 to Array.length src.gb - 1 do
    dst.gb.(i) <- dst.gb.(i) +. src.gb.(i)
  done

let forward spec ctx ~rows x =
  let out = Tensor.sub_rows ctx.out ~off:0 ~len:rows in
  (match spec with
  | Dense d ->
      (* out = x * w^T + b: seed each row with the bias, then beta=1 adds
         the float64 dot product on top — one rounding, like the oracle's
         acc-starts-at-b loop. *)
      Tensor.broadcast_row ~dst:out ~src:d.b.value ~rows;
      Tensor.gemm ~tb:true ~beta:1.0 ~a:x ~b:d.w.value out
  | Relu _ -> Tensor.relu_fwd ~x ~out ~rows
  | Conv1d c ->
      for i = 0 to rows - 1 do
        Tensor.im2col ~x ~row:i ~col:ctx.col ~in_channels:c.in_channels ~kernel:c.kernel
          ~length:c.length ~out_len:c.out_len;
        Tensor.fill_channels ~dst:out ~row:i ~bias:c.b.value ~channels:c.out_channels
          ~len:c.out_len;
        let oi =
          Tensor.reshape (Tensor.sub_rows out ~off:i ~len:1) ~rows:c.out_channels ~cols:c.out_len
        in
        (* [oc x out_len] = w [oc x ick] * col [ick x out_len] *)
        Tensor.gemm ~beta:1.0 ~a:c.w.value ~b:ctx.col oi
      done
  | Maxpool1d p ->
      Tensor.maxpool_fwd ~x ~out ~argmax:ctx.argmax ~rows ~channels:p.channels ~length:p.length
        ~factor:p.factor);
  out

let backward spec ctx g ~rows ~input ~dout =
  let din = Tensor.sub_rows ctx.din ~off:0 ~len:rows in
  (match spec with
  | Dense d ->
      (* din = dout * w *)
      Tensor.gemm ~a:dout ~b:d.w.value din;
      (* gw += dout^T * x, gb += column sums of dout — float64
         accumulation in the shard's own arrays. *)
      Tensor.dense_grad ~dout ~x:input ~gw:g.gw ~gb:g.gb ~rows
  | Relu _ -> Tensor.relu_bwd ~x:input ~dout ~din ~rows
  | Conv1d c ->
      for i = 0 to rows - 1 do
        (* Rebuild the sample's col matrix (cheaper than caching one per
           row) and fold its products with this sample's output gradient
           into the shard's float64 accumulators. *)
        Tensor.im2col ~x:input ~row:i ~col:ctx.col ~in_channels:c.in_channels ~kernel:c.kernel
          ~length:c.length ~out_len:c.out_len;
        let gi =
          Tensor.reshape (Tensor.sub_rows dout ~off:i ~len:1) ~rows:c.out_channels ~cols:c.out_len
        in
        Tensor.conv_grad ~gi ~col:ctx.col ~gw:g.gw ~gb:g.gb;
        (* dcol = w^T * g, then col2im scatters the contiguous dcol rows
           back onto the (overlapping) input positions. *)
        Tensor.gemm ~ta:true ~a:c.w.value ~b:gi ctx.dcol;
        Tensor.col2im ~dcol:ctx.dcol ~din ~row:i ~in_channels:c.in_channels ~kernel:c.kernel
          ~length:c.length ~out_len:c.out_len
      done
  | Maxpool1d p ->
      Tensor.maxpool_bwd ~dout ~din ~argmax:ctx.argmax ~rows ~channels:p.channels
        ~length:p.length ~factor:p.factor);
  din

(* The Reference sgd_step recurrence, velocity in float64, value rounded
   to float32 on store. *)
let step p (g : float array) ~lr =
  let vd = Tensor.data p.value in
  for i = 0 to Array.length g - 1 do
    p.vel.(i) <- (momentum *. p.vel.(i)) -. (lr *. g.(i));
    A1.unsafe_set vd i (A1.unsafe_get vd i +. p.vel.(i))
  done

let apply_update spec g ~lr =
  match spec with
  | Dense { w; b; _ } ->
      step w g.gw ~lr;
      step b g.gb ~lr
  | Conv1d { w; b; _ } ->
      step w g.gw ~lr;
      step b g.gb ~lr
  | Relu _ | Maxpool1d _ -> ()
