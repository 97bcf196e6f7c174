module Trace = Stob_net.Trace
module Packet = Stob_net.Packet
module Layer = Stob_nn.Layer
module Network = Stob_nn.Network
module Reference = Stob_nn.Reference
module Tensor = Stob_nn.Tensor
module Rng = Stob_util.Rng

let input_length = 600

(* Straight off the word lane (bit 0 is the direction), no per-event
   record materialized. *)
let encode_into (t : Tensor.t) row trace =
  let meta = Trace.raw_meta trace in
  for p = 0 to Int.min (Trace.length trace) input_length - 1 do
    let dir_bit = Int32.to_int (Bigarray.Array1.unsafe_get meta p) land 1 in
    Tensor.set t row p (if dir_bit = 1 then 1.0 else -1.0)
  done

let encode_batch traces =
  let t = Tensor.create (Array.length traces) input_length in
  Array.iteri (encode_into t) traces;
  t

let encode_packed = encode_batch

type t = Network.t

(* Two conv/relu/pool blocks then two dense layers — the DF shape.  The
   layer order, shapes and RNG draw order are identical to
   [build_reference], so the same seed yields the float32 rounding of the
   reference net's weights (what the parity gates rely on). *)
let shape ~n_classes =
  let l1 = input_length in
  let c1 = Layer.conv_output_length ~length:l1 ~kernel:8 in
  let p1 = Layer.pool_output_length ~length:c1 ~factor:3 in
  let c2 = Layer.conv_output_length ~length:p1 ~kernel:8 in
  let p2 = Layer.pool_output_length ~length:c2 ~factor:3 in
  (l1, c1, p1, c2, p2, n_classes)

let build ~rng ~n_classes =
  let l1, c1, p1, c2, p2, _ = shape ~n_classes in
  Network.create
    [
      Layer.conv1d ~rng ~in_channels:1 ~out_channels:8 ~kernel:8 ~length:l1;
      Layer.relu ~size:(8 * c1);
      Layer.maxpool1d ~channels:8 ~length:c1 ~factor:3;
      Layer.conv1d ~rng ~in_channels:8 ~out_channels:16 ~kernel:8 ~length:p1;
      Layer.relu ~size:(16 * c2);
      Layer.maxpool1d ~channels:16 ~length:c2 ~factor:3;
      Layer.dense ~rng ~inputs:(16 * p2) ~outputs:64;
      Layer.relu ~size:64;
      Layer.dense ~rng ~inputs:64 ~outputs:n_classes;
    ]

(* The pre-batching build, verbatim, on the kept-as-oracle engine. *)
let build_reference ~rng ~n_classes =
  let module L = Reference.Layer in
  let l1, c1, p1, c2, p2, _ = shape ~n_classes in
  Reference.Network.create
    [
      L.conv1d ~rng ~in_channels:1 ~out_channels:8 ~kernel:8 ~length:l1;
      L.relu ();
      L.maxpool1d ~channels:8 ~length:c1 ~factor:3;
      L.conv1d ~rng ~in_channels:8 ~out_channels:16 ~kernel:8 ~length:p1;
      L.relu ();
      L.maxpool1d ~channels:16 ~length:c2 ~factor:3;
      L.dense ~rng ~inputs:(16 * p2) ~outputs:64;
      L.relu ();
      L.dense ~rng ~inputs:64 ~outputs:n_classes;
    ]

let train ?(epochs = 30) ?(seed = 0) ?pool ?on_epoch ~n_classes ~xs ~labels () =
  let rng = Rng.create seed in
  let net = build ~rng ~n_classes in
  Network.fit net ~rng ~xs ~labels ~epochs ?pool ?on_epoch ();
  net

let accuracy_m = Network.accuracy_m
