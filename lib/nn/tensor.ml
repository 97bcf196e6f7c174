module A1 = Bigarray.Array1

type ba = (float, Bigarray.float32_elt, Bigarray.c_layout) A1.t

type t = { data : ba; rows : int; cols : int }

let create rows cols =
  if rows < 0 || cols < 0 then invalid_arg "Tensor.create: negative dimension";
  let data = A1.create Bigarray.float32 Bigarray.c_layout (rows * cols) in
  A1.fill data 0.0;
  { data; rows; cols }

let rows t = t.rows
let cols t = t.cols
let data t = t.data

let get t i j =
  if i < 0 || i >= t.rows || j < 0 || j >= t.cols then invalid_arg "Tensor.get: out of bounds";
  A1.unsafe_get t.data ((i * t.cols) + j)

let set t i j v =
  if i < 0 || i >= t.rows || j < 0 || j >= t.cols then invalid_arg "Tensor.set: out of bounds";
  A1.unsafe_set t.data ((i * t.cols) + j) v

let of_rows rows =
  let n = Array.length rows in
  if n = 0 then create 0 0
  else begin
    let cols = Array.length rows.(0) in
    let t = create n cols in
    Array.iteri
      (fun i r ->
        if Array.length r <> cols then invalid_arg "Tensor.of_rows: ragged rows";
        let base = i * cols in
        for j = 0 to cols - 1 do
          A1.unsafe_set t.data (base + j) (Array.unsafe_get r j)
        done)
      rows;
    t
  end

let blit ~src ~dst =
  if src.rows <> dst.rows || src.cols <> dst.cols then invalid_arg "Tensor.blit: shape mismatch";
  A1.blit src.data dst.data

let sub_rows t ~off ~len =
  if off < 0 || len < 0 || off + len > t.rows then invalid_arg "Tensor.sub_rows: out of bounds";
  { data = A1.sub t.data (off * t.cols) (len * t.cols); rows = len; cols = t.cols }

let reshape t ~rows ~cols =
  if rows < 0 || cols < 0 || rows * cols <> t.rows * t.cols then
    invalid_arg "Tensor.reshape: element count must be preserved";
  { data = t.data; rows; cols }

(* ------------------------------------------------------------------ *)
(* Kernels.  The hot loops live in tensor_stubs.c: float32 loads with
   float64 accumulators, compiled -O3 -march=native so gcc vectorizes
   them (this container is single-core, so the BENCH_dfnet speedup has
   to come from the kernels, not from domains).  Each external is
   [@@noalloc] and never calls back into the runtime. *)

external gemm_stub :
  ba -> ba -> ba -> int -> int -> int -> int -> float -> float -> unit
  = "stob_nn_gemm_byte" "stob_nn_gemm"
[@@noalloc]

external dense_grad_stub : ba -> ba -> float array -> float array -> int -> int -> int -> unit
  = "stob_nn_dense_grad_byte" "stob_nn_dense_grad"
[@@noalloc]

external conv_grad_stub : ba -> ba -> float array -> float array -> int -> int -> int -> unit
  = "stob_nn_conv_grad_byte" "stob_nn_conv_grad"
[@@noalloc]

external im2col_stub : ba -> int -> ba -> int -> int -> int -> int -> unit
  = "stob_nn_im2col_byte" "stob_nn_im2col"
[@@noalloc]

external col2im_stub : ba -> ba -> int -> int -> int -> int -> int -> unit
  = "stob_nn_col2im_byte" "stob_nn_col2im"
[@@noalloc]

external relu_fwd_stub : ba -> ba -> int -> unit = "stob_nn_relu_fwd" [@@noalloc]
external relu_bwd_stub : ba -> ba -> ba -> int -> unit = "stob_nn_relu_bwd" [@@noalloc]
external broadcast_row_stub : ba -> ba -> int -> int -> unit = "stob_nn_broadcast_row" [@@noalloc]

external fill_channels_stub : ba -> int -> ba -> int -> int -> unit = "stob_nn_fill_channels"
[@@noalloc]

external maxpool_fwd_stub : ba -> ba -> int array -> int * int * int * int -> unit
  = "stob_nn_maxpool_fwd"
[@@noalloc]

external maxpool_bwd_stub : ba -> ba -> int array -> int * int * int * int -> unit
  = "stob_nn_maxpool_bwd"
[@@noalloc]

let gemm ?(ta = false) ?(tb = false) ?(alpha = 1.0) ?(beta = 0.0) ~a ~b c =
  let m = if ta then a.cols else a.rows in
  let ka = if ta then a.rows else a.cols in
  let kb = if tb then b.cols else b.rows in
  let n = if tb then b.rows else b.cols in
  if ka <> kb || c.rows <> m || c.cols <> n then
    invalid_arg
      (Printf.sprintf "Tensor.gemm: shape mismatch (op(a)=%dx%d op(b)=%dx%d c=%dx%d)" m ka kb n
         c.rows c.cols);
  let variant =
    match (ta, tb) with
    | false, false -> 0
    | false, true -> 1
    | true, false -> 2
    | true, true -> invalid_arg "Tensor.gemm: ta && tb is not implemented"
  in
  gemm_stub a.data b.data c.data m ka n variant alpha beta

(* Engine-internal layer kernels (see layer.ml for the calling
   conventions); shapes are validated by the layer ctx plumbing, so these
   wrappers only forward to the stubs. *)

let dense_grad ~dout ~x ~gw ~gb ~rows =
  dense_grad_stub dout.data x.data gw gb rows dout.cols x.cols

let conv_grad ~gi ~col ~gw ~gb = conv_grad_stub gi.data col.data gw gb gi.rows col.rows gi.cols

let im2col ~x ~row ~col ~in_channels ~kernel ~length ~out_len =
  im2col_stub x.data (row * x.cols) col.data in_channels kernel length out_len

let col2im ~dcol ~din ~row ~in_channels ~kernel ~length ~out_len =
  col2im_stub dcol.data din.data (row * din.cols) in_channels kernel length out_len

let relu_fwd ~x ~out ~rows = relu_fwd_stub x.data out.data (rows * out.cols)
let relu_bwd ~x ~dout ~din ~rows = relu_bwd_stub x.data dout.data din.data (rows * din.cols)
let broadcast_row ~dst ~src ~rows = broadcast_row_stub dst.data src.data rows dst.cols

let fill_channels ~dst ~row ~bias ~channels ~len =
  fill_channels_stub dst.data (row * dst.cols) bias.data channels len

let maxpool_fwd ~x ~out ~argmax ~rows ~channels ~length ~factor =
  maxpool_fwd_stub x.data out.data argmax (rows, channels, length, factor)

let maxpool_bwd ~dout ~din ~argmax ~rows ~channels ~length ~factor =
  maxpool_bwd_stub dout.data din.data argmax (rows, channels, length, factor)
