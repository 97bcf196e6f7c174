(** Float32 tensors for the batched DF-net engine.

    A tensor is a dense row-major [rows x cols] matrix over a float32
    bigarray — 4 bytes per element, unboxed, shareable across domains
    (values are only written by the domain that owns the enclosing
    buffer).  Storage is float32 but every kernel {e accumulates in
    float64} (OCaml's native [float]) and rounds once on store, which is
    what keeps the batched engine within a tight tolerance of the
    float64 {!Reference} oracle.

    {!sub_rows} and {!reshape} are zero-copy views: they alias the
    parent's storage, which is how minibatch shards and per-sample
    channel-major feature maps are carved out of one buffer without
    copying. *)

type ba = (float, Bigarray.float32_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = private { data : ba; rows : int; cols : int }

val create : int -> int -> t
(** [create rows cols]: zero-filled. *)

val rows : t -> int
val cols : t -> int

val data : t -> ba
(** The raw storage (row-major, [rows * cols] elements).  Exposed for the
    layer kernels; use {!get}/{!set} elsewhere. *)

val get : t -> int -> int -> float
(** Bounds-checked element read ([i], [j]).  The returned [float] is the
    exact float32 value widened to float64. *)

val set : t -> int -> int -> float -> unit
(** Bounds-checked element write; the value is rounded to float32. *)

val of_rows : float array array -> t
(** Pack row vectors (all the same length) into a fresh tensor, rounding
    to float32.  An empty array yields a [0 x 0] tensor. *)

val blit : src:t -> dst:t -> unit
(** Copy [src] into [dst]; dimensions must match exactly. *)

val sub_rows : t -> off:int -> len:int -> t
(** Zero-copy view of rows [off .. off+len-1]. *)

val reshape : t -> rows:int -> cols:int -> t
(** Zero-copy view with a different shape; the element count must be
    unchanged.  Combined with {!sub_rows} this turns one batch row into a
    channel-major [channels x length] feature map. *)

val gemm : ?ta:bool -> ?tb:bool -> ?alpha:float -> ?beta:float -> a:t -> b:t -> t -> unit
(** [gemm ~ta ~tb ~alpha ~beta ~a ~b c]:
    [c <- alpha * op(a) * op(b) + beta * c] where [op] transposes when the
    corresponding flag is set (both defaults [false]; [ta && tb] is not
    implemented).  [alpha] defaults to [1.0], [beta] to [0.0] (with
    [beta = 0.0] the old contents of [c] are ignored, not read).

    The three transpose variants dispatch to vectorized C kernels
    (tensor_stubs.c, built -O3 -march=native): unit-stride saxpy/dot
    loops over the float32 storage with float64 row accumulators, rounded
    exactly once when stored into [c].  The kernels are branch-free with
    respect to the domain count, which is what makes training
    [--jobs]-invariant.  Raises [Invalid_argument] on dimension
    mismatch. *)

(** {1 Engine-internal layer kernels}

    Thin wrappers over the C stubs used by {!Layer}'s forward/backward;
    shapes are trusted (the layer ctx plumbing sizes every buffer), so
    unlike {!gemm} they do not re-validate. *)

val dense_grad : dout:t -> x:t -> gw:float array -> gb:float array -> rows:int -> unit
(** [gw(out,in) += dout(rows,out)^T * x(rows,in)] and [gb(out) += column
    sums of dout], accumulated in float64. *)

val conv_grad : gi:t -> col:t -> gw:float array -> gb:float array -> unit
(** Per-sample conv parameter gradients, float64 accumulation:
    [gw(oc,ick) += gi(oc,len) * col(ick,len)^T], [gb(oc) += row sums]. *)

val im2col : x:t -> row:int -> col:t -> in_channels:int -> kernel:int -> length:int -> out_len:int -> unit
(** Lower row [row] of [x] (channel-major [in_channels * length]) into the
    [(in_channels * kernel) x out_len] col matrix — pure memcpy per
    receptive-field row. *)

val col2im : dcol:t -> din:t -> row:int -> in_channels:int -> kernel:int -> length:int -> out_len:int -> unit
(** Zero row [row] of [din], then scatter-add [dcol] back onto the
    overlapping input positions (the transpose of {!im2col}). *)

val relu_fwd : x:t -> out:t -> rows:int -> unit
val relu_bwd : x:t -> dout:t -> din:t -> rows:int -> unit

val broadcast_row : dst:t -> src:t -> rows:int -> unit
(** Every row of [dst] becomes a copy of [src] (a [1 x cols] bias). *)

val fill_channels : dst:t -> row:int -> bias:t -> channels:int -> len:int -> unit
(** Channel-major bias broadcast into row [row] of [dst]: channel [c]'s
    [len] positions are set to [bias[c]]. *)

val maxpool_fwd :
  x:t -> out:t -> argmax:int array -> rows:int -> channels:int -> length:int -> factor:int -> unit
(** Non-overlapping max pool; [argmax] receives, per output, the input
    index of the max {e within its row} (what the backward scatter
    needs). *)

val maxpool_bwd :
  dout:t -> din:t -> argmax:int array -> rows:int -> channels:int -> length:int -> factor:int -> unit
