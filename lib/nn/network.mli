(** Batched sequential networks with softmax cross-entropy training.

    The minibatch rebuild of {!Reference.Network} on float32 {!Tensor}
    batches: one forward/backward pass per minibatch {e shard} instead of
    per sample, with the shards of a batch run in parallel on a
    {!Stob_par.Pool}.

    {b Determinism contract.}  Training is bit-identical at any [--jobs]:
    a minibatch always splits into fixed-width shards (4 rows) regardless
    of the pool size; each shard owns all of its mutable state and is a
    pure function of (weights, its rows); shard gradients are reduced in
    shard-index order in float64; and the RNG is drawn only on the calling
    domain (the epoch shuffle) — the pre-split-RNG rule with zero splits.

    Arithmetic matches the reference up to float32 rounding: parameters
    are stored float32, but every kernel accumulates in float64 (gradient
    reduction and the momentum recurrence run entirely in float64), so a
    net built from the same seed tracks the float64 oracle within the
    tolerance gated by [stobctl perf dfnet]. *)

type t

val create : Layer.t list -> t
(** Raises [Invalid_argument] on an empty layer list. *)

type progress = { epoch : int; mean_loss : float }

val fit :
  t ->
  rng:Stob_util.Rng.t ->
  xs:Tensor.t ->
  labels:int array ->
  ?epochs:int ->
  ?batch:int ->
  ?lr:float ->
  ?pool:Stob_par.Pool.t ->
  ?on_epoch:(progress -> unit) ->
  unit ->
  unit
(** Shuffled minibatch SGD over the rows of [xs].  Defaults: 30 epochs,
    batch 16, lr 0.01 (divided by the batch size internally so gradients
    average), sequential pool.  Shuffle order, update schedule and loss
    semantics mirror {!Reference.Network.fit} draw-for-draw.  Test seam:
    [batch] and [lr], for [nn.parity]'s small oracle runs. *)

val logits_m : ?pool:Stob_par.Pool.t -> t -> Tensor.t -> Tensor.t
(** Batched forward pass; row [i] of the result is sample [i]'s logits.
    [?pool] fans row chunks out across domains (each chunk writes a
    disjoint row range — results are pool-invariant). *)

val predict_m : ?pool:Stob_par.Pool.t -> t -> Tensor.t -> int array
(** Argmax class per row (first index on ties, like the reference). *)

val accuracy_m : ?pool:Stob_par.Pool.t -> t -> xs:Tensor.t -> labels:int array -> float

(** {1 Test hooks} *)

val layers : t -> Layer.t list
(** The layers, in order; the finite-difference tests read their
    parameters. *)

val loss : t -> xs:Tensor.t -> labels:int array -> float
(** Summed softmax cross-entropy over all rows (sequential).  Exposed for
    the finite-difference tests. *)

val gradients : t -> xs:Tensor.t -> labels:int array -> float * float array list
(** One sequential forward/backward over all rows as a single shard:
    the summed loss and, for each parameterized layer in order, its
    float64 [weights] then [bias] gradient sums.  Exposed for the
    finite-difference tests. *)

val weights_digest : t -> string
(** Hex digest of every parameter's float32 bits and every momentum
    buffer's float64 bits — bit-exact state identity, used by the
    [--jobs]-invariance gates. *)
