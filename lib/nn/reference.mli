(** The per-sample float64 network engine, kept as the differential oracle.

    This is the original [Stob_nn.Layer]/[Stob_nn.Network] pair, verbatim
    (same closures, same draw order, same update schedule), preserved when
    the batched float32 engine ({!Tensor}, the new {!Layer}/{!Network})
    replaced it on the hot path — the same pattern as
    [Stob_ml.Reference] for the forest trainer.  The [nn.parity] battery
    and [stobctl perf dfnet] check the batched engine against it; it is
    also the baseline the BENCH_dfnet speedup gate is measured against.
    Every value here is an entry point for those checks.

    One deliberate divergence: [Layer.maxpool1d] here allocates its argmax
    buffer {e per forward call}.  The original shared one mutable buffer
    across all forwards of the layer instance, which silently cross-wired
    gradients whenever a layer was reused or run concurrently; calling
    [backward] before any [forward] now raises instead of silently routing
    every gradient to index 0 (pinned by a regression test). *)

module Layer : sig
  type t = {
    forward : float array -> float array;
    backward : float array -> float array;
        (** Maps dLoss/dOutput to dLoss/dInput, accumulating parameter
            gradients. Must follow the corresponding [forward]. *)
    update : lr:float -> unit;
        (** SGD-with-momentum step over accumulated gradients; clears them. *)
  }

  val dense : rng:Stob_util.Rng.t -> inputs:int -> outputs:int -> t
  (** Fully connected layer, He-initialized. *)

  val relu : unit -> t

  val conv1d :
    rng:Stob_util.Rng.t -> in_channels:int -> out_channels:int -> kernel:int -> length:int -> t
  (** Valid (no padding) 1-D convolution over channel-major input of
      [in_channels * length]; output is
      [out_channels * (length - kernel + 1)]. *)

  val maxpool1d : channels:int -> length:int -> factor:int -> t
  (** Non-overlapping max pooling per channel; trailing remainder dropped. *)

  val conv_output_length : length:int -> kernel:int -> int
  val pool_output_length : length:int -> factor:int -> int
end

module Network : sig
  type t

  val create : Layer.t list -> t

  val logits : t -> float array -> float array
  (** Forward pass. *)

  val predict : t -> float array -> int
  (** Argmax class. *)

  val softmax : float array -> float array
  (** Numerically stable softmax (exposed for tests). *)

  val train_sample : t -> x:float array -> label:int -> float
  (** Forward + backward for one sample; returns its cross-entropy loss.
      Gradients accumulate until the next update. *)

  type progress = { epoch : int; mean_loss : float }

  val fit :
    t ->
    rng:Stob_util.Rng.t ->
    xs:float array array ->
    labels:int array ->
    ?epochs:int ->
    ?batch:int ->
    ?lr:float ->
    ?on_epoch:(progress -> unit) ->
    unit ->
    unit
  (** Shuffled minibatch SGD.  Defaults: 30 epochs, batch 16, lr 0.01 (the
      learning rate is divided by the batch size internally so loss
      gradients average rather than sum). *)

  val accuracy : t -> xs:float array array -> labels:int array -> float
end
