(** DF-lite: a Deep-Fingerprinting-style CNN attack, batched.

    The paper's threat model centres on deep-learning WF attacks (Sirinam
    et al.'s Deep Fingerprinting, Var-CNN) that reach >95 % closed-world
    accuracy on Tor.  This is a scaled-down clean-room version of that
    architecture: the input is the sequence of packet {e directions} (+1
    outgoing, -1 incoming, zero-padded), fed through two 1-D
    convolution/ReLU/max-pool blocks and two dense layers — no
    hand-engineered features at all, which is exactly what made the DL
    attacks notable.

    Training and inference run on the batched float32 engine
    ({!Stob_nn.Tensor}/{!Stob_nn.Network}); [build_reference] exposes the
    same architecture on the kept-as-oracle per-sample engine
    ({!Stob_nn.Reference}) for the parity and BENCH_dfnet gates.  Both
    builders draw from the RNG in the same order, so the same seed gives
    the batched net the float32 rounding of the reference net's weights.

    Scaled for CPU training on simulator corpora: 600-step input, 8/16
    filters (the original uses 5000 steps and hundreds of filters on a
    GPU). *)

type t = Stob_nn.Network.t
(** Transparent so the kernel gate and parity tests can reach the engine's
    [logits_m]/[weights_digest] hooks directly. *)

val input_length : int
(** Number of leading packet directions consumed (600). *)

val encode : Stob_net.Trace.t -> float array
(** Signed-direction encoding, zero-padded/truncated to {!input_length}. *)

val encode_batch : Stob_net.Trace.t array -> Stob_nn.Tensor.t
(** One {!encode}d row per trace, read straight off the word lane. *)

val encode_packed : Stob_net.Trace.t array -> Stob_nn.Tensor.t
(** {!encode_batch} under its former name, kept for the benchmark harness;
    the next benchmark refresh deletes it. *)

val build : rng:Stob_util.Rng.t -> n_classes:int -> t
(** The DF architecture on the batched engine. *)

val build_reference : rng:Stob_util.Rng.t -> n_classes:int -> Stob_nn.Reference.Network.t
(** The same architecture, same draw order, on the per-sample float64
    oracle — the baseline for the parity/speedup gates. *)

val train :
  ?epochs:int ->
  ?seed:int ->
  ?pool:Stob_par.Pool.t ->
  ?on_epoch:(Stob_nn.Network.progress -> unit) ->
  n_classes:int ->
  xs:Stob_nn.Tensor.t ->
  labels:int array ->
  unit ->
  t
(** Train on encoded traces (one row per sample).  Default 30 epochs.
    [?pool] parallelizes minibatch shards; the trained weights are
    bit-identical at any pool size ({!Stob_nn.Network.fit}'s contract). *)

val predict_m : ?pool:Stob_par.Pool.t -> t -> Stob_nn.Tensor.t -> int array
val accuracy_m : ?pool:Stob_par.Pool.t -> t -> xs:Stob_nn.Tensor.t -> labels:int array -> float
