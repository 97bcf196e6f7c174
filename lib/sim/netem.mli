(** Netem-style network impairment: deterministic adverse-path emulation.

    A netem sits in front of a receiver callback (typically a {!Link}'s
    [deliver]) and subjects every frame to a seeded impairment pipeline —
    loss (i.i.d. or Gilbert–Elliott bursts), duplication, reordering
    (hold a frame until [reorder_depth] later frames have passed) and
    jitter — the same knobs as Linux [tc netem], minus rate shaping
    (the link already models that).

    {b Determinism.}  All randomness comes from one {!Stob_util.Rng}
    seeded by [config.seed]; a simulation built from equal seeds replays
    identically, wherever its events interleave with other subsystems on
    the shared engine.  Independent directions (or paths) must use
    distinct seeds or their draw streams alias.

    {b Drop lists.}  For regression tests that need "lose exactly the nth
    data packet", [drop_list] names 1-based ordinals among the frames
    matching [drop_filter] (default: every frame); those frames are
    dropped deterministically, before any random impairment draws. *)

type loss_model =
  | No_loss
  | Iid of float  (** Independent per-frame loss probability. *)
  | Gilbert_elliott of {
      p_gb : float;  (** P(good -> bad) per frame. *)
      p_bg : float;  (** P(bad -> good) per frame. *)
      loss_good : float;  (** Loss probability in the good state. *)
      loss_bad : float;  (** Loss probability in the bad state. *)
    }
      (** Two-state Markov burst-loss channel (starts in the good state).
          Test seam: the burst paths of [sim.netem] and [quic.golden]. *)

type config = {
  loss : loss_model;
  reorder_prob : float;  (** Probability a frame is held back. *)
  reorder_depth : int;  (** Frames that must pass before a held frame is released. *)
  reorder_hold : float;
      (** Max seconds a held frame waits; a flush timer releases it even if
          traffic stops (so a held FIN cannot deadlock a connection). *)
  duplicate_prob : float;  (** Probability a frame is delivered twice. *)
  jitter : float;
      (** Extra uniform delay in [\[0, jitter\]] seconds per delivery.  Jitter
          larger than the inter-frame gap reorders on its own. *)
  drop_list : int list;  (** 1-based ordinals of filtered frames to drop. *)
  seed : int;
}

val default : config
(** Everything off: no loss, no reorder, no duplication, no jitter, empty
    drop list, seed 0.  Feeding through [default] is the identity (modulo
    the counters). *)

type stats = {
  offered : int;  (** Frames fed in. *)
  lost : int;  (** Frames dropped (random loss + drop list). *)
  duplicated : int;  (** Extra copies delivered. *)
  reordered : int;  (** Held frames delivered behind later arrivals. *)
  delivered : int;  (** Deliveries dispatched (includes duplicates). *)
}

val zero_stats : stats
val add_stats : stats -> stats -> stats

type 'a t

type 'a spec
(** A config bundled with its frame-level drop filter — what callers that
    build the netem themselves (e.g. a path constructor) accept. *)

val spec : ?drop_filter:('a -> bool) -> config -> 'a spec
(** [drop_filter] selects which frames count toward [drop_list] ordinals;
    default accepts every frame.  Raises [Invalid_argument] on
    out-of-range probabilities, negative depth/hold/jitter, or non-positive
    drop-list ordinals.  Test seam: [drop_filter], with which [sim.netem],
    [tcp.impairment] and [quic.robustness] drop the n-th data packet. *)

val of_spec : engine:Engine.t -> deliver:('a -> unit) -> 'a spec -> 'a t
(** Build an impairment stage feeding [deliver]. *)

val feed : 'a t -> 'a -> unit
(** Push one frame through the pipeline.  Order of operations: drop list,
    loss draw, duplication draw, reorder draw; surviving frames are
    dispatched after the jitter delay.  A frame that passes (is neither
    dropped nor held) ages every held frame by one and releases the ripe
    ones {e after} itself — that is the reordering. *)

val stats : 'a t -> stats

val held : 'a t -> int
(** Frames currently parked in the reorder buffer.  Test seam. *)
