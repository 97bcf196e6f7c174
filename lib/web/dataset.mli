(** Dataset generation and sanitization (the paper's Section 3 pipeline).

    Generates N visits per monitored site through the simulator, then
    sanitizes the corpus the way the paper does: visits with connection
    errors are dropped, outliers outside the Tukey fences of each site's
    total download size are removed, and classes are balanced down to the
    smallest surviving class (the paper lands on 74 per site from 100). *)

type sample = {
  site : string;
  label : int;  (** Index into {!site_names} order. *)
  trace : Stob_net.Trace.t;
  completed : bool;
  total_in_bytes : int;  (** Incoming wire bytes (download size). *)
}

type t = { samples : sample array; site_names : string array }

val generate :
  ?samples_per_site:int ->
  ?seed:int ->
  ?policy:Stob_core.Policy.t ->
  ?client_config:Stob_tcp.Config.t ->
  ?profiles:Profile.t list ->
  ?failure_rate:float ->
  ?transport:[ `Tcp | `Quic ] ->
  ?progress:(done_:int -> total:int -> unit) ->
  ?pool:Stob_par.Pool.t ->
  unit ->
  t
(** Defaults: 100 samples per site, the nine paper sites, seed 1,
    no Stob policy, CUBIC, TCP transport ([`Quic] loads each visit over a
    single HTTP/3-style QUIC connection instead).  [failure_rate] injects connection errors:
    that fraction of visits is truncated at a random point and marked
    incomplete (default 0.02), exercising the sanitization path the way
    flaky real-world captures did.

    [?pool] parallelizes visits across domains.  Per-visit generators are
    pre-split from [seed] in visit order, so the corpus is bit-identical
    for any domain count.  [progress] may then be called concurrently and
    out of order (its [done_] argument stays an accurate running count). *)

val sanitize : t -> t
(** Drop incomplete visits, apply the per-site IQR filter on total download
    size, and balance classes to the minimum surviving count. *)

val per_site_counts : t -> (string * int) list

val split :
  t -> rng:Stob_util.Rng.t -> train_fraction:float -> t * t
(** Stratified train/test split: the fraction applies within each class. *)

val folds : t -> rng:Stob_util.Rng.t -> k:int -> (t * t) list
(** [k] stratified cross-validation folds as (train, test) pairs. *)

val map_traces : t -> (sample -> Stob_net.Trace.t) -> t
(** Apply a trace transformation (a defense) to every sample, recomputing
    download sizes. *)
