(** Population-scale trace factory.

    Models a whole user population browsing the monitored + background web
    for one simulated day — zipf-distributed site popularity, per-user
    session counts, diurnal load — and turns every visit into a packed
    trace ({!Stob_net.Trace}).  The corpus is generated in a fixed
    number of {e shards} (independent of [--jobs], so the output is
    jobs-invariant by construction), each shard streaming its traces into
    its own {!Stob_store.Journal} file as they are produced: resident
    memory stays O(shard), never O(corpus).

    A run-level {!Stob_store.Store} in the same state directory records
    one small stats record per finished shard, which is what makes a
    killed generation resumable: shards already journaled are skipped, and
    the corpus digest of the merged run is identical to an uninterrupted
    one.

    The planning layer ({!plan_shard}) is pure and exposed separately so
    the statistical tests can check the zipf slope and per-user session
    distribution without synthesizing a single packet. *)

type mode =
  | Synthetic
      (** Draw traces from a cheap per-site statistical model (handshake,
          TLS flight, per-object transfer bursts parameterized by the
          site's {!Stob_web.Profile}).  ~1000x faster than a full stack
          simulation; the population shape, not stack fidelity, is the
          point. *)
  | Browser  (** Full {!Stob_web.Browser.load} page-load simulation. *)

type config = {
  users : int;  (** Population size. *)
  shards : int;  (** Fixed shard count; results never depend on [--jobs]. *)
  zipf_exponent : float;  (** Site-popularity exponent [s] (weights 1/r^s). *)
  background_sites : int;
      (** Synthetic background profiles appended after the nine monitored
          sites; the zipf ranking runs over the combined universe. *)
  mean_sessions : float;  (** Poisson mean sessions per user per day. *)
  mean_session_visits : float;  (** Mean visits per session (>= 1). *)
  mean_dwell : float;  (** Mean seconds between visits within a session. *)
  day_seconds : float;  (** Diurnal period. *)
  diurnal_amplitude : float;
      (** Peak-to-mean load swing in [0, 1): intensity(t) follows
          [1 + a*sin(2*pi*(t/day - 1/4))], peaking mid-day. *)
  max_trace_events : int;  (** Per-trace event cap (capture truncation). *)
  mode : mode;
  seed : int;
}

val default_config : config

val config_fields : config -> (string * string) list
(** Canonical digest fields (everything but the seed, which
    {!Stob_store.Cell.digest} takes separately). *)

val universe : config -> Stob_web.Profile.t array
(** Monitored sites (rank 0..8, the paper's order) followed by
    [background_sites] synthetic profiles.  Deterministic in [seed]. *)

(** {1 Planning (pure)} *)

type visit = {
  user : int;
  session : int;  (** Session index within the user's day. *)
  site : int;  (** Rank into {!universe}. *)
  start : float;  (** Visit start, seconds into the day. *)
  trace_seed : int;  (** Seed for the visit's trace synthesis. *)
}

val plan_shard : config -> shard:int -> visit array
(** All visits of the users assigned to [shard] (user [u] belongs to shard
    [u mod shards]), in (user, session, visit) order.  Deterministic in
    [(config, shard)]; a user's plan does not depend on the shard count —
    each user draws from an own pre-split generator. *)

val synthesize : config -> universe:Stob_web.Profile.t array -> visit -> Stob_net.Trace.t
(** One visit's packed trace, deterministic in the visit's [trace_seed].
    Sorted, time-zeroed, at most [max_trace_events] events. *)

(** {1 Generation} *)

type shard_stats = {
  shard : int;
  flows : int;  (** Traces journaled by this shard. *)
  events : int;
  payload_bytes : int;  (** Packed bytes appended to the shard journal. *)
  payload_crc : string;  (** Hex digest of the shard's payload stream. *)
  site_visits : int array;  (** Visit count per universe rank. *)
}

type summary = {
  config : config;
  shard_results : shard_stats array;
  flows : int;
  events : int;
  bytes : int;
  cached_shards : int;  (** Shards served from a previous run's journal. *)
  corpus_digest : string;
      (** {!Stob_store.Cell.digest} over the per-shard payload digests —
          equal iff every shard's journaled bytes are equal. *)
}

val shard_file : state_dir:string -> int -> string
(** The shard's journal path inside a state directory. *)

val generate :
  ?pool:Stob_par.Pool.t ->
  ?on_shard:(shard_stats -> unit) ->
  config ->
  state_dir:string ->
  summary
(** Generate (or resume) the corpus under [state_dir].  [on_shard] fires
    once per shard in strictly increasing shard order (cached or fresh),
    after the shard's stats are durably recorded.  A shard counts as cached
    only when its stats record exists and its journal has the size that
    record implies; a truncated or missing journal is recomputed.  Raises
    [Failure] if the directory belongs to a different run. *)

val iter_shard_traces : state_dir:string -> shard:int -> (Stob_net.Trace.t -> unit) -> unit
(** Stream one shard's journaled traces, oldest first, each decoded
    straight from the journal walker's buffer ({!Stob_store.Journal.iter}):
    O(largest trace) memory beyond what [f] keeps.  A missing shard file
    iterates nothing, and a damaged one stops at the damage. *)

val iter_shard_frames :
  state_dir:string -> shard:int -> ((unit -> Stob_net.Trace.t) -> unit) -> unit
(** {!iter_shard_traces} without the decode: [f decode] runs once per
    CRC-valid frame, oldest first, and [decode ()] decodes that frame.
    [decode] is valid only during its call of [f].  A reader that needs
    some of the traces counts every frame and decodes only those. *)

val pp_summary : Format.formatter -> summary -> unit
