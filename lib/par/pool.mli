(** Deterministic multicore work pool.

    A pool owns [domains - 1] worker domains (the calling domain is the
    final worker: it participates in every batch, so a pool created with
    [~domains:1] — or on a host where {!Domain.recommended_domain_count}
    is [1] — spawns nothing and runs purely sequentially).

    {b Determinism contract.}  [map pool f input] writes [f input.(i)]
    into slot [i] of the result regardless of which domain computed it or
    in what order, so the result is identical for every domain count —
    {e provided [f] is a pure function of its argument}.  Code with
    randomness must therefore {e pre-split} one [Stob_util.Rng.t] per task
    from the master generator, in task order, before handing the tasks to
    the pool, and each task must draw only from its own generator.  Never
    share a generator across tasks: draw order would then depend on
    scheduling.  Because {!Stob_util.Rng.split} consumes the parent stream
    only, pre-splitting is bit-identical to the old sequential
    split-then-run interleaving — existing seeds keep their exact outputs.

    Exceptions raised by tasks are caught per-task; once the batch has
    drained, the error of the {e lowest-index} failing task is re-raised
    (with its backtrace) in the calling domain — again independent of
    scheduling.  A pool remains usable after a failed batch. *)

type t

val create : ?domains:int -> unit -> t
(** [create ~domains ()] builds a pool with the given total concurrency
    (caller included), spawning [domains - 1] worker domains.  [domains]
    defaults to [Domain.recommended_domain_count ()]; an explicit request
    is honored even on single-core hosts (the OS time-slices), which is
    what lets the determinism tests exercise real domains anywhere.
    Raises [Invalid_argument] if [domains < 1]. *)

val sequential : t
(** A shared zero-worker pool: [map sequential] is [Array.map].  Handy as
    the default for [?pool] arguments. *)

val domains : t -> int
(** Total concurrency the pool was created with (>= 1). *)

val shutdown : t -> unit
(** Join the worker domains.  Idempotent.  Call before program exit for
    every pool you [create]; a shut-down pool degrades to sequential. *)

val with_pool : ?domains:int -> (t -> 'a) -> 'a
(** [with_pool ~domains f] runs [f] with a fresh pool and shuts it down
    afterwards, whether [f] returns or raises. *)

val map : ?on_done:(int -> 'b -> unit) -> t -> ('a -> 'b) -> 'a array -> 'b array
(** [map pool f input] is [Array.map f input], computed by up to
    [domains pool] domains.  Result order, and the choice of which error
    to re-raise, are deterministic (see the contract above).

    [on_done i r] is a completion hook: it fires exactly once per
    successful task, in {e strictly increasing index order}, serialized
    under an internal lock — whatever the domain count, the callback
    sequence is identical to the sequential one.  This is what lets a
    caller journal results durably {e as they complete} while keeping the
    journal bytes jobs-invariant.  The hook may run on any domain; it must
    not call back into the same pool.  If task [i] fails, callbacks stop
    at [i] (indices beyond it are never reported) and the error is
    re-raised after the batch drains, as usual; if the callback itself
    raises, later callbacks are suppressed and its error is re-raised
    after the batch (task errors take precedence). *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map] for lists. *)
