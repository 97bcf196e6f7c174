(** Seeded fault injection for the durable-store syscall plane.

    Wraps a base {!Vfs.t} and perturbs it according to a {!plan}: short
    writes, bursts of transient errors, a persistent error from some
    boundary on (the ENOSPC story), failed renames, and a simulated
    process death at the k-th syscall boundary.  Same discipline as
    [Stob_sim.Fault]: everything is driven by the plan's integer seed, so
    a given plan over a given operation sequence injects the same faults,
    byte for byte, on every run.

    {b Boundaries.}  Every shimmed operation except the read-only
    [file_size] counts as one syscall boundary, numbered from 1 in call
    order.  A short-write plane makes the caller's write loop issue more
    [write] ops, so the boundary count of a run depends on the plan —
    the crash-point fuzzer enumerates with {!quiet} first and then
    crashes at each boundary of {e that} sequence.

    {b Crash semantics.}  At boundary [crash_at = Some k] the plane
    writes a seeded {e prefix} of the in-flight buffer (when the op is a
    write — a real process can die half-way through a frame), marks
    itself dead, and raises {!Crash}.  Every subsequent op also raises
    {!Crash} — a dead process neither writes nor cleans up, so e.g. the
    [*.tmp] removal in an exception handler fails and the orphan survives
    for [Store.open_]'s sweep to find — except [close], which becomes a
    no-op so that [Fun.protect] finalizers unwind without masking the
    crash with [Finally_raised]. *)

exception Crash of int
(** Simulated process death at the given boundary.  Deliberately {e not}
    a [Unix.Unix_error]: retry and graceful-degradation logic must never
    treat a crash as a transient I/O error. *)

type plan = {
  seed : int;  (** Drives short-write split points and crash prefixes. *)
  crash_at : int option;  (** Die at this boundary (1-based). *)
  short_writes : bool;  (** Split every multi-byte write at a seeded point. *)
  transient : (Unix.error * int * int) option;
      (** [(err, period, times)]: every [period]-th write/flush starts a
          burst that raises [err] on [times] consecutive write/flush
          calls before letting one succeed.  Heals under bounded retry
          when [retry.attempts > times]. *)
  fail_from : (Unix.error * int) option;
      (** [(err, k)]: every write/flush from boundary [k] on raises
          [err], forever — persistent ENOSPC is [(ENOSPC, k)]. *)
  rename_fails : int;  (** The first [n] renames raise [EIO]. *)
}

val quiet : plan
(** No faults, seed 0 — arms a pure boundary counter. *)

type t

val arm : ?base:Vfs.t -> plan -> t
(** Build a fault plane over [base] (default {!Vfs.unix}). *)

val vfs : t -> Vfs.t
(** The perturbed shim to hand to [Store.open_ ~vfs]. *)

val ops : t -> int
(** Syscall boundaries seen so far. *)

val crashed : t -> bool
(** The plane has simulated death (a {!Crash} was raised).  Test seam. *)

val injected : t -> int
(** Faults injected so far: short splits, raised errors, the crash. *)
