(** Write-ahead journal: an append-only file of length+CRC framed records.

    Layout: a fixed magic header, then zero or more records of
    [u32 length (big-endian) | u32 CRC-32 of payload | payload bytes].
    Appends are flushed to the OS before returning, so a record survives
    the writing {e process} being SIGKILLed the instant [append] returns
    (surviving power loss would additionally need fsync, which the
    evaluation sweeps deliberately skip — the failure model is crashed
    runs, not crashed hosts).

    Recovery ({!open_}) replays the longest valid prefix: the first frame
    whose header is short, whose length runs past end-of-file, or whose
    CRC disagrees marks a {e torn tail} — everything from there on is
    truncated away, and appending resumes at the cut.  A file that exists
    but does not start with the magic is refused ({!Corrupt}) rather than
    clobbered.

    One frame walker sits behind {!open_}, {!read}, {!verify} and
    {!iter}: it reads each frame into a buffer owned by the call, checks
    the CRC on that slice ({!Crc32.slice}) and hands the valid frames on.

    All writes go through a {!Vfs.t} syscall shim (default {!Vfs.unix})
    with short-write loops and a bounded {!retry} envelope around each
    syscall, so the journal behaves identically under the {!Io_fault}
    chaos plane and on a real filesystem. *)

type t

exception Corrupt of string
(** The file is not a stob journal (bad magic), or a replayed record does
    not deserialize.  Torn tails are {e not} corruption — they are
    recovered silently. *)

type retry = { attempts : int; backoff_s : float }
(** Bounded retry for transient syscall errors (EINTR/EAGAIN/EIO/ENOSPC):
    up to [attempts] tries per syscall with doubling backoff starting at
    [backoff_s].  Non-transient errors, and anything that is not a
    [Unix_error] (notably {!Io_fault.Crash}), propagate immediately. *)

val default_retry : retry
(** 4 attempts, 2 ms initial backoff. *)

val no_retry : retry
(** One attempt, no backoff.  Test seam: for tests that want the raw
    error. *)

val open_ : ?vfs:Vfs.t -> ?retry:retry -> string -> t * string list
(** [open_ path] creates or recovers the journal at [path] and returns it
    together with the replayed record payloads, oldest first.  Torn tails
    are truncated from the file as a side effect. *)

val append : t -> string -> unit
(** Frame, append and flush one record.  Thread-safe.  Transient errors
    are retried per the handle's {!retry}; a persistent error raises
    [Unix_error] and may leave a torn (partial) frame at the tail, which
    the next {!open_} truncates away. *)

val append_crc : t -> string -> int32
(** [append], returning the CRC-32 of the payload that its frame carries,
    so a caller that digests its payloads hashes each one once. *)

val close : t -> unit
(** Close the descriptor.  Idempotent. *)

val frames : t -> int
(** Frames known to this handle: replayed at {!open_} plus successfully
    appended since. *)

val retried : t -> int
(** Transient syscall errors absorbed by the retry envelope since
    {!open_} (includes retries spent during [open_] itself). *)

val magic : string
(** The fixed file header.  Test seam: kill/resume tests compute frame
    offsets from it and craft torn tails byte-accurately. *)

val size_of : frames:int -> payload_bytes:int -> int
(** Size of a clean journal holding [frames] records whose payloads total
    [payload_bytes] bytes: the magic plus an 8-byte header per frame. *)

val read : string -> string list
(** Read-only replay of the valid record prefix — same recovery rule as
    {!open_} but never truncates or creates the file (what a concurrent
    observer, e.g. a progress poller, must use).  Missing file = []. *)

val iter : string -> (bytes -> int -> unit) -> unit
(** [iter path f] walks the same valid prefix as {!read}, oldest first, and
    calls [f buf len] for each record without copying it: the payload is
    the first [len] bytes of [buf].  [buf] is the walk's own reusable
    buffer, so it is valid only during that call of [f] — decode it there,
    or copy it out.  Read-only, like {!read}; an exception from [f] ends
    the walk and propagates.  Missing file = no calls. *)

type scrub = {
  exists : bool;
  scrub_frames : int;  (** Valid frames. *)
  scrub_bytes : int;  (** Total file size. *)
  valid_bytes : int;  (** Magic + valid frames. *)
  torn_bytes : int;  (** [scrub_bytes - valid_bytes]; [> 0] means a torn tail. *)
  crc_mismatch : bool;
      (** The invalid tail begins with a frame whose payload fails its
          CRC — bytes flipped in place, as opposed to a write cut short. *)
}

val verify : string -> scrub
(** CRC scrub walk: read-only, never truncates — safe on a live journal.
    Raises {!Corrupt} only for a bad magic (not a stob journal at all). *)

val rewrite : ?vfs:Vfs.t -> ?retry:retry -> string -> string list -> int
(** [rewrite path payloads] atomically replaces [path] with a fresh
    journal holding exactly [payloads]: the bytes land in a [.tmp.]
    sibling, are re-read and compared against [payloads] (a rewrite that
    cannot replay its own input must not replace the journal — raises
    {!Corrupt}), and only then renamed into place.  The compaction
    primitive under [Store.checkpoint].  Returns the number of transient
    errors retried away. *)
