(** Wire traces: what the eavesdropper records.

    A trace is the time-ordered sequence of (timestamp, direction, wire size)
    triples for one page load, exactly the metadata the paper's tcpdump
    collection extracts.  Traces are the interchange format between the
    workload generator, the defenses (which transform them, Section 3) and
    the k-FP attack (which featurizes them).

    {b Representation.}  A trace is two bigarray lanes of equal length: a
    float64 lane of timestamps and an int32 lane of words
    [size lsl 1 lor dir_bit] ([dir_bit] is 1 for {!Packet.Outgoing}), 12
    bytes per event outside the OCaml heap.  No record is stored per
    event; {!event} is only the value {!get} returns and {!of_events}
    takes.  The binary codec ({!to_bytes}) writes the two lanes as they
    are.

    {b Sizes} lie in [[0, 2^30)] (the largest is [2^30 - 1]).
    {!of_events}, {!load}, {!Arena.add} and {!Capture} raise
    [Invalid_argument] on a size outside that range (the record-array trace
    this type replaced accepted any int); {!of_lanes} and the binary codec
    take the words as given.

    {b Immutability.}  A trace is never written after it is built, so
    values share storage freely: {!prefix} is a zero-copy view,
    {!shift_to_zero} shares the word lane, and {!sort} returns an input
    that is already in order as it is, without a copy. *)

type event = { time : float; dir : Packet.direction; size : int }

type t

type times_lane = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
type meta_lane = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

val empty : t
val length : t -> int

(** {1 Per-event access} *)

val time : t -> int -> float
val dir : t -> int -> Packet.direction
val size : t -> int -> int
val get : t -> int -> event

(** {1 Builders} *)

val of_events : event array -> t
(** The events in array order (not sorted).  Raises [Invalid_argument] on
    a size outside [[0, 2^30 - 1]]. *)

val of_arena : Arena.t -> t
(** The arena's events in insertion order (not sorted). *)

val of_lanes : times:times_lane -> meta:meta_lane -> t
(** Wrap two lanes of equal length without copying; raises
    [Invalid_argument] if the lengths differ.  The trace takes the lanes
    over: the caller must not write to them afterwards.  Each meta word
    must be [size lsl 1 lor dir_bit] with a size in
    [[0, 2^30 - 1]].
    This is how a transformation that computes its output lanes directly
    (a capture, an emulated defense) builds a trace without a record per
    event. *)

(** {1 Observers} *)

val is_sorted : t -> bool
(** No timestamp is smaller than its predecessor's. *)

val sort : t -> t
(** Stable sort by timestamp (equal times keep their relative order).  An
    input whose timestamps are non-decreasing under [<=] is its own stable
    sort and is returned as it is; a NaN timestamp fails that test, and the
    sort then orders by [compare] (NaN first). *)

val prefix : t -> int -> t
(** First [n] events (all of them if the trace is shorter), a zero-copy
    view. *)

val duration : t -> float
(** Last timestamp minus first; [0.] for traces shorter than 2. *)

val bytes : ?dir:Packet.direction -> t -> int
(** Total wire bytes, optionally restricted to one direction. *)

val times : ?dir:Packet.direction -> t -> float array
val sizes : ?dir:Packet.direction -> t -> float array
(** Test seam: [dir] omitted, every event's size, for [net.packed]'s
    observer parity. *)

val interarrivals : ?dir:Packet.direction -> t -> float array
(** Gaps between consecutive selected events; empty for fewer than 2.
    Test seam: [dir], for one direction's gaps in the [defense] and
    [tcp.connection] timing checks. *)

val shift_to_zero : t -> t
(** Rebase timestamps so the first event is at time 0. *)

val concat_sorted : t list -> t
(** Merge several traces into one time-ordered trace (e.g., the per-
    connection captures of one page load). *)

(** {1 Codecs} *)

val save : string -> t -> unit
(** Write the trace as "time,dir,size" text lines (dir is [+1]/[-1]),
    atomically. *)

val load : string -> t
(** Inverse of {!save}.  Raises [Failure] on malformed input and
    [Invalid_argument] on a size outside [[0, 2^30 - 1]].  Only
    tests call it today; it stays as the reader of what [stobctl
    gen-dataset] writes. *)

val to_bytes : t -> string
(** Raw binary framing for journal payloads: the magic ["SPKT1\x00"], a
    little-endian u32 count, the float64 times, then the int32 words.
    About half the size of the CSV, and bit-exact. *)

val of_slice : bytes -> int -> t
(** [of_slice buf len] decodes the first [len] bytes of [buf], the inverse
    of {!to_bytes}: for payloads lent by [Stob_store.Journal.iter].  The
    result does not share [buf].  Raises
    [Invalid_argument] if [len] is outside [[0, Bytes.length buf]] and
    [Failure] on framing errors. *)

val pp_summary : Format.formatter -> t -> unit
(** One-line summary: counts, bytes and duration per direction. *)

(** {1 Zero-copy lane access (the featurizer path)} *)

val raw_times : t -> times_lane
val raw_meta : t -> meta_lane
(** The lanes themselves, to read only. *)
