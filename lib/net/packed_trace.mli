(** Compact packed traces: bigarray-backed (time, direction, size) lanes.

    A mirrored-API sibling of {!Trace} — same operations, exactly the same
    semantics (the net.packed battery proves agreement event-for-event and
    byte-for-byte on the codecs) — at 12 bytes/event instead of a boxed
    record per event, with {!prefix}/{!sub} as zero-copy views and a raw
    binary codec for journal payloads.  Built either from an existing
    {!Trace.t} or streamed through an {!Arena}.

    Values are immutable by convention; views share storage. *)

type t

val empty : t
val length : t -> int

(** {1 Per-event access} *)

val time : t -> int -> float
val dir : t -> int -> Packet.direction
val size : t -> int -> int
val get : t -> int -> Trace.event

(** {1 Conversions} *)

val of_trace : Trace.t -> t
(** Raises [Invalid_argument] if an event's size is outside
    [[0, {!Arena.max_size}]]. *)

val to_trace : t -> Trace.t
val of_arena : Arena.t -> t

(** {1 Observers (each agrees exactly with its {!Trace} namesake)} *)

val is_sorted : t -> bool

val sort : t -> t
(** Stable sort by timestamp (preserves relative order of equal times). *)

val prefix : t -> int -> t
(** First [n] events — a zero-copy view. *)

val sub : t -> int -> int -> t
(** [sub t pos len]: zero-copy view of a slice. *)

val duration : t -> float
val count : ?dir:Packet.direction -> t -> int
val bytes : ?dir:Packet.direction -> t -> int
val times : ?dir:Packet.direction -> t -> float array
val sizes : ?dir:Packet.direction -> t -> float array
val interarrivals : ?dir:Packet.direction -> t -> float array
val signed_sizes : t -> float array
val shift_to_zero : t -> t

val concat : t list -> t
(** Concatenation in list order, no re-sorting. *)

val concat_sorted : t list -> t

(** {1 Codecs} *)

val to_csv : t -> string
(** Byte-identical to [Trace.to_csv] of the same events. *)

val of_csv : string -> t
(** Shares {!Trace.of_csv}'s parser; raises the same [Failure]s. *)

val save : string -> t -> unit
val load : string -> t

val to_bytes : t -> string
(** Raw binary framing (magic, u32 count, float64 times, int32 meta) for
    journal payloads; ~2x smaller than CSV and bit-exact. *)

val of_bytes : string -> t
(** Inverse of {!to_bytes}.  Raises [Failure] on framing errors. *)

val of_slice : bytes -> int -> t
(** [of_slice buf len] decodes the first [len] bytes of [buf], exactly as
    {!of_bytes} decodes [Bytes.sub_string buf 0 len] — for payloads lent by
    [Stob_store.Journal.iter].  The result does not share [buf].  Raises
    [Invalid_argument] if [len] is outside [[0, Bytes.length buf]] and
    [Failure] on framing errors. *)

val pp_summary : Format.formatter -> t -> unit

(** {1 Zero-copy bulk access (the k-FP featurizer path)} *)

val raw_times : t -> (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
val raw_meta : t -> (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t
