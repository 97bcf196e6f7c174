(** Bump allocator for in-flight packet metadata.

    A growable, chunked store of (timestamp, direction, wire size) cells in
    bigarray lanes — no per-event boxing.  Trace builders [add] events as
    they occur and hand the arena to {!Trace.of_arena}.

    The packed word is [size lsl 1 lor dir_bit] in an int32; sizes must lie
    in [[0, 2^30)] (any real wire size does). *)

type t

val create : ?chunk_events:int -> unit -> t
(** [chunk_events] defaults to 4096 events (48 KiB) per chunk.  Raises
    [Invalid_argument] when [chunk_events < 1].  Test seam:
    [chunk_events], small chunks for [net.packed] "arena build/reset". *)

val length : t -> int
(** Events added since the last [reset]. *)

val add : t -> time:float -> dir:Packet.direction -> size:int -> unit
(** Append one event.  Raises [Invalid_argument] when [size] is outside
    [[0, 2^30 - 1]].  Allocates no heap words per event (a chunk rollover
    allocates a constant few). *)

val reset : t -> unit
(** Forget the contents, keeping the allocated chunks for reuse.  Test
    seam: the allocation gate measures {!add} on warm chunks. *)

(** {1 Consumption (used by {!Trace})} *)

val blit :
  t ->
  times:(float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t ->
  meta:(int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t ->
  unit
(** Copy the events, in insertion order, into the destination lanes (whose
    length must equal [length t]). *)

(** {1 Packed word (shared with {!Trace})} *)

val word : dir:Packet.direction -> size:int -> int
(** [size lsl 1 lor dir_bit], [dir_bit] 1 for {!Packet.Outgoing}.  Raises
    [Invalid_argument] when [size] is outside [[0, 2^30 - 1]]. *)
