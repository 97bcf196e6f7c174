(** One receive stream's reassembly: chunks arrive in any order, possibly
    duplicated or overlapping, and leave as counts of in-order bytes.

    Bytes above the in-order prefix wait as disjoint intervals kept
    highest first, so a chunk above every gap, the common case, joins at
    the head.  Only a chunk that reaches the end of the prefix walks the
    list, to absorb the intervals it connects. *)

type t

val create : unit -> t

val add : t -> offset:int -> length:int -> fin:bool -> int
(** Record [length] bytes at [offset], with the stream's FIN after them
    when [fin] (the latest FIN's offset is the one that counts).  Returns
    how far the chunk extends the in-order prefix: 0 unless it reaches
    the prefix's end. *)

val take_fin : t -> bool
(** [true] the first time it is asked once the prefix has reached the
    FIN's offset, [false] before and after. *)
