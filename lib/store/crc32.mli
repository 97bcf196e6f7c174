(** CRC-32 (IEEE 802.3, reflected polynomial [0xEDB88320]) — the checksum
    that frames every journal record, so a torn or bit-flipped tail is
    detected on recovery instead of being replayed as a result.

    Slicing-by-8 on native ints, with its tables built at module
    initialisation: no allocation per byte, and eight table lookups per
    8-byte block.  Equal bit for bit to the bytewise [Int32] original,
    which the tests keep as an oracle. *)

val string : string -> int32
(** Checksum of the whole string (initial value 0, final complement —
    the same convention as zlib's [crc32]). *)

val slice : bytes -> pos:int -> len:int -> int32
(** [slice b ~pos ~len] is the checksum of the [len] bytes of [b] starting
    at [pos] — what {!string} gives for [Bytes.sub_string b pos len],
    without the copy.  Raises [Invalid_argument] if the range is not
    inside [b]. *)
