(** TLS record framing and record padding.

    The paper leaves padding policy to the application (Section 4.2),
    observing that it can be implemented in TLS record padding.  This module
    models TLS 1.3 record framing — plaintext fragmented into records of at
    most 16 KiB, each expanded by the record header and AEAD overhead — plus
    the RFC 8446 record-padding mechanism that padding-based defenses use.

    Only sizes matter here (the simulator carries no real bytes): framing a
    write yields the ciphertext byte count handed to TCP. *)

type config = {
  max_plaintext : int;  (** Maximum plaintext fragment per record (16384). *)
  overhead : int;
      (** Bytes added per record: 5-byte header + content-type byte +
          16-byte AEAD tag = 22 for TLS 1.3. *)
}

val default : config

type padding =
  | No_padding
  | Pad_to_multiple of int
      (** Pad each record's plaintext up to the next multiple of n bytes. *)
  | Pad_to_fixed of int
      (** Pad every record's plaintext to exactly n (records larger than n
          are left unpadded). *)
  | Pad_random of Stob_util.Rng.t * int
      (** Add uniform random [0, n] bytes of padding to each record. *)

val wire_bytes : config -> padding:padding -> int -> int
(** Total ciphertext bytes for an [n]-byte write: the write is split into
    plaintext fragments of at most [max_plaintext] bytes, and each record
    adds its padding and [overhead].  [n] must be positive. *)

(** {1 Handshake}

    Typical TLS 1.3 handshake message sizes, used by the web workload so
    captured page-load traces begin with the handshake exchange an
    eavesdropper actually sees. *)

val client_hello_bytes : Stob_util.Rng.t -> int
(** ~300-600 B depending on extensions (ECH, key shares). *)

val client_finished_bytes : Stob_util.Rng.t -> int
(** ~60-80 B. *)
