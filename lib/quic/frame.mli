(** QUIC frames (sizes-only model).

    The simulator carries no real bytes, so a frame is its metadata: which
    stream, how many bytes, at what offset.  Frames are grouped into
    datagrams by the {!Endpoint}; an eavesdropper sees only the datagram's
    wire size, exactly as with encrypted QUIC. *)

type stream_chunk = {
  stream : int;  (** Stream id; 0 is reserved for handshake CRYPTO data. *)
  offset : int;
  length : int;
  fin : bool;
}

type t =
  | Stream of stream_chunk
  | Ack of { ranges : (int * int) list }
      (** ACK ranges as inclusive [lo, hi] packet-number intervals, highest
          first — real QUIC ACK frames, needed because drops leave holes a
          cumulative ACK could not express. *)
  | Padding of int  (** PADDING bytes (Initial anti-amplification, defenses). *)
  | Ping

val wire_bytes : t -> int
(** Encoded frame size (headers + payload for stream/padding frames). *)

val is_ack_eliciting : t -> bool
(** Frames that require acknowledgement (everything but ACK). *)
