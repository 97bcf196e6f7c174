(** ALPaCA (Cherubin, Hayes, Juarez — PETS 2017), trace-level, simplified.

    The application-layer defense for onion services: the {e server} pads
    each web object so its size hits a less distinctive value (deterministic
    variant: the next multiple of a quantum lambda).  On the wire an object
    is an incoming burst, so the trace-level emulation detects bursts
    (incoming runs separated by client-visible gaps) and pads each burst's
    byte total up to the next multiple of lambda with MTU dummies appended
    at the burst tail. *)

type params = {
  lambda : int;  (** Object-size quantum, bytes. *)
  burst_gap : float;  (** Silence that separates two objects, seconds. *)
  dummy_size : int;
}

val apply : ?params:params -> Stob_net.Trace.t -> Stob_net.Trace.t
(** [params] defaults to lambda = 8 KiB, 25 ms burst separation, MTU dummies. *)
