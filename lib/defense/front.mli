(** FRONT (Gong & Wang, USENIX Security 2020), trace-level.

    A zero-delay padding defense: each side independently injects a random
    number of dummy packets whose timestamps are drawn from a Rayleigh
    distribution with a random window parameter, concentrating the noise at
    the trace front where WF features are most informative.  Real packets
    are never touched, so FRONT adds bandwidth overhead but no latency —
    this is the defense the paper cites at ~80 % bandwidth overhead. *)

type params = {
  n_client_max : int;  (** Max dummies injected by the client side. *)
  n_server_max : int;  (** Max dummies injected by the server side. *)
  w_min : float;  (** Minimum Rayleigh window, seconds. *)
  w_max : float;  (** Maximum Rayleigh window, seconds. *)
  dummy_size : int;  (** Wire size of a dummy packet. *)
}

val apply : ?params:params -> rng:Stob_util.Rng.t -> Stob_net.Trace.t -> Stob_net.Trace.t
(** [params] defaults to the paper's FT-1-ish setting scaled to short
    HTTPS traces: up to 600/1400 dummies, windows 1-8 s, MTU-sized
    dummies. *)
