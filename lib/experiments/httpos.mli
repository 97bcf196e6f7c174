(** Extension experiment: the HTTPOS-style client-side defense and its cost
    (Section 2.3).

    HTTPOS obfuscates packet sizes from the {e client} side by advertising a
    small receive window (and small MSS), forcing the server into small
    packets.  The paper criticizes it: "small MSS values apply for the
    connection lifetime and thus damage transmission efficiency; small
    advertised window prevents the server from sending the full congestion
    window of data, sacrificing bandwidth utilization and thus throughput."

    This experiment enforces exactly that configuration in the simulated
    stack (tiny advertised window — a real stack knob, no trace editing)
    and measures both sides of the trade: how much k-FP accuracy drops and
    how much page-load time inflates. *)

type result = {
  base_accuracy : float;
  defended_accuracy : float;
  base_load_time : float;  (** Mean page-load time, seconds. *)
  defended_load_time : float;
  rwnd : int;  (** The advertised window used, bytes. *)
}

val run : ?samples_per_site:int -> ?trees:int -> ?quiet:bool -> unit -> result
(** Defaults: 30 visits/site, 100 trees; an 8 KiB advertised window and
    seed 42.  Test seam: [quiet], which silences progress for
    [experiments] "httpos reduced". *)

val print : result -> unit
