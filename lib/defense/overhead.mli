(** Defense cost metrics.

    Section 2.3 argues that padding is the costliest primitive (it burns
    bandwidth non-work-conservingly — FRONT ~80 %, QCSD ~309 % overhead),
    timing manipulation wastes nothing (it is work-conserving), and size
    modification costs only extra headers.  These metrics make that
    comparison measurable for any trace transformation. *)

type summary = {
  bandwidth : float;
      (** Extra wire bytes relative to the original: (defended - original) /
          original.  0.8 means "+80 %". *)
  latency : float;  (** Extra trace duration relative to the original. *)
  packets : float;  (** Extra packets relative to the original. *)
}

val summarize : original:Stob_net.Trace.t -> defended:Stob_net.Trace.t -> summary

val mean_summary : summary list -> summary
(** Component-wise mean over a corpus. *)
