(** Experiment E2: reproduce Figure 3 — single-connection throughput under
    packet-size and TSO-size adjustment.

    A bulk transfer runs over a simulated 100 Gb/s link (50 us RTT) with the
    calibrated single-core CPU cost model; Stob's incremental-reduction
    strategy shrinks packet size (by alpha per segment, cycling) and/or TSO
    size (by alpha/4 packets per segment, cycling).  Steady-state goodput is
    measured after a warm-up, for each maximum-reduction degree alpha on
    the horizontal axis. *)

type point = {
  alpha : int;
  baseline_gbps : float;  (** Unmodified stack (alpha-independent control). *)
  packet_gbps : float;  (** Packet-size adjustment only. *)
  tso_gbps : float;  (** TSO-size adjustment only. *)
  combined_gbps : float;  (** Both adjustments. *)
}

type config = {
  alphas : int list;
  link_gbps : float;
  rtt : float;
  warmup : float;
  measure : float;
  cc : Stob_tcp.Cc.factory;
  cc_name : string;
      (** Canonical name of [cc] ({!Stob_tcp.Connection.cc_of_name}); keyed
          into the checkpoint digests, since the factory itself cannot be. *)
}

val default_config : config
(** alphas 0..40 step 4, 100 Gb/s, 50 us RTT, 50 ms warm-up, 150 ms
    measurement, CUBIC. *)

val run :
  ?config:config ->
  ?pool:Stob_par.Pool.t ->
  ?retries:int ->
  ?inject:(label:string -> attempt:int -> unit) ->
  ?store:Stob_store.Store.t ->
  ?on_report:(Stob_store.Supervisor.report -> unit) ->
  unit ->
  point list
(** [?pool] parallelizes the sweep, one supervised cell per simulation:
    ["fig3/baseline"], then ["fig3/alpha=A/packet"], ["fig3/alpha=A/tso"]
    and ["fig3/alpha=A/combined"] for each distinct nonzero alpha [A] — one
    cell plus three per such alpha, each cell's result one Gb/s float.
    Points are identical for any domain count.  With a [?store], finished
    cells are journaled and a rerun resumes from the cache; a poisoned
    cell renders its one series as [nan] (["poisoned"] in {!print}) and
    leaves the alpha's other series intact.  See {!Stob_store.Supervisor}
    for [?retries]/[?inject]/[?on_report].  Test seam: [?inject], for
    [store.supervisor]'s poisoned Fig 3 point. *)

val print : point list -> unit
(** Render the two (plus combined) series as aligned columns — the data
    behind the figure. *)
