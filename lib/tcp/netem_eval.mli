(** Impairment stress harness: one full request/response/close connection
    per cell of a loss x reorder x CCA matrix.

    Shared by the test battery ([test/test_tcp.ml]) and [stobctl netem],
    so both agree on what a "cell" runs and what convergence means.

    Determinism: a cell is a pure function of its parameters and [seed].
    {!run_matrix} pre-splits the cell seeds from the master seed (the
    pre-split-RNG rule), so results are identical for any [?pool] —
    [--jobs 1] and [--jobs N] must agree bit for bit. *)

type cell = { cca : string; loss : float; reorder : bool }
(** [cca] is ["reno"], ["cubic"] or ["bbr"]; [loss] an i.i.d. per-packet
    loss probability applied independently in both directions. *)

type result = {
  cell : cell;
  client_received : int;  (** Response payload bytes the client app saw. *)
  server_received : int;  (** Request payload bytes the server app saw. *)
  client_closed : bool;
  server_closed : bool;
  server_rtx : int;  (** Retransmissions by the response sender. *)
  client_rtx : int;
  fast_recoveries : int;  (** Server-side fast-retransmit episodes. *)
  rto_events : int;  (** Server-side RTO firings. *)
  netem_lost : int;  (** Packets killed by the impairment stages. *)
  netem_reordered : int;
  netem_duplicated : int;
  queue_drops : int;  (** Congestive queue-overflow drops. *)
  captured_rtx : int;  (** Retransmitted packets visible in the capture. *)
  finish_time : float;
      (** Virtual time of the last application-visible event (payload
          delivery or FIN). *)
  pending_events : int;  (** Engine events left at the horizon; 0 = drained. *)
}

val cc_of_name : string -> Cc.factory
(** Raises [Invalid_argument] on unknown names. *)

val default_cells : unit -> cell list
(** The acceptance matrix: \{reno, cubic, bbr\} x loss \{0, 0.5%, 2%\} x
    reorder \{off, on\}. *)

val run_cell :
  ?rate_bps:float ->
  ?delay:float ->
  ?response:int ->
  ?duplicate:float ->
  ?jitter:float ->
  ?client_config:Config.t ->
  ?server_config:Config.t ->
  seed:int ->
  cell ->
  result
(** One cell (test seam: the matrix runs its cells through this, and the
    overrides let a test pin one scenario): the client requests 2 KB, the
    server answers with [response] bytes and closes; the client closes on
    the server's FIN.  Both directions run an impairment stage seeded
    (distinctly) from [seed].  Defaults: 20 Mb/s, 15 ms one-way delay,
    150 KB response; always 256 KiB queues, reordering that holds 5% of
    packets for 3 later packets when [cell.reorder], and a 120 s horizon.
    Test seam: [client_config]/[server_config] override the endpoint
    configurations for [tcp.negotiation]'s asymmetric cells (peer refuses
    SACK or wscale, tiny receive buffers). *)

val run_matrix :
  ?pool:Stob_par.Pool.t ->
  ?rate_bps:float ->
  ?delay:float ->
  ?response:int ->
  ?duplicate:float ->
  ?jitter:float ->
  seed:int ->
  cell list ->
  result list
(** Run every cell (in parallel over [pool] when given) with per-cell
    seeds pre-split from [seed].  A cell of {!default_cells} always gets
    the seed of its index in that grid, so a subset of the grid
    reproduces its rows of the full matrix; other cells draw after the
    grid, in list order.  Result order follows the input order and is
    independent of the pool. *)

val converged : result -> bool
(** All bytes delivered exactly once in both directions, both endpoints
    closed, the event queue drained, and retransmissions within a
    generous bound scaled by the impairment loss count (a
    spurious-retransmission storm fails it). *)

val print_matrix : result list -> unit
