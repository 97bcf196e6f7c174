(** A full client-server TCP connection wired over a {!Path}.

    Convenience assembly: creates both endpoints with their congestion
    controllers, registers them on the path's demux and TSQ notifications,
    and runs the three-way handshake.  The web workload and the experiment
    harnesses build on this, and the TCP harnesses take their workloads
    and CCA from its last section. *)

type t

val create :
  engine:Stob_sim.Engine.t ->
  path:Path.t ->
  flow:int ->
  ?client_config:Config.t ->
  ?server_config:Config.t ->
  ?cc:Cc.factory ->
  ?server_cpu:Stob_sim.Cpu.t * Cpu_costs.t ->
  ?server_hooks:Hooks.t ->
  unit ->
  t
(** Both endpoints default to {!Config.default} and CUBIC.  [server_cpu]
    and [server_hooks] apply to the server endpoint — the sender a
    server-side Stob deployment controls. *)

val client : t -> Endpoint.t
val server : t -> Endpoint.t
val flow : t -> int

val open_ : t -> unit
(** Start the client's active open (SYN). *)

val on_established : t -> (unit -> unit) -> unit
(** Fires when the client side completes the handshake. *)

(** {1 Workloads} *)

val ccas : (string * Cc.factory) list
(** Reno, CUBIC and BBR by name, in the order that fixes the soak's CCA
    draw, the CCA-id labels and the netem grid's seeds. *)

val cc_of_name : string -> Cc.factory
(** Raises [Invalid_argument] on a name not in {!ccas}. *)

val bulk :
  engine:Stob_sim.Engine.t -> period:float -> low_water:int -> chunk:int -> t -> unit
(** An iperf-style bulk download: once established, the client sends 64
    bytes; every [period] s from now on, the server writes [chunk] bytes
    while fewer than [low_water] are unsent.  Schedules the first refill
    at delay 0, then opens the connection. *)

val throughput :
  engine:Stob_sim.Engine.t -> path:Path.t -> warmup:float -> measure:float -> float
(** Mark {!Path.server_link_bytes} at [warmup], run a fresh engine until
    [warmup +. measure], and return the bits/s sent since the mark. *)

type exchange = private {
  mutable client_received : int;
  mutable server_received : int;
  mutable last_activity : float;  (** The last delivery or FIN; 0 before any. *)
}

val request_response :
  engine:Stob_sim.Engine.t ->
  client:Endpoint.t ->
  server:Endpoint.t ->
  request:int ->
  response:int ->
  exchange
(** Once established, the client writes [request] bytes; once they have
    arrived, the server answers with [response] bytes and closes; the
    client closes on the server's FIN.  Sets the pair's callbacks,
    schedules nothing, and returns live counters; the caller opens the
    connection. *)
