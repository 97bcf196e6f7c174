(** The shared policy table between applications and the stack.

    Section 4.1: policies "could be maintained in the shared memory between
    the application and stack" and "shared between flows in some cases
    (e.g., same destination)".  This table is that shared object: the
    application (or an administrator) installs policies keyed by
    destination, or globally; the stack resolves the most specific match
    when a flow starts and instantiates a per-flow {!Controller}. *)

type t

val create : unit -> t

val set_global : t -> Policy.t -> unit
val set_for_destination : t -> string -> Policy.t -> unit

val attach : t -> ?destination:string -> ?seed:int -> int -> Controller.t
(** Resolve the flow's policy and instantiate a controller for it.
    Resolution order: destination, then global, then {!Policy.unmodified}.
    [seed] defaults to the flow id so different flows draw different random
    streams. *)

val installed : t -> (string * Policy.t) list
(** Human-readable dump of every installed entry (for the `stobctl` CLI). *)
