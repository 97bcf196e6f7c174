(** Aliases of {!Trace} kept for the benchmark harness's staged copies;
    the next benchmark refresh deletes them. *)

type t = Trace.t

val of_trace : Trace.t -> t
val to_bytes : t -> string
val length : t -> int
