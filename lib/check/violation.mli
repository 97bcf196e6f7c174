(** Structured runtime-invariant violations.

    A violation is a value, not a log line: it carries the virtual time it
    was detected at, the flow it concerns (when one does), the name of the
    invariant that failed and a rendered snapshot of the offending state.
    The monitor ({!Monitor}) collects violations for a post-run report. *)

type t = {
  invariant : string;  (** Short stable name, e.g. ["tcp-seq-order"]. *)
  time : float;  (** Virtual time of detection. *)
  flow : int option;  (** Flow the violation concerns, when per-flow. *)
  detail : string;  (** Rendered snapshot of the offending state. *)
}

val make : invariant:string -> time:float -> ?flow:int -> string -> t

val to_string : t -> string
