(** Hash tables keyed by an int that hashes as itself.

    A lookup costs no call to the runtime's generic [caml_hash] and no
    polymorphic compare, which the stdlib's [(int, _) Hashtbl.t] pays on
    every access.  Iteration order differs from that table's, so a caller
    whose output depends on the order must not switch to it. *)

include Hashtbl.S with type key = int
