(** Crash-safe whole-file writes: the contents land under a temporary name
    in the target's directory and are [rename]d into place, so readers (and
    a crash at any instant) see either the old file or the complete new one
    — never a torn prefix.

    All I/O goes through a {!Vfs.t} shim (default {!Vfs.unix}); a crash
    injected between the tmp write and the rename strands a [*.tmp] file,
    which [Store.open_] sweeps up on the next run. *)

val write : ?vfs:Vfs.t -> string -> string -> unit
(** [write path contents] atomically replaces [path] with [contents].
    On any error the temporary file is removed and [path] is untouched.
    Test seam: [vfs], a failing write for [store.atomic]. *)
