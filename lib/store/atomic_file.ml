(* The per-process counter keeps concurrent writers (worker domains
   journaling side artifacts) from colliding on the temporary name; the
   pid keeps concurrent processes apart. *)
let counter = Atomic.make 0

let write ?(vfs = Vfs.unix) path contents =
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ()) (Atomic.fetch_and_add counter 1)
  in
  let fd = vfs.Vfs.open_trunc tmp in
  (match Vfs.write_all vfs fd (Bytes.of_string contents) with
  | () ->
      vfs.Vfs.flush fd;
      vfs.Vfs.close fd
  | exception e ->
      (* Narrow catches only: a fault plane's simulated process death
         must not be swallowed by cleanup — the orphan tmp it strands is
         exactly what Store.open_'s sweep exists to collect. *)
      (try vfs.Vfs.close fd with Unix.Unix_error _ | Sys_error _ -> ());
      (try vfs.Vfs.remove tmp with Unix.Unix_error _ | Sys_error _ -> ());
      raise e);
  vfs.Vfs.rename tmp path
