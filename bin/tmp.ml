(* Temporary directories for the commands that need scratch space. *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun entry -> rm_rf (Filename.concat path entry)) (Sys.readdir path);
      Unix.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* [f dir] on a fresh temporary directory, removed however [f] ends. *)
let with_dir prefix f =
  let dir = Filename.temp_dir prefix "" in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)
