type t = { mutable global : Policy.t option; by_destination : (string, Policy.t) Hashtbl.t }

let create () = { global = None; by_destination = Hashtbl.create 16 }

let set_global t p = t.global <- Some p
let set_for_destination t dest p = Hashtbl.replace t.by_destination dest p

let attach t ?destination ?seed flow =
  let policy =
    match Option.bind destination (Hashtbl.find_opt t.by_destination) with
    | Some p -> p
    | None -> ( match t.global with Some p -> p | None -> Policy.unmodified)
  in
  Controller.create ~seed:(Option.value ~default:flow seed) policy

let installed t =
  let entries = ref [] in
  (match t.global with Some p -> entries := [ ("*", p) ] | None -> ());
  Hashtbl.iter (fun d p -> entries := ("dst:" ^ d, p) :: !entries) t.by_destination;
  List.sort (fun (a, _) (b, _) -> compare a b) !entries
