module Rng = Stob_util.Rng
module Registry = Stob_defense.Registry
module Overhead = Stob_defense.Overhead

type row = { entry : Registry.entry; overhead : Overhead.summary option }

let default_corpus seed =
  let master = Rng.create seed in
  let profiles = [ Stob_web.Sites.find "bing.com"; Stob_web.Sites.find "wikipedia.org"; Stob_web.Sites.find "netflix.com" ] in
  List.concat_map
    (fun profile ->
      List.init 8 (fun _ ->
          let rng = Rng.split master in
          (Stob_web.Browser.load ~rng profile).Stob_web.Browser.trace))
    profiles

let run () =
  let seed = 7 in
  let corpus = default_corpus seed in
  List.map
    (fun (entry : Registry.entry) ->
      let overhead =
        Option.map
          (fun apply ->
            let rng = Rng.create (seed + 1) in
            Overhead.mean_summary
              (List.map
                 (fun original -> Overhead.summarize ~original ~defended:(apply ~rng original))
                 corpus))
          entry.Registry.apply
      in
      { entry; overhead })
    (Registry.all)

let print rows =
  Printf.printf "Table 1: WF defense summary (measured overheads where implemented)\n";
  Printf.printf "%-14s %-11s %-8s %-28s %-10s %-10s %-9s\n" "System" "Target" "Strategy"
    "Traffic manipulation" "BW ovhd" "Lat ovhd" "Pkt ovhd";
  List.iter
    (fun { entry; overhead } ->
      let manip =
        String.concat ", " (List.map Registry.manipulation_name entry.Registry.manipulations)
      in
      let bw, lat, pkt =
        match overhead with
        | None -> ("-", "-", "-")
        | Some s ->
            ( Printf.sprintf "%+.0f%%" (s.Overhead.bandwidth *. 100.0),
              Printf.sprintf "%+.0f%%" (s.Overhead.latency *. 100.0),
              Printf.sprintf "%+.0f%%" (s.Overhead.packets *. 100.0) )
      in
      Printf.printf "%-14s %-11s %-8s %-28s %-10s %-10s %-9s\n" entry.Registry.name
        (Registry.target_name entry.Registry.target)
        (Registry.strategy_name entry.Registry.strategy)
        manip bw lat pkt)
    rows
