module Rng = Stob_util.Rng
module Dataset = Stob_web.Dataset
module Browser = Stob_web.Browser
module Sites = Stob_web.Sites

type result = {
  base_accuracy : float;
  defended_accuracy : float;
  base_load_time : float;
  defended_load_time : float;
  rwnd : int;
}

let mean_load_time ?client_config ~seed () =
  let master = Rng.create seed in
  let times =
    List.concat_map
      (fun profile ->
        List.init 6 (fun _ ->
            let rng = Rng.split master in
            (Browser.load ?client_config ~rng profile).Browser.load_time))
      Sites.all
  in
  Stob_util.Stats.mean (Array.of_list times)

let run ?(samples_per_site = 30) ?(trees = 100) ?(quiet = false) () =
  let rwnd = 8 * 1024 and seed = 42 in
  let say fmt = Printf.ksprintf (fun s -> if not quiet then Printf.eprintf "%s\n%!" s) fmt in
  let httpos_config = { Stob_tcp.Config.default with Stob_tcp.Config.rcv_wnd = rwnd } in
  say "httpos: generating undefended corpus...";
  let base = Dataset.sanitize (Dataset.generate ~samples_per_site ~seed ()) in
  say "httpos: generating small-window corpus...";
  let defended =
    Dataset.sanitize (Dataset.generate ~samples_per_site ~seed ~client_config:httpos_config ())
  in
  say "httpos: evaluating k-FP...";
  let base_accuracy = fst (Evalcommon.accuracy_cv ~trees ~seed base) in
  let defended_accuracy = fst (Evalcommon.accuracy_cv ~trees ~seed defended) in
  say "httpos: measuring page-load times...";
  {
    base_accuracy;
    defended_accuracy;
    base_load_time = mean_load_time ~seed:(seed + 1) ();
    defended_load_time = mean_load_time ~client_config:httpos_config ~seed:(seed + 1) ();
    rwnd;
  }

let print r =
  Printf.printf "HTTPOS-style client-side defense (advertised window = %d B)\n" r.rwnd;
  Printf.printf "  %-26s %-10s %-14s\n" "" "k-FP acc" "mean load time";
  Printf.printf "  %-26s %-10.3f %-14.3f\n" "undefended" r.base_accuracy r.base_load_time;
  Printf.printf "  %-26s %-10.3f %-14.3f\n" "small advertised window" r.defended_accuracy
    r.defended_load_time;
  Printf.printf "  (load-time inflation: %.1fx — the Section 2.3 criticism, measured)\n"
    (r.defended_load_time /. Float.max 1e-9 r.base_load_time)
