(* Quickstart: the whole pipeline in ~60 lines.

   1. Simulate page loads for three websites through the TCP/TLS stack.
   2. Sanitize the corpus the way the paper does.
   3. Train the k-FP attack and measure closed-world accuracy.
   4. Install a Stob policy server-side and measure again.

   Run with: dune exec examples/quickstart.exe *)

let sites = [ "bing.com"; "wikipedia.org"; "netflix.com" ]

let corpus ?policy () =
  let profiles = List.map Stob_web.Sites.find sites in
  Stob_web.Dataset.sanitize
    (Stob_web.Dataset.generate ~samples_per_site:25 ~seed:7 ?policy ~profiles ())

let accuracy dataset =
  (* Featurize every trace with the k-FP feature set, then 3-fold CV. *)
  let mean, std = Stob_experiments.Evalcommon.accuracy_cv ~folds:3 ~trees:60 dataset in
  (mean, std)

let () =
  print_endline "== Stob quickstart ==";
  Printf.printf "simulating %d visits (3 sites x 25 samples)...\n%!" (3 * 25);
  let undefended = corpus () in
  Printf.printf "sanitized corpus: %d traces\n%!"
    (Array.length undefended.Stob_web.Dataset.samples);

  (* A first look at one trace. *)
  let sample = undefended.Stob_web.Dataset.samples.(0) in
  Format.printf "example %s trace: %a@." sample.Stob_web.Dataset.site Stob_net.Trace.pp_summary
    sample.Stob_web.Dataset.trace;

  let base_mean, base_std = accuracy undefended in
  Printf.printf "k-FP accuracy, undefended:      %.3f +/- %.3f\n%!" base_mean base_std;

  (* Now defend: install the in-stack split+delay policy on the server side
     of every connection and regenerate. *)
  let policy = Stob_core.Strategies.stack_combined () in
  Format.printf "installing policy: %a@." Stob_core.Policy.pp policy;
  let defended = corpus ~policy () in
  let def_mean, def_std = accuracy defended in
  Printf.printf "k-FP accuracy, Stob-defended:   %.3f +/- %.3f\n" def_mean def_std;
  Printf.printf "(closed world, %d sites; chance is %.3f)\n" (List.length sites)
    (1.0 /. float_of_int (List.length sites));
  print_endline
    "\nNote: on full traces a mild defense can even help the attacker — the\n\
     paper's Table 2 'All' row observes the same counterintuitive effect;\n\
     the defense's value shows on connection prefixes (see\n\
     `stobctl early-curve`)."
