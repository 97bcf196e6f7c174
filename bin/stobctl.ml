(* stobctl: command-line interface to the Stob reproduction.

   Subcommands cover the whole pipeline: dataset generation, the k-FP
   attack, every table and figure of the paper and the extensions (each
   with a reduced --quick size, and `all` for the lot), the crash-safe
   sweep tools, the pass/fail batteries (chaos, soak, store-chaos,
   population-soak, netem) and the kernel gates (`perf`).
   `stobctl <cmd> --help` documents each.

   Argument validation lives entirely in Cmdliner converters: a bad value
   is a parse error (exit code 124, documented under EXIT STATUS) rather
   than an ad-hoc mid-run exit.  Exit code 1 is reserved for failed
   evaluation gates. *)

open Cmdliner
open Stob_experiments
module Store = Stob_store.Store
module Journal = Stob_store.Journal
module Sv = Stob_store.Supervisor

(* --- exit codes -------------------------------------------------------- *)

(* One shared table so every subcommand's EXIT STATUS section documents
   the same contract. *)
let exits =
  Cmd.Exit.info 1
    ~doc:
      "on a failed evaluation gate: a gate of a battery ($(b,chaos), $(b,soak), \
       $(b,store-chaos), $(b,population-soak), $(b,netem)) or of a kernel ($(b,perf)) failed.  \
       Also: a sweep run with $(b,--strict) that recorded poisoned cells, \
       $(b,gen-dataset) refusing to overwrite an existing export, \
       $(b,resume)/$(b,status)/$(b,scrub)/$(b,compact) on a state directory that is missing, \
       empty, or not a stob sweep (foreign journal magic), and $(b,scrub) without \
       $(b,--repair) finding a damaged journal tail."
  :: Cmd.Exit.defaults

let cmd_info name ~doc = Cmd.info name ~doc ~exits

(* --- argument converters ----------------------------------------------- *)

let pos_int_conv ~docv =
  let parse s =
    match int_of_string_opt s with
    | Some v when v > 0 -> Ok v
    | Some _ | None -> Error (`Msg (Printf.sprintf "'%s' is not a positive integer" s))
  in
  Arg.conv ~docv (parse, Format.pp_print_int)

let nonneg_int_conv ~docv =
  let parse s =
    match int_of_string_opt s with
    | Some v when v >= 0 -> Ok v
    | Some _ | None -> Error (`Msg (Printf.sprintf "'%s' is not a non-negative integer" s))
  in
  Arg.conv ~docv (parse, Format.pp_print_int)

let bounded_float ~docv ~what check =
  let parse s =
    match float_of_string_opt s with
    | Some v when check v -> Ok v
    | Some _ | None -> Error (`Msg (Printf.sprintf "'%s' is not %s" s what))
  in
  Arg.conv ~docv (parse, fun fmt v -> Format.fprintf fmt "%g" v)

let prob_conv =
  bounded_float ~docv:"P" ~what:"a probability in [0, 1]" (fun v -> v >= 0.0 && v <= 1.0)

let pos_float_conv ~docv = bounded_float ~docv ~what:"a positive number" (fun v -> v > 0.0)
let nonneg_float_conv ~docv = bounded_float ~docv ~what:"a non-negative number" (fun v -> v >= 0.0)

(* --- shared options --------------------------------------------------- *)

let seed =
  let doc = "Seed for all pseudo-randomness (experiments are reproducible)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let jobs =
  let doc =
    "Worker domains for the parallel sections (dataset generation, forest training, \
     cross-validation, throughput sweeps).  Results are independent of this value; 1 means \
     sequential."
  in
  Arg.(value & opt (pos_int_conv ~docv:"N") 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)

(* Run [f] with [Some pool] of [jobs] domains (or [None] when sequential),
   always joining the workers afterwards. *)
let with_jobs jobs f =
  if jobs <= 1 then f None
  else Stob_par.Pool.with_pool ~domains:jobs (fun pool -> f (Some pool))

(* Crash-safe sweep options, shared by every supervised experiment
   (table2, fig3, openworld, pareto, dl, resume). *)

let state_dir_arg =
  let doc =
    "Durable sweep state: journal every finished cell into $(docv) so a killed run can be \
     picked up with $(b,stobctl resume) (or by re-running the same command), recomputing only \
     the missing cells.  One directory holds exactly one sweep."
  in
  Arg.(value & opt (some string) None & info [ "state-dir" ] ~docv:"DIR" ~doc)

let retries_arg =
  let doc =
    "Retry a raising sweep cell up to $(docv) more times before recording it as poisoned."
  in
  Arg.(value & opt (nonneg_int_conv ~docv:"N") 0 & info [ "retries" ] ~docv:"N" ~doc)

let strict_arg =
  let doc =
    "Exit non-zero when any sweep cell ends up poisoned (default: report the failures and \
     complete)."
  in
  Arg.(value & flag & info [ "strict" ] ~doc)

type sweep = { state_dir : string option; retries : int; strict : bool }

let no_sweep = { state_dir = None; retries = 0; strict = false }

let sweep_arg =
  Term.(
    const (fun state_dir retries strict -> { state_dir; retries; strict })
    $ state_dir_arg $ retries_arg $ strict_arg)

let with_store state_dir f =
  match state_dir with
  | None -> f None
  | Some dir ->
      let store = Store.open_ dir in
      Fun.protect
        ~finally:(fun () ->
          (* Completion over durability: a sweep that lost its journal
             mid-run (disk full) still finishes, but the operator must
             hear about it — the degraded store report goes to stderr with
             the rest of the progress chatter. *)
          (if Store.degraded store <> None then
             Format.eprintf "@[store: %a@]@." Store.pp_report (Store.report store));
          Store.close store)
        (fun () -> f (Some store))

(* The tally goes to stderr with the rest of the progress chatter: stdout
   stays pure results, so a resumed run's stdout is byte-identical to an
   uninterrupted one. *)
let finish_sweep ~strict = function
  | None -> ()
  | Some (r : Sv.report) ->
      Format.eprintf "@[sweep: %a@]@." Sv.pp_report r;
      if strict && r.Sv.poisoned <> [] then exit 1

(* [run store on_report] under the sweep options: journaled under
   --state-dir, tallied, and failed on poison under --strict. *)
let supervised sw run =
  with_store sw.state_dir (fun store ->
      let report = ref None in
      run store (fun r -> report := Some r);
      finish_sweep ~strict:sw.strict !report)

let samples =
  let doc = "Page-load samples to generate per site." in
  Arg.(value & opt (pos_int_conv ~docv:"N") 100 & info [ "samples" ] ~docv:"N" ~doc)

let folds =
  let doc = "Cross-validation folds." in
  Arg.(value & opt (pos_int_conv ~docv:"K") 5 & info [ "folds" ] ~docv:"K" ~doc)

let trees =
  let doc = "Random-forest size." in
  Arg.(value & opt (pos_int_conv ~docv:"N") 100 & info [ "trees" ] ~docv:"N" ~doc)

(* Artifact sizes.  An artifact's full size is its library default, passed
   on only when a flag sets it; its reduced size is written once, in its
   command, and selected by --quick.  An explicit size flag overrides
   either. *)

let quick =
  Arg.(
    value & flag
    & info [ "quick" ]
        ~doc:
          "Run the reduced size (CI-sized); an explicit size flag, where the command has one, \
           still takes precedence.")

(* A flag that, unset, leaves the callee's default in place. *)
let opt_flag c names ~docv ~doc = Arg.(value & opt (some c) None & info names ~docv ~doc)

let size names ~docv ~doc = opt_flag (pos_int_conv ~docv) names ~docv ~doc

let samples_size = size [ "samples" ] ~docv:"N" ~doc:"Page-load samples per site."
let trees_size = size [ "trees" ] ~docv:"N" ~doc:"Random-forest size."
let folds_size = size [ "folds" ] ~docv:"K" ~doc:"Cross-validation folds."
let sized ~quick reduced v = match v with Some _ -> v | None -> if quick then Some reduced else None

let artifact_seed =
  opt_flag Arg.int [ "seed" ] ~docv:"SEED"
    ~doc:"Seed for all pseudo-randomness; unset, the experiment's own default seed applies."

(* Resolves to (name, profile) at parse time: an unknown site is a usage
   error, not a mid-run crash. *)
let site_conv =
  let parse name =
    match Stob_web.Sites.find name with
    | profile -> Ok (name, profile)
    | exception Not_found ->
        Error
          (`Msg
             (Printf.sprintf "unknown site %s (known: %s)" name
                (String.concat ", " Stob_web.Sites.names)))
  in
  Arg.conv ~docv:"SITE" (parse, fun fmt (name, _) -> Format.pp_print_string fmt name)

let site =
  let doc = "Monitored site (one of the nine paper sites)." in
  Arg.(
    value
    & opt site_conv ("bing.com", Stob_web.Sites.find "bing.com")
    & info [ "site" ] ~docv:"SITE" ~doc)

let policy_names = List.map fst (Stob_core.Strategies.all_named ())

let transport_arg =
  let doc = "Transport: tcp (HTTP/1.1 pool) or quic (HTTP/3 single connection)." in
  Arg.(value & opt (enum [ ("tcp", `Tcp); ("quic", `Quic) ]) `Tcp & info [ "transport" ] ~doc)

(* Resolves the policy name to the policy itself at parse time. *)
let policy_conv =
  let parse name =
    match List.assoc_opt name (Stob_core.Strategies.all_named ()) with
    | Some p -> Ok p
    | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown policy %s (expected one of: %s)" name
                (String.concat ", " policy_names)))
  in
  Arg.conv ~docv:"POLICY"
    (parse, fun fmt p -> Format.pp_print_string fmt p.Stob_core.Policy.name)

let policy_arg =
  let doc =
    Printf.sprintf "Server-side Stob policy: one of %s." (String.concat ", " policy_names)
  in
  Arg.(value & opt policy_conv Stob_core.Policy.unmodified & info [ "policy" ] ~docv:"POLICY" ~doc)

(* --- gen-dataset ------------------------------------------------------ *)

let gen_dataset out samples seed policy jobs =
  (* The export appears atomically: traces and labels.csv are staged in a
     temp directory that is renamed into place only when complete, so a
     crash can never leave a half-written corpus under [out].  An existing
     non-empty target is refused up front rather than silently merged
     with a previous export. *)
  if Sys.file_exists out && ((not (Sys.is_directory out)) || Sys.readdir out <> [||]) then begin
    Printf.eprintf
      "stobctl gen-dataset: %s already exists and is not an empty directory; refusing to \
       overwrite a previous export — remove it or pick another --out\n"
      out;
    exit 1
  end;
  Printf.printf "generating %d samples/site for %d sites...\n%!" samples
    (List.length Stob_web.Sites.all);
  let dataset =
    with_jobs jobs (fun pool ->
        Stob_web.Dataset.generate ~samples_per_site:samples ~seed ~policy
          ~progress:(fun ~done_ ~total ->
            if done_ mod 50 = 0 then Printf.printf "  %d/%d visits\n%!" done_ total)
          ?pool ())
  in
  let clean = Stob_web.Dataset.sanitize dataset in
  let tmp = Printf.sprintf "%s.tmp.%d" out (Unix.getpid ()) in
  (try
     Unix.mkdir tmp 0o755;
     let labels = open_out (Filename.concat tmp "labels.csv") in
     Array.iteri
       (fun i s ->
         let path = Filename.concat tmp (Printf.sprintf "trace_%04d.csv" i) in
         Stob_net.Trace.save path s.Stob_web.Dataset.trace;
         Printf.fprintf labels "trace_%04d.csv,%d,%s\n" i s.Stob_web.Dataset.label
           s.Stob_web.Dataset.site)
       clean.Stob_web.Dataset.samples;
     close_out labels;
     Sys.rename tmp out
   with e ->
     Tmp.rm_rf tmp;
     raise e);
  Printf.printf "wrote %d sanitized traces (+labels.csv) to %s/\n"
    (Array.length clean.Stob_web.Dataset.samples)
    out

let gen_dataset_cmd =
  let out =
    Arg.(value & opt string "dataset" & info [ "out" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  Cmd.v
    (cmd_info "gen-dataset" ~doc:"Generate and sanitize a page-load trace corpus")
    Term.(const gen_dataset $ out $ samples $ seed $ policy_arg $ jobs)

(* --- attack ----------------------------------------------------------- *)

let attack samples folds trees seed policy transport jobs =
  Printf.printf "corpus: %d samples/site, policy %s, transport %s\n%!" samples
    policy.Stob_core.Policy.name
    (match transport with `Tcp -> "tcp" | `Quic -> "quic");
  with_jobs jobs (fun pool ->
      let dataset =
        Stob_web.Dataset.sanitize
          (Stob_web.Dataset.generate ~samples_per_site:samples ~seed ~policy ~transport ?pool ())
      in
      let mean, std = Evalcommon.accuracy_cv ~folds ~trees ~seed ?pool dataset in
      Printf.printf "k-FP closed-world accuracy (%d-fold CV): %.3f +/- %.3f\n" folds mean std)

let attack_cmd =
  Cmd.v
    (cmd_info "attack" ~doc:"Run the k-FP closed-world attack against a (possibly defended) corpus")
    Term.(const attack $ samples $ folds $ trees $ seed $ policy_arg $ transport_arg $ jobs)

(* --- load ------------------------------------------------------------- *)

(* Unicode sparkline of per-bucket wire bytes for one direction. *)
let sparkline trace dir ~buckets =
  let module Trace = Stob_net.Trace in
  let glyphs = [| ' '; '.'; ':'; '-'; '='; '+'; '*'; '#' |] in
  let duration = Float.max 1e-9 (Trace.duration trace) in
  let acc = Array.make buckets 0.0 in
  for i = 0 to Trace.length trace - 1 do
    if Trace.dir trace i = dir then begin
      let b = min (buckets - 1) (int_of_float (Trace.time trace i /. duration *. float_of_int buckets)) in
      acc.(b) <- acc.(b) +. float_of_int (Trace.size trace i)
    end
  done;
  let peak = Array.fold_left Float.max 1.0 acc in
  String.init buckets (fun i ->
      let level = int_of_float (acc.(i) /. peak *. 7.0) in
      glyphs.(max 0 (min 7 level)))

let load_one (site, profile) seed policy =
  let rng = Stob_util.Rng.create seed in
  let r = Stob_web.Browser.load ~policy ~rng profile in
  Printf.printf "site: %s  policy: %s\n" site policy.Stob_core.Policy.name;
  Printf.printf "completed: %b  load time: %.3f s  downloaded: %d B (plaintext)\n"
    r.Stob_web.Browser.completed r.Stob_web.Browser.load_time r.Stob_web.Browser.bytes_downloaded;
  Format.printf "trace: %a@." Stob_net.Trace.pp_summary r.Stob_web.Browser.trace;
  let trace = Stob_net.Trace.shift_to_zero r.Stob_web.Browser.trace in
  Printf.printf "  down |%s|\n" (sparkline trace Stob_net.Packet.Incoming ~buckets:60);
  Printf.printf "  up   |%s|\n" (sparkline trace Stob_net.Packet.Outgoing ~buckets:60)

let load_cmd =
  Cmd.v
    (cmd_info "load" ~doc:"Run one page load through the simulated stack and summarize its trace")
    Term.(const load_one $ site $ seed $ policy_arg)

(* --- policies --------------------------------------------------------- *)

let policies () =
  Printf.printf "built-in Stob policies:\n";
  List.iter
    (fun (name, p) -> Format.printf "  %-14s %a@." name Stob_core.Policy.pp p)
    (Stob_core.Strategies.all_named ())

let policies_cmd =
  Cmd.v (cmd_info "policies" ~doc:"List the built-in obfuscation policies")
    Term.(const policies $ const ())

(* --- artifacts ------------------------------------------------------------ *)

(* One function per artifact: [~quick] picks the reduced size written here,
   and a size the caller sets overrides it.  [all] runs them in order with
   a banner each. *)

let table1 () = Table1.print (Table1.run ())

let table1_cmd =
  Cmd.v (cmd_info "table1" ~doc:"Reproduce Table 1 (defense taxonomy + measured overheads)")
    Term.(const table1 $ const ())

let table2 ?samples ?folds ?trees ?seed ?(sweep = no_sweep) ~quick pool =
  let d = Table2.default_config in
  let v reduced x full = Option.value (sized ~quick reduced x) ~default:full in
  let config =
    {
      d with
      Table2.samples_per_site = v 20 samples d.Table2.samples_per_site;
      folds = v 3 folds d.Table2.folds;
      forest_trees = v 40 trees d.Table2.forest_trees;
      seed = Option.value seed ~default:d.Table2.seed;
    }
  in
  supervised sweep (fun store on_report ->
      Table2.print (Table2.run ~config ?pool ?store ~retries:sweep.retries ~on_report ()))

let table2_cmd =
  Cmd.v (cmd_info "table2" ~doc:"Reproduce Table 2 (k-FP accuracy under countermeasures)")
    Term.(
      const (fun quick samples folds trees seed jobs sweep ->
          with_jobs jobs (table2 ?samples ?folds ?trees ?seed ~sweep ~quick))
      $ quick $ samples_size $ folds_size $ trees_size $ artifact_seed $ jobs $ sweep_arg)

let fig3 ?(sweep = no_sweep) ~quick pool =
  let config =
    if quick then { Fig3.default_config with Fig3.alphas = [ 0; 8; 16; 24; 32; 40 ] }
    else Fig3.default_config
  in
  supervised sweep (fun store on_report ->
      Fig3.print (Fig3.run ~config ?pool ?store ~retries:sweep.retries ~on_report ()))

let fig3_cmd =
  Cmd.v (cmd_info "fig3" ~doc:"Reproduce Figure 3 (throughput under packet/TSO adjustment)")
    Term.(
      const (fun quick jobs sweep -> with_jobs jobs (fig3 ~sweep ~quick))
      $ quick $ jobs $ sweep_arg)

let arch () =
  print_string (Arch.figure1 ());
  print_newline ();
  print_string (Arch.figure2 ())

let arch_cmd =
  Cmd.v (cmd_info "arch" ~doc:"Render Figures 1 and 2 (stack model and Stob architecture)")
    Term.(const arch $ const ())

let ablation_stack ?samples ?trees ~quick () =
  Ablation.print_fidelity
    (Ablation.run_fidelity ?samples_per_site:(sized ~quick 15 samples)
       ?trees:(sized ~quick 40 trees) ())

let ablation_stack_cmd =
  Cmd.v (cmd_info "ablation-stack" ~doc:"E6: emulated vs. in-stack enforcement")
    Term.(
      const (fun quick samples trees -> ablation_stack ?samples ?trees ~quick ())
      $ quick $ samples_size $ trees_size)

let ablation_cca () = Ablation.print_cca (Ablation.run_cca ())

let ablation_cca_cmd =
  Cmd.v (cmd_info "ablation-cca" ~doc:"E7: CCA interplay and the safety audit")
    Term.(const ablation_cca $ const ())

let ablation_quic ?samples ?trees ~quick () =
  Ablation.print_transport
    (Ablation.run_transport ?samples_per_site:(sized ~quick 15 samples)
       ?trees:(sized ~quick 40 trees) ())

let ablation_quic_cmd =
  Cmd.v (cmd_info "ablation-quic" ~doc:"E8b: TCP vs QUIC fingerprintability")
    Term.(
      const (fun quick samples trees -> ablation_quic ?samples ?trees ~quick ())
      $ quick $ samples_size $ trees_size)

let openworld ?samples ?trees ?seed ?(sweep = no_sweep) ~quick pool =
  supervised sweep (fun store on_report ->
      Openworld.print
        (Openworld.run ?samples_per_site:(sized ~quick 12 samples) ?trees:(sized ~quick 40 trees)
           ?seed ?pool ?store ~retries:sweep.retries ~on_report ()))

let openworld_cmd =
  Cmd.v
    (cmd_info "openworld" ~doc:"Open-world k-FP evaluation against unseen background sites")
    Term.(
      const (fun quick samples trees seed jobs sweep ->
          with_jobs jobs (openworld ?samples ?trees ?seed ~sweep ~quick))
      $ quick $ samples_size $ trees_size $ artifact_seed $ jobs $ sweep_arg)

let pareto ?samples ?trees ?folds ?seed ?(sweep = no_sweep) ~quick pool =
  supervised sweep (fun store on_report ->
      Pareto.print
        (Pareto.run ?samples_per_site:(sized ~quick 12 samples) ?trees:(sized ~quick 40 trees)
           ?folds ?seed ?pool ?store ~retries:sweep.retries ~on_report ()))

let pareto_cmd =
  Cmd.v
    (cmd_info "pareto"
       ~doc:"Sweep Stob policies and report the protection-vs-overhead Pareto frontier")
    Term.(
      const (fun quick samples trees folds seed jobs sweep ->
          with_jobs jobs (pareto ?samples ?trees ?folds ?seed ~sweep ~quick))
      $ quick $ samples_size $ trees_size $ folds_size $ artifact_seed $ jobs $ sweep_arg)

(* The population variant generates (or resumes) its packed corpus under
   --state-dir; without it the corpus is scratch, in a fresh temporary
   directory removed however the run ends. *)
let dl ?samples ?trees ?epochs ?seed ?(population = false) ?users ?(sweep = no_sweep) ~quick pool =
  let trees = sized ~quick 40 trees in
  if population then begin
    let run state_dir =
      Dl.print_population
        (Dl.run_population ?users:(sized ~quick 40 users) ?trees ?epochs:(sized ~quick 8 epochs)
           ?seed ?pool ~state_dir ())
    in
    match sweep.state_dir with Some dir -> run dir | None -> Tmp.with_dir "stob-dl-pop." run
  end
  else
    supervised sweep (fun store on_report ->
        Dl.print
          (Dl.run ?samples_per_site:(sized ~quick 15 samples) ?trees
             ?epochs:(sized ~quick 10 epochs) ?seed ?pool ?store ~retries:sweep.retries ~on_report
             ()))

let dl_cmd =
  let epochs = size [ "epochs" ] ~docv:"N" ~doc:"DF-net training epochs." in
  let population =
    Arg.(
      value & flag
      & info [ "population" ]
          ~doc:
            "Evaluate on the population-scale packed corpus instead of the standard per-site \
             corpus.  The corpus is generated crash-safely under --state-dir, or in a temporary \
             directory removed at exit.")
  in
  let users = size [ "users" ] ~docv:"N" ~doc:"Population size for --population." in
  Cmd.v
    (cmd_info "dl"
       ~doc:
         "Deep-learning (DF-lite CNN) vs feature-engineered (k-FP) attacks, undefended and \
          under the combined defense")
    Term.(
      const (fun quick samples trees epochs seed population users jobs sweep ->
          with_jobs jobs (dl ?samples ?trees ?epochs ?seed ~population ?users ~sweep ~quick))
      $ quick $ samples_size $ trees_size $ epochs $ artifact_seed $ population $ users $ jobs $ sweep_arg)

let cca_id ?flows ?trees ~quick () =
  Cca_id.print (Cca_id.run ?flows_per_cca:(sized ~quick 15 flows) ?trees:(sized ~quick 50 trees) ())

let cca_id_cmd =
  let flows = size [ "flows" ] ~docv:"N" ~doc:"Flows per CCA." in
  Cmd.v (cmd_info "cca-id" ~doc:"Passive CCA identification and Stob hiding (Section 5.2)")
    Term.(
      const (fun quick flows trees -> cca_id ?flows ?trees ~quick ()) $ quick $ flows $ trees_size)

let httpos ?samples ?trees ~quick () =
  Httpos.print
    (Httpos.run ?samples_per_site:(sized ~quick 12 samples) ?trees:(sized ~quick 40 trees) ())

let httpos_cmd =
  Cmd.v
    (cmd_info "httpos" ~doc:"HTTPOS-style client-side defense: protection vs load-time cost")
    Term.(
      const (fun quick samples trees -> httpos ?samples ?trees ~quick ())
      $ quick $ samples_size $ trees_size)

let importance ?samples ?trees ~quick () =
  Importance.print
    (Importance.run ?samples_per_site:(sized ~quick 12 samples) ?trees:(sized ~quick 40 trees) ())

let importance_cmd =
  Cmd.v (cmd_info "importance" ~doc:"Feature importance before/after defense")
    Term.(
      const (fun quick samples trees -> importance ?samples ?trees ~quick ())
      $ quick $ samples_size $ trees_size)

let early_curve ~quick () =
  Earlycurve.print
    (if quick then Earlycurve.run ~samples_per_site:15 ~trees:40 () else Earlycurve.run ())

let early_curve_cmd =
  Cmd.v
    (cmd_info "early-curve"
       ~doc:"Early-detection curve: k-FP accuracy on the first N packets (censorship setting)")
    Term.(const (fun quick -> early_curve ~quick ()) $ quick)

(* Every table and figure, in the paper's order, each under a banner. *)
let all quick jobs =
  let rule = String.make 60 '=' in
  with_jobs jobs @@ fun pool ->
  List.iter
    (fun (title, run) ->
      Printf.printf "\n%s\n%s\n%s\n" rule title rule;
      run ())
    [
      ("Figure 1 (E4): the stack model", fun () -> print_string (Arch.figure1 ()));
      ("Figure 2 (E5): the Stob architecture", fun () -> print_string (Arch.figure2 ()));
      ("Table 1 (E3/E8): defense taxonomy with measured overheads", table1);
      ("Figure 3 (E2): throughput under packet/TSO size adjustment", fun () -> fig3 ~quick pool);
      ("Ablation E7: CCA interplay and safety audit", ablation_cca);
      ("Table 2 (E1): k-FP accuracy under emulated countermeasures", fun () -> table2 ~quick pool);
      ("Ablation E6: emulated vs. in-stack enforcement", fun () -> ablation_stack ~quick ());
      ("Ablation E8b: TCP vs QUIC fingerprintability", fun () -> ablation_quic ~quick ());
      ("Extension: open-world evaluation (k-FP's native setting)", fun () -> openworld ~quick pool);
      ("Extension: CCA identification (Section 5.2)", fun () -> cca_id ~quick ());
      ( "Extension: HTTPOS-style client-side defense and its cost (Section 2.3)",
        fun () -> httpos ~quick () );
      ("Extension: feature importance under defense", fun () -> importance ~quick ());
      ("Extension: early-detection curve (censorship setting)", fun () -> early_curve ~quick ());
      ("Extension: deep-learning vs feature-engineered attacks", fun () -> dl ~quick pool);
      ( "Extension: Stob policy sweep (protection vs overhead frontier)",
        fun () -> pareto ~quick pool );
    ]

let all_cmd =
  Cmd.v
    (cmd_info "all"
       ~doc:
         "Regenerate every table and figure of the paper and the extensions, in order, each \
          under a banner")
    Term.(const all $ quick $ jobs)

(* --- resume / status --------------------------------------------------- *)

(* [resume] rebuilds the interrupted sweep's exact configuration from the
   journaled manifest and re-runs it against the same store: finished cells
   replay from the cache, missing ones are computed, and the final artifact
   is bit-identical to an uninterrupted run.  The per-experiment field
   names below mirror what each experiment writes via [set_manifest]; the
   rebuilt run re-asserts its manifest on the same directory, so any
   divergence (e.g. a corpus regenerated differently) fails loudly instead
   of mixing sweeps. *)
let resume state_dir jobs retries strict =
  let store = Store.open_ state_dir in
  Fun.protect ~finally:(fun () -> Store.close store) @@ fun () ->
  match Store.manifest store with
  | None ->
      Printf.eprintf "stobctl resume: %s records no sweep (run one with --state-dir first)\n"
        state_dir;
      exit 1
  | Some m -> (
      let field name =
        match List.assoc_opt name m.Store.fields with
        | Some v -> v
        | None ->
            Printf.eprintf
              "stobctl resume: manifest in %s lacks field %S (state dir from an older build?)\n"
              state_dir name;
            exit 1
      in
      let ints name = int_of_string (field name) in
      let floats name = float_of_string (field name) in
      let report = ref None in
      let on_report r = report := Some r in
      Printf.eprintf "resuming %s sweep from %s (%d cells)\n%!" m.Store.experiment state_dir
        m.Store.total;
      try
        with_jobs jobs (fun pool ->
            (match m.Store.experiment with
            | "table2" ->
                let config =
                  {
                    Table2.default_config with
                    samples_per_site = ints "samples_per_site";
                    folds = ints "folds";
                    forest_trees = ints "trees";
                    seed = ints "seed";
                  }
                in
                Table2.print (Table2.run ~config ?pool ~store ~retries ~on_report ())
            | "fig3" ->
                let cc_name = field "cc" in
                let config =
                  {
                    Fig3.alphas =
                      List.map int_of_string (String.split_on_char ',' (field "alphas"));
                    link_gbps = floats "link_gbps";
                    rtt = floats "rtt";
                    warmup = floats "warmup";
                    measure = floats "measure";
                    cc = Stob_tcp.Connection.cc_of_name cc_name;
                    cc_name;
                  }
                in
                Fig3.print (Fig3.run ~config ?pool ~store ~retries ~on_report ())
            | "openworld" ->
                Openworld.print
                  (Openworld.run ~samples_per_site:(ints "samples_per_site")
                     ~background_train_sites:(ints "bg_train_sites")
                     ~background_test_sites:(ints "bg_test_sites") ~k:(ints "k")
                     ~trees:(ints "trees") ~seed:(ints "seed") ?pool ~store ~retries ~on_report
                     ())
            | "pareto" ->
                Pareto.print
                  (Pareto.run ~samples_per_site:(ints "samples_per_site") ~trees:(ints "trees")
                     ~folds:(ints "folds") ~seed:(ints "seed") ?pool ~store ~retries ~on_report
                     ())
            | "dl" ->
                Dl.print
                  (Dl.run ~samples_per_site:(ints "samples_per_site") ~trees:(ints "trees")
                     ~epochs:(ints "epochs") ~seed:(ints "seed") ?pool ~store ~retries ~on_report
                     ())
            | other ->
                Printf.eprintf "stobctl resume: don't know how to resume a %S sweep\n" other;
                exit 1);
            finish_sweep ~strict !report)
      with Failure msg ->
        Printf.eprintf "stobctl resume: %s\n" msg;
        exit 1)

let resume_cmd =
  let state_dir =
    Arg.(
      required
      & opt (some string) None
      & info [ "state-dir" ] ~docv:"DIR" ~doc:"State directory of the interrupted sweep.")
  in
  Cmd.v
    (cmd_info "resume"
       ~doc:
         "Resume an interrupted sweep from its state directory, recomputing only the missing \
          cells (the merged artifact is bit-identical to an uninterrupted run)")
    Term.(const resume $ state_dir $ jobs $ retries_arg $ strict_arg)

let status state_dir =
  match Store.peek state_dir with
  | exception Journal.Corrupt msg ->
      Printf.eprintf
        "stobctl status: %s is not a stob sweep state directory (%s).\n\
         If it should be one, the journal was overwritten by something else; remove the \
         directory and re-run the sweep.\n"
        state_dir msg;
      exit 1
  | None, _ ->
      if not (Sys.file_exists state_dir) then
        Printf.eprintf
          "stobctl status: %s: no such directory (state directories are created by running a \
           sweep with --state-dir)\n"
          state_dir
      else
        Printf.eprintf "stobctl status: %s records no sweep (run one with --state-dir first)\n"
          state_dir;
      exit 1
  | Some m, entries ->
      Printf.printf "sweep: %s (%d cells expected)\n" m.Store.experiment m.Store.total;
      List.iter (fun (k, v) -> Printf.printf "  %-18s %s\n" k v) m.Store.fields;
      let done_ =
        List.length
          (List.filter (fun (_, _, s) -> match s with Store.Done _ -> true | _ -> false) entries)
      in
      let poisoned =
        List.filter_map
          (fun (_, label, s) ->
            match s with Store.Poisoned e -> Some (label, e) | Store.Done _ -> None)
          entries
      in
      Printf.printf "cells: %d done, %d poisoned, %d pending\n" done_ (List.length poisoned)
        (max 0 (m.Store.total - List.length entries));
      List.iter (fun (label, e) -> Printf.printf "  poisoned %s: %s\n" label e) poisoned;
      let s = Journal.verify (Store.journal_file state_dir) in
      Printf.printf "journal: %d frames, %d bytes%s\n" s.Journal.scrub_frames s.Journal.scrub_bytes
        (if s.Journal.torn_bytes > 0 then
           Printf.sprintf " (%d-byte torn tail — see stobctl scrub)" s.Journal.torn_bytes
         else "")

let status_cmd =
  let state_dir =
    Arg.(
      required
      & opt (some string) None
      & info [ "state-dir" ] ~docv:"DIR" ~doc:"State directory to inspect.")
  in
  Cmd.v
    (cmd_info "status"
       ~doc:
         "Report a sweep state directory: its manifest, done/pending/poisoned cell counts, and \
          journal size/frame counts.  Read-only — safe to run while the sweep is still \
          executing.")
    Term.(const status $ state_dir)

(* --- scrub / compact --------------------------------------------------- *)

let scrub state_dir repair =
  let file = Store.journal_file state_dir in
  match Journal.verify file with
  | exception Journal.Corrupt msg ->
      Printf.eprintf "stobctl scrub: %s is not a stob journal (%s)\n" file msg;
      exit 1
  | { Journal.exists = false; _ } ->
      Printf.eprintf "stobctl scrub: %s: no journal (is %s a sweep state directory?)\n" file
        state_dir;
      exit 1
  | s ->
      Printf.printf "journal: %s\n" file;
      Printf.printf "frames:  %d valid (%d of %d bytes)\n" s.Journal.scrub_frames
        s.Journal.valid_bytes s.Journal.scrub_bytes;
      if s.Journal.torn_bytes = 0 then Printf.printf "tail:    clean\n"
      else begin
        Printf.printf "tail:    %d damaged bytes (%s)\n" s.Journal.torn_bytes
          (if s.Journal.crc_mismatch then "CRC mismatch: bytes flipped in place"
           else "write cut short by a crash");
        if repair then begin
          (* Store.open_ applies the recovery rule (truncate the torn
             tail, resume at the cut) and sweeps orphan tmps; we only
             borrow it for its side effects. *)
          let store = Store.open_ state_dir in
          let orphans = Store.orphans_swept store in
          Store.close store;
          let s' = Journal.verify file in
          Printf.printf "repair:  truncated to %d valid frames (%d bytes); %d orphan tmp file%s \
                         swept\n"
            s'.Journal.scrub_frames s'.Journal.valid_bytes orphans
            (if orphans = 1 then "" else "s")
        end
        else begin
          Printf.printf "run with --repair to truncate the damaged tail and resume from the \
                         valid prefix\n";
          exit 1
        end
      end

let scrub_cmd =
  let state_dir =
    Arg.(
      required
      & opt (some string) None
      & info [ "state-dir" ] ~docv:"DIR" ~doc:"State directory whose journal to scrub.")
  in
  let repair =
    Arg.(
      value & flag
      & info [ "repair" ]
          ~doc:
            "Truncate a damaged tail back to the last valid frame and sweep orphan $(b,*.tmp) \
             files, instead of just reporting.  Identical to what the next sweep's open would \
             do; records past the cut are recomputed on resume.")
  in
  Cmd.v
    (cmd_info "scrub"
       ~doc:
         "CRC-walk a sweep journal and report its health: valid frames, total bytes, and any \
          damaged tail (torn write vs in-place corruption).  Read-only without $(b,--repair); \
          exits non-zero if damage is found and left in place.")
    Term.(const scrub $ state_dir $ repair)

let compact state_dir =
  if not (Sys.file_exists (Store.journal_file state_dir)) then begin
    Printf.eprintf "stobctl compact: %s: no journal (is it a sweep state directory?)\n" state_dir;
    exit 1
  end;
  match Store.compact state_dir with
  | exception Journal.Corrupt msg ->
      Printf.eprintf "stobctl compact: %s\n" msg;
      exit 1
  | exception Failure msg ->
      Printf.eprintf "stobctl compact: %s\n" msg;
      exit 1
  | c ->
      Printf.printf "compacted %s: %d -> %d frames, %d -> %d bytes (replay digest agrees)\n"
        state_dir c.Store.frames_before c.Store.frames_after c.Store.bytes_before
        c.Store.bytes_after

let compact_cmd =
  let state_dir =
    Arg.(
      required
      & opt (some string) None
      & info [ "state-dir" ] ~docv:"DIR" ~doc:"State directory to compact.")
  in
  Cmd.v
    (cmd_info "compact"
       ~doc:
         "Atomically rewrite a sweep journal down to the manifest plus the latest record per \
          cell (tmp + verify + rename).  The compacted journal is proven to replay to exactly \
          the pre-compaction state before it replaces the original; resume behaviour is \
          unchanged, only superseded frames are dropped.")
    Term.(const compact $ state_dir)

(* --- netem ------------------------------------------------------------ *)

(* The acceptance matrix, narrowed by --loss, --reorder and --cca; an
   off-grid --loss runs every selected CCA at that loss instead.  Cells are
   seeded by their place in the full grid, so a narrowed run prints the
   full matrix's rows. *)
let netem loss reorder dup jitter netem_seed ccas rate delay bytes jobs =
  let module NE = Stob_tcp.Netem_eval in
  let grid =
    List.filter
      (fun c ->
        List.mem c.NE.cca ccas
        && ((not reorder) || c.NE.reorder)
        && match loss with None -> true | Some l -> c.NE.loss = l)
      (NE.default_cells ())
  in
  let cells =
    match loss with
    | Some loss when grid = [] ->
        Printf.eprintf
          "stobctl netem: --loss %g is not in the acceptance matrix {0, 0.005, 0.02};\n\
           running a custom single-loss sweep instead.\n"
          loss;
        List.concat_map
          (fun cca ->
            List.map
              (fun reorder -> { NE.cca; loss; reorder })
              (if reorder then [ true ] else [ false; true ]))
          ccas
    | _ -> grid
  in
  let results =
    with_jobs jobs (fun pool ->
        NE.run_matrix ?pool ?rate_bps:rate ?delay ?response:bytes ?duplicate:dup ?jitter
          ~seed:netem_seed cells)
  in
  NE.print_matrix results;
  match List.filter (fun r -> not (NE.converged r)) results with
  | [] -> Printf.printf "\nall %d cells converged (seed %d)\n" (List.length results) netem_seed
  | bad ->
      Printf.printf "\n%d cell(s) FAILED to converge\n" (List.length bad);
      exit 1

(* "all" or one validated CCA name, resolved to the list of CCAs to run. *)
let cca_names = List.map fst Stob_tcp.Connection.ccas
let cca_choices = String.concat ", " cca_names ^ " or all"

let cca_conv =
  let parse = function
    | "all" -> Ok cca_names
    | c -> (
        match Stob_tcp.Connection.cc_of_name c with
        | (_ : Stob_tcp.Cc.factory) -> Ok [ c ]
        | exception Invalid_argument _ ->
            Error (`Msg (Printf.sprintf "unknown CCA %s (expected %s)" c cca_choices)))
  in
  let print fmt = function
    | [ c ] -> Format.pp_print_string fmt c
    | _ -> Format.pp_print_string fmt "all"
  in
  Arg.conv ~docv:"CCA" (parse, print)

let netem_cmd =
  let loss =
    opt_flag prob_conv [ "loss" ] ~docv:"P"
      ~doc:
        "Keep only the matrix cells at this i.i.d. per-packet loss (both directions); a value \
         off the grid {0, 0.005, 0.02} runs each selected CCA at it instead."
  in
  let reorder =
    Arg.(
      value & flag
      & info [ "reorder" ]
          ~doc:"Keep only the cells that hold ~5% of packets back a few slots.")
  in
  let dup = opt_flag prob_conv [ "dup" ] ~docv:"P" ~doc:"Duplication probability." in
  let jitter =
    opt_flag (nonneg_float_conv ~docv:"SEC") [ "jitter" ] ~docv:"SEC"
      ~doc:"Uniform extra delay bound."
  in
  let netem_seed =
    Arg.(value & opt int 4242
         & info [ "netem-seed" ] ~docv:"SEED" ~doc:"Master seed for the impairment draws.")
  in
  let cca =
    Arg.(value & opt cca_conv cca_names
         & info [ "cca" ] ~docv:"CCA" ~doc:("Congestion control: " ^ cca_choices ^ "."))
  in
  let rate =
    opt_flag (pos_float_conv ~docv:"BPS") [ "rate" ] ~docv:"BPS" ~doc:"Bottleneck rate, bits/s."
  in
  let delay =
    opt_flag (pos_float_conv ~docv:"SEC") [ "delay" ] ~docv:"SEC" ~doc:"One-way propagation delay."
  in
  let bytes =
    opt_flag (pos_int_conv ~docv:"N") [ "bytes" ] ~docv:"N" ~doc:"Response size to transfer."
  in
  Cmd.v
    (cmd_info "netem"
       ~doc:
         "Run the impairment matrix (loss x reorder x CCA): one request/response/close \
          connection per cell through seeded netem-style impairment, with recovery counters.  \
          Gate: every cell converges.")
    Term.(
      const netem $ loss $ reorder $ dup $ jitter $ netem_seed $ cca $ rate $ delay $ bytes $ jobs)

(* --- chaos ------------------------------------------------------------ *)

(* Store canary: journal a tiny Fig 3 sweep, recompute it fresh, and let the
   monitor compare a sample of journal payloads byte for byte — a silently
   poisoned result cache fails the battery. *)
let store_canary ~seed fail =
  let config =
    { Fig3.default_config with Fig3.alphas = [ 0; 16; 32 ]; warmup = 0.02; measure = 0.04 }
  in
  let journaled () =
    Tmp.with_dir "stob-chaos-canary." (fun dir ->
        let store = Store.open_ dir in
        ignore (Fig3.run ~config ~store ());
        Store.close store;
        List.filter_map
          (fun (_, label, status) ->
            match status with Store.Done p -> Some (label, p) | Store.Poisoned _ -> None)
          (snd (Store.peek dir)))
  in
  let entries = journaled () in
  let recomputed = journaled () in
  let monitor = Stob_check.Monitor.create (Stob_sim.Engine.create ()) in
  Stob_check.Monitor.check_store_canary monitor ~sample:2 ~seed ~entries
    ~recompute:(fun label -> List.assoc_opt label recomputed);
  match Stob_check.Monitor.violations monitor with
  | [] ->
      Printf.printf "chaos: store canary clean (%d journal records, 2 sampled)\n%!"
        (List.length entries)
  | vs -> List.iter (fun v -> fail ("store canary: " ^ Stob_check.Violation.to_string v)) vs

let chaos smoke chaos_seed shrink jobs =
  let module C = Stob_check.Chaos in
  let scenarios = if smoke then C.smoke_scenarios () else C.default_scenarios () in
  let reports = with_jobs jobs (fun pool -> C.run_sweep ?pool ~seed:chaos_seed scenarios) in
  C.print_sweep reports;
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let gate (r : C.report) = C.survived r && (r.C.scenario.C.fault <> None || C.clean r) in
  List.iter
    (fun (r : C.report) ->
      let name = Printf.sprintf "%s (cell seed %d)" (C.scenario_name r.C.scenario) r.C.seed in
      if not (C.survived r) then fail "%s: did not survive (crash/livelock/incomplete)" name;
      if r.C.scenario.C.fault = None && not (C.clean r) then
        fail "%s: no-fault cell reported %d violation(s)" name r.C.total_violations)
    reports;
  if smoke then
    Stob_par.Pool.with_pool ~domains:3 (fun p ->
        if C.run_sweep ~pool:p ~seed:chaos_seed scenarios <> reports then
          fail "jobs parity: parallel chaos sweep differs from sequential");
  store_canary ~seed:chaos_seed (fail "%s");
  match List.rev !failures with
  | [] ->
      Printf.printf "\nchaos: all gates passed (%d cells, seed %d)\n" (List.length reports)
        chaos_seed
  | fs ->
      List.iter (fun f -> Printf.printf "chaos FAILURE: %s\n" f) fs;
      if shrink then
        List.iter
          (fun (r : C.report) ->
            if not (gate r) then begin
              Printf.printf "\nshrinking %s\n" (C.scenario_name r.C.scenario);
              match C.shrink ~failed:(fun r' -> not (gate r')) ~seed:r.C.seed r.C.scenario with
              | None ->
                  Printf.printf "  not reproducible from the fault plan alone (full replay passes)\n"
              | Some (k, prefix, _) ->
                  Printf.printf "  minimal failing fault prefix: %d event(s)\n" k;
                  List.iter (fun ev -> Format.printf "    %a@." Stob_sim.Fault.pp_event ev) prefix
            end)
          reports;
      exit 1

let smoke_flag ~doc = Arg.(value & flag & info [ "smoke" ] ~doc)

let chaos_seed =
  Arg.(value & opt int 1337
       & info [ "chaos-seed" ] ~docv:"SEED"
           ~doc:"Master seed for the battery; each cell's seed is derived from it and the cell's \
                 CCA and fault kind, so reports are identical at every $(b,--jobs) level and a \
                 cell keeps its row in any scenario list.")

let chaos_cmd =
  let smoke = smoke_flag ~doc:"Run the bounded smoke sweep instead of the full battery." in
  let shrink =
    Arg.(value & flag
         & info [ "shrink" ]
             ~doc:"On failure, shrink each failing cell to the minimal prefix of its \
                   time-sorted fault plan that still fails, and print it.")
  in
  Cmd.v
    (cmd_info "chaos"
       ~doc:
         "Run the chaos battery: seeded fault injection against monitored, \
          degradation-enabled page loads.  Gates: every cell survives (completes without \
          crash or livelock), no-fault cells report zero invariant violations, the store \
          canary finds the result journal clean and, with $(b,--smoke), the sweep is identical \
          on 3 domains.")
    Term.(const chaos $ smoke $ chaos_seed $ shrink $ jobs)

(* --- population ------------------------------------------------------- *)

let population users shards background zipf sessions visits cap mode pop_seed dir jobs =
  let config =
    {
      Population.default_config with
      Population.users;
      shards;
      background_sites = background;
      zipf_exponent = zipf;
      mean_sessions = sessions;
      mean_session_visits = visits;
      max_trace_events = cap;
      mode;
      seed = pop_seed;
    }
  in
  let summary = with_jobs jobs (fun pool -> Population.generate ?pool config ~state_dir:dir) in
  Format.printf "%a" Population.pp_summary summary

let population_cmd =
  let mode_conv =
    let parse = function
      | "synthetic" -> Ok Population.Synthetic
      | "browser" -> Ok Population.Browser
      | s -> Error (`Msg (Printf.sprintf "unknown mode %s (expected synthetic or browser)" s))
    in
    let print fmt = function
      | Population.Synthetic -> Format.pp_print_string fmt "synthetic"
      | Population.Browser -> Format.pp_print_string fmt "browser"
    in
    Arg.conv ~docv:"MODE" (parse, print)
  in
  let users =
    Arg.(value & opt (nonneg_int_conv ~docv:"N") Population.default_config.Population.users
         & info [ "users" ] ~docv:"N" ~doc:"Population size.")
  in
  let shards =
    Arg.(value & opt (pos_int_conv ~docv:"N") Population.default_config.Population.shards
         & info [ "shards" ] ~docv:"N"
             ~doc:"Fixed shard count (independent of $(b,--jobs); the corpus digest depends \
                   only on the config and seed).")
  in
  let background =
    Arg.(value
         & opt (nonneg_int_conv ~docv:"N")
             Population.default_config.Population.background_sites
         & info [ "background" ] ~docv:"N"
             ~doc:"Synthetic background sites appended after the nine monitored ones.")
  in
  let zipf =
    Arg.(value
         & opt (pos_float_conv ~docv:"S") Population.default_config.Population.zipf_exponent
         & info [ "zipf" ] ~docv:"S" ~doc:"Site-popularity zipf exponent.")
  in
  let sessions =
    Arg.(value
         & opt (pos_float_conv ~docv:"M") Population.default_config.Population.mean_sessions
         & info [ "sessions" ] ~docv:"M" ~doc:"Poisson mean sessions per user per day.")
  in
  let visits =
    Arg.(value
         & opt (pos_float_conv ~docv:"M")
             Population.default_config.Population.mean_session_visits
         & info [ "visits" ] ~docv:"M" ~doc:"Mean page visits per session (>= 1).")
  in
  let cap =
    Arg.(value
         & opt (pos_int_conv ~docv:"N") Population.default_config.Population.max_trace_events
         & info [ "events-cap" ] ~docv:"N" ~doc:"Per-trace event cap (capture truncation).")
  in
  let mode =
    Arg.(value & opt mode_conv Population.Synthetic
         & info [ "mode" ] ~docv:"MODE"
             ~doc:"Trace synthesis: $(b,synthetic) (fast statistical model) or $(b,browser) \
                   (full page-load simulation).")
  in
  let dir =
    Arg.(required & opt (some string) None
         & info [ "state-dir" ] ~docv:"DIR"
             ~doc:"Corpus directory: one journal file per shard plus the resume store.  \
                   Re-running the same config resumes, skipping finished shards.")
  in
  Cmd.v
    (cmd_info "population"
       ~doc:
         "Generate a population-scale packed-trace corpus: zipf site popularity, per-user \
          diurnal sessions, one journal per shard, O(shard) resident memory")
    Term.(
      const population $ users $ shards $ background $ zipf $ sessions $ visits $ cap $ mode
      $ seed $ dir $ jobs)

(* --- soak ------------------------------------------------------------- *)

let soak smoke transport users shards fault_period horizon soak_seed state_dir retries jobs =
  let module Soak = Stob_check.Soak in
  let base = if smoke then Soak.smoke_config else Soak.default_config in
  let p = base.Soak.population in
  let config =
    {
      Soak.population =
        {
          p with
          Population.users = Option.value users ~default:p.Population.users;
          shards = Option.value shards ~default:p.Population.shards;
          seed = Option.value soak_seed ~default:p.Population.seed;
        };
      flow_horizon = Option.value horizon ~default:base.Soak.flow_horizon;
      fault_period = Option.value fault_period ~default:base.Soak.fault_period;
      transport;
    }
  in
  with_jobs jobs @@ fun pool ->
  let start = Unix.gettimeofday () in
  let summary =
    Soak.run ?pool ?state_dir ~retries
      ~on_shard:(fun r ->
        Printf.printf
          "  shard %02d%s: %6d flows (%5d quic), %6d completed, rtx %6d, probes %4d, ptos %4d, \
           violations %d\n\
           %!"
          r.Soak.shard
          (if r.Soak.faulted then Printf.sprintf " (faults %3d)" r.Soak.faults else "")
          r.Soak.flows r.Soak.quic_flows r.Soak.completed r.Soak.retransmissions
          r.Soak.persist_probes r.Soak.pto_events r.Soak.total_violations)
      config
  in
  Format.printf "%a@." Soak.pp_summary summary;
  Printf.eprintf "wall: %.1f s (--jobs %d)\n%!" (Unix.gettimeofday () -. start) jobs;
  let failed = ref false in
  let fail fmt =
    Printf.ksprintf
      (fun s ->
        Printf.printf "soak FAILURE: %s\n" s;
        failed := true)
      fmt
  in
  if (not smoke) && users = None && summary.Soak.flows < 1_000_000 then
    fail "only %d flows driven (the full soak must sustain >= 1M)" summary.Soak.flows;
  if summary.Soak.completed < summary.Soak.flows then
    fail "%d of %d flows did not complete within their horizon"
      (summary.Soak.flows - summary.Soak.completed)
      summary.Soak.flows;
  if summary.Soak.fault_free_violations > 0 then
    fail "%d invariant violations on fault-free shards: %s" summary.Soak.fault_free_violations
      (String.concat ", "
         (List.map (fun (k, n) -> Printf.sprintf "%s=%d" k n) summary.Soak.violations));
  (* The mix must actually exercise the machinery: the TCP gates apply
     whenever the population carries TCP flows, the QUIC gates likewise. *)
  let tcp_flows = summary.Soak.flows - summary.Soak.quic_flows in
  (match transport with
  | `Quic -> if tcp_flows > 0 then fail "quic soak drove %d tcp flows" tcp_flows
  | `Tcp | `Mixed -> if tcp_flows = 0 then fail "no tcp flows in the mix");
  if tcp_flows > 0 then begin
    if summary.Soak.persist_probes = 0 then fail "no persist probes fired";
    if summary.Soak.zero_window_flows = 0 then fail "no flow ever closed the window";
    if summary.Soak.slow_reader_flows = 0 then fail "no slow-reader flows in the mix";
    if summary.Soak.sack_off_flows = 0 then fail "no SACK-refusing flows in the mix";
    if summary.Soak.wscale_off_flows = 0 then fail "no wscale-refusing flows in the mix"
  end;
  (match transport with
  | `Tcp -> if summary.Soak.quic_flows > 0 then fail "tcp soak drove quic flows"
  | `Quic | `Mixed ->
      if summary.Soak.quic_flows = 0 then fail "no quic flows in the mix";
      if summary.Soak.pto_events = 0 then fail "no QUIC probe timeout ever fired";
      if summary.Soak.time_loss_detections = 0 then
        fail "time-threshold loss detection never triggered";
      if summary.Soak.idle_closed = 0 then fail "no QUIC endpoint ever idle-closed");
  if config.Soak.fault_period > 0 && summary.Soak.faults = 0 then
    fail "chaos dimension never armed";
  let allowed_growth_bytes = 64 * 1024 * 1024 * jobs in
  if summary.Soak.peak_heap_growth_words * 8 > allowed_growth_bytes then
    fail "live heap grew %d MiB (bound %d MiB): flows are accumulating instead of being reaped"
      (summary.Soak.peak_heap_growth_words * 8 / 1048576)
      (allowed_growth_bytes / 1048576);
  (* Jobs parity on the smoke; the full run's follows from the same
     pre-split-seed construction. *)
  if smoke && state_dir = None then begin
    let par = Stob_par.Pool.with_pool ~domains:4 (fun p -> Soak.run ~pool:p config) in
    if par.Soak.reports <> summary.Soak.reports then
      fail "smoke soak differs between --jobs 1 and --jobs 4"
  end;
  if !failed then exit 1;
  Printf.printf "soak: all gates passed\n"

let soak_cmd =
  let smoke =
    smoke_flag
      ~doc:"Run the CI-sized soak (a few thousand flows) instead of the full >= 1M-flow battery."
  in
  let users =
    opt_flag (nonneg_int_conv ~docv:"N") [ "users" ] ~docv:"N"
      ~doc:"Override the population size (expected flows = users x sessions x visits)."
  in
  let shards =
    opt_flag (pos_int_conv ~docv:"N") [ "shards" ] ~docv:"N"
      ~doc:"Fixed shard count (independent of $(b,--jobs); reports are jobs-invariant)."
  in
  let transport_conv =
    Arg.conv
      ( (fun s ->
          try Ok (Stob_check.Soak.transport_of_name (String.lowercase_ascii s))
          with Invalid_argument _ ->
            Error (`Msg (Printf.sprintf "unknown transport %S (tcp|quic|mixed)" s))),
        fun fmt t -> Format.pp_print_string fmt (Stob_check.Soak.transport_name t) )
  in
  let transport =
    Arg.(value & opt transport_conv `Tcp
         & info [ "transport" ] ~docv:"TRANSPORT"
             ~doc:"Flow population: $(b,tcp), $(b,quic), or $(b,mixed) (50/50 split drawn \
                   per flow).")
  in
  let fault_period =
    opt_flag (nonneg_int_conv ~docv:"N") [ "fault-period" ] ~docv:"N"
      ~doc:
        "Arm the chaos dimension (TCP pacer-clock jumps, QUIC datagram blackholes) on every \
         $(docv)th shard; 0 disables faults."
  in
  let horizon =
    opt_flag (pos_float_conv ~docv:"SECONDS") [ "flow-horizon" ] ~docv:"SECONDS"
      ~doc:"Per-flow lifetime before the reaper harvests it."
  in
  let soak_seed =
    opt_flag Arg.int [ "seed" ] ~docv:"SEED"
      ~doc:
        "Population seed; per-flow seeds are pre-split from the visit plan, so reports are \
         identical at every $(b,--jobs) level."
  in
  Cmd.v
    (cmd_info "soak"
       ~doc:
         "Run the transport endurance soak: population-scale request/response flows — TCP \
          (slow readers, zero windows, refused SACK/wscale, reduced MSS, lossy links, chaos \
          pacer faults), QUIC (idle-timeout closes, anti-amplification, PTO recovery, \
          datagram-blackhole faults), or a mixed population — with every endpoint under the \
          invariant monitor.  Gates: every flow completes, fault-free shards are \
          violation-free, the full run drives >= 1M flows, the mix exercises every mechanism \
          it carries (persist probes, zero windows, slow readers, refused SACK and wscale; PTOs, \
          time-threshold losses, idle closes; armed faults), live heap growth stays bounded, \
          and the smoke is identical on 4 domains.  With $(b,--state-dir) the soak is \
          crash-safe and resumable.")
    Term.(
      const soak $ smoke $ transport $ users $ shards $ fault_period $ horizon $ soak_seed
      $ state_dir_arg $ retries_arg $ jobs)

(* --- store-chaos ------------------------------------------------------- *)

let store_chaos smoke chaos_seed =
  let module Sc = Stob_check.Store_chaos in
  let r = Sc.run ~smoke ~seed:chaos_seed () in
  Sc.print_report r;
  if not smoke then
    Perf.write_bench "BENCH_store.json" ~jobs:1
      ([
         ("boundaries_fuzzed.sweep", "boundaries", Perf.Int r.Sc.sweep_boundaries);
         ("boundaries_fuzzed.checkpoint", "boundaries", Perf.Int r.Sc.ckpt_boundaries);
         ("crash_points_passed.sweep", "boundaries", Perf.Int r.Sc.sweep_crashes_passed);
         ("crash_points_passed.checkpoint", "boundaries", Perf.Int r.Sc.ckpt_crashes_passed);
         ("frames_scrubbed", "frames", Perf.Int r.Sc.frames_scrubbed);
         ("torn_tails_seen", "count", Perf.Int r.Sc.torn_tails_seen);
         ("orphans_reclaimed", "files", Perf.Int r.Sc.orphans_reclaimed);
         ("short_writes.runs", "runs", Perf.Int r.Sc.short_write_runs);
         ("short_writes.splits", "writes", Perf.Int r.Sc.short_writes_injected);
         ("transient.runs", "runs", Perf.Int r.Sc.transient_runs);
         ("transient.retried", "writes", Perf.Int r.Sc.transient_retried);
         ("enospc.degraded", "bool", Perf.Bool r.Sc.enospc_degraded);
         ("enospc.dropped", "records", Perf.Int r.Sc.enospc_dropped);
         ("enospc.monitor_edge", "bool", Perf.Bool r.Sc.degraded_edge_fired);
       ]
      @ (match r.Sc.compaction with
        | None -> []
        | Some c ->
            [
              ("compaction.frames_before", "frames", Perf.Int c.Store.frames_before);
              ("compaction.frames_after", "frames", Perf.Int c.Store.frames_after);
              ("compaction.bytes_before", "bytes", Perf.Int c.Store.bytes_before);
              ("compaction.bytes_after", "bytes", Perf.Int c.Store.bytes_after);
              ( "compaction.ratio",
                "ratio",
                Perf.Float
                  (float_of_int c.Store.bytes_after /. float_of_int (max 1 c.Store.bytes_before)) );
            ])
      @ [ ("failures", "count", Perf.Int (List.length r.Sc.failures)) ]);
  if
    r.Sc.failures <> []
    || r.Sc.sweep_crashes_passed < r.Sc.sweep_boundaries
    || r.Sc.ckpt_crashes_passed < r.Sc.ckpt_boundaries
  then begin
    Printf.printf "storechaos: FAILED (%d failures)\n" (List.length r.Sc.failures);
    exit 1
  end;
  Printf.printf "storechaos: all %d sweep + %d checkpoint crash points resumed bit-identically\n"
    r.Sc.sweep_boundaries r.Sc.ckpt_boundaries

let store_chaos_cmd =
  let smoke =
    smoke_flag
      ~doc:
        "Run the CI-sized battery instead of the full one (more cells and seeds, plus a \
         crash-enumerated real Fig 3 sweep, recorded in BENCH_store.json)."
  in
  Cmd.v
    (cmd_info "store-chaos"
       ~doc:
         "Crash the durable store at every syscall boundary of a small sweep and resume.  \
          Gates: results and journal bytes match an uninterrupted run at every crash point; \
          short writes, transient-EIO retries, persistent-ENOSPC degradation, compaction \
          replay-digest agreement and orphan-tmp reclamation ride along.")
    Term.(const store_chaos $ smoke $ chaos_seed)

(* --- population-soak --------------------------------------------------- *)

(* A ~100k-flow corpus generated with the invariant monitor armed and a
   heap-growth watchdog on the trace factory's O(shard) memory contract:
   resident growth must stay far below the packed corpus size, which is
   what it would reach if shards were held instead of streamed. *)
let population_soak jobs =
  let flows_target = 100_000 and cap = 60 in
  (* E[flows] = users * mean_sessions * mean_session_visits. *)
  let config =
    {
      Population.default_config with
      Population.users = flows_target / 10;
      shards = 25;
      mean_sessions = 2.5;
      mean_session_visits = 4.0;
      max_trace_events = cap;
    }
  in
  let allowed_growth_bytes = max (32 * 1024 * 1024) (flows_target * cap * 12 / 4) in
  let monitor = Stob_check.Monitor.create (Stob_sim.Engine.create ()) in
  Gc.full_major ();
  let baseline_words = (Gc.stat ()).Gc.live_words in
  let growth_words = ref 0 and worst_words = ref 0 and shards_done = ref 0 in
  Stob_check.Monitor.register monitor ~name:"population-heap-growth" (fun ~now:_ ->
      if !growth_words * 8 > allowed_growth_bytes then
        Some
          (Printf.sprintf "live heap grew %d MiB after shard %d (O(shard) bound: %d MiB)"
             (!growth_words * 8 / 1048576) !shards_done
             (allowed_growth_bytes / 1048576))
      else None);
  let on_shard (_ : Population.shard_stats) =
    incr shards_done;
    Gc.full_major ();
    growth_words := max 0 ((Gc.stat ()).Gc.live_words - baseline_words);
    worst_words := max !worst_words !growth_words;
    Stob_check.Monitor.check_now monitor ~now:(float_of_int !shards_done)
  in
  let start = Unix.gettimeofday () in
  let summary =
    with_jobs jobs (fun pool ->
        Tmp.with_dir "stob-popsoak." (fun dir ->
            Population.generate ?pool ~on_shard config ~state_dir:dir))
  in
  Printf.eprintf "wall: %.1f s\n%!" (Unix.gettimeofday () -. start);
  Printf.printf
    "soak: %d flows (%d events, %.1f MiB packed) across %d shards\n\
     peak live-heap growth: %d MiB (bound %d MiB, corpus %d MiB)\n\
     %!"
    summary.Population.flows summary.Population.events
    (float_of_int summary.Population.bytes /. 1048576.0)
    config.Population.shards
    (!worst_words * 8 / 1048576)
    (allowed_growth_bytes / 1048576)
    (summary.Population.bytes / 1048576);
  let failed = ref false in
  let fail fmt =
    Printf.ksprintf
      (fun s ->
        Printf.printf "soak FAILURE: %s\n" s;
        failed := true)
      fmt
  in
  let min_flows = flows_target * 9 / 10 in
  if summary.Population.flows < min_flows then
    fail "only %d flows generated (target %d, floor %d)" summary.Population.flows flows_target
      min_flows;
  (match Stob_check.Monitor.violations monitor with
  | [] -> Printf.printf "soak: monitor clean (%d shards checked)\n" !shards_done
  | vs -> List.iter (fun v -> fail "%s" (Stob_check.Violation.to_string v)) vs);
  if !failed then exit 1;
  Printf.printf "soak: all gates passed\n"

let population_soak_cmd =
  Cmd.v
    (cmd_info "population-soak"
       ~doc:
         "Generate a ~100k-flow population corpus under the invariant monitor.  Gates: at least \
          90% of the target flows, and live heap growth within the trace factory's O(shard) \
          streaming-memory bound.")
    Term.(const population_soak $ jobs)

(* --- perf ------------------------------------------------------------- *)

let perf_cmd =
  let smoke =
    smoke_flag
      ~doc:
        "Run the small workload, gated by a loose speedup floor, instead of the full one, which \
         gates >= 3x and writes BENCH_<name>.json."
  in
  let kernel name ~doc term = Cmd.v (cmd_info name ~doc) term in
  Cmd.group
    (cmd_info "perf"
       ~doc:
         "Kernel gates: time an optimised kernel against the oracle it replaced and gate \
          parity and the speedup")
    [
      kernel "forest"
        ~doc:
          "Presorted forest trainer vs the naive CART oracle: bit-identical trees; speedup >= \
           1.5x (smoke) or 3x"
        Term.(const (fun smoke -> Perf.forest ~smoke) $ smoke);
      kernel "dfnet"
        ~doc:
          "Batched DF-net engine vs the per-sample oracle: logits within 1e-5, identical \
           predictions, --jobs-invariant training; speedup >= 1.5x (smoke) or 3x"
        Term.(const (fun smoke jobs -> with_jobs jobs (Perf.dfnet ~smoke)) $ smoke $ jobs);
      kernel "simperf"
        ~doc:
          "Timing wheel vs the heap oracle on a hold model: identical pop sequences; speedup >= \
           1.2x (smoke) or 3x"
        Term.(const (fun smoke -> Perf.simperf ~smoke) $ smoke);
    ]

let main_cmd =
  let doc = "stack-level traffic obfuscation (Stob) reproduction toolkit" in
  Cmd.group (Cmd.info "stobctl" ~version:"1.0.0" ~doc ~exits)
    [
      gen_dataset_cmd; attack_cmd; load_cmd; policies_cmd; all_cmd; table1_cmd; table2_cmd;
      fig3_cmd; arch_cmd; ablation_stack_cmd; ablation_cca_cmd; ablation_quic_cmd; openworld_cmd;
      pareto_cmd; dl_cmd; cca_id_cmd; httpos_cmd; importance_cmd; early_curve_cmd; resume_cmd;
      status_cmd; scrub_cmd; compact_cmd; netem_cmd; chaos_cmd; soak_cmd; store_chaos_cmd;
      population_soak_cmd; population_cmd; perf_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
