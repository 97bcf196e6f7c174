(* End-to-end benchmark of the paper's pipelines.

     run.exe --workload NAME --seed N --seconds S --trace 0|1 [--jobs J] [--out FILE]
     run.exe --smoke BENCHMARK.json

   One invocation measures one workload (see Workloads) for about S
   seconds.  It runs rounds until the time is spent, each in a fresh
   process and on inputs made from the seed, and reports medians over the
   rounds.  With --trace 0 it reports the end-to-end metrics; with
   --trace 1 it alternates untraced and staged rounds on the same inputs
   and reports the per-layer metrics (see Layers).  Every metric is
   printed as "<workload> <metric> <value> <unit>", and the last line of
   standard output is one JSON object with the keys correct, attempted,
   failed and metrics.  The exit code is 0 only when every output checked
   out.

   --smoke runs tiny sizes of every workload, traced and untraced, at one
   and two domains, and checks that the digests agree and every metric is
   finite and listed in the given BENCHMARK.json. *)

module Pool = Stob_par.Pool
module Stats = Stob_util.Stats

let end_to_end = [ ("setup_s", "s"); ("wall_s", "s"); ("cpu_s", "s"); ("peak_rss_mb", "MB") ]

let root = "bench.round"

(* Scratch space for rounds that write (population), one directory per
   round process, removed when the round ends. *)
let state_root = "benchmark/_state"
let now = Unix.gettimeofday

let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let read_file f = In_channel.with_open_bin f In_channel.input_all

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec at i = i + n <= h && (String.sub hay i n = needle || at (i + 1)) in
  at 0

(* VmHWM: the peak resident set of this process. *)
let peak_rss_mb () =
  let line =
    List.find
      (String.starts_with ~prefix:"VmHWM:")
      (String.split_on_char '\n' (read_file "/proc/self/status"))
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)

(* The commit of a git checkout in the working directory, read from .git
   without running git. *)
let git_rev () =
  let read f = String.trim (read_file (Filename.concat ".git" f)) in
  try
    let head = read "HEAD" in
    match String.index_opt head ' ' with
    | Some i when String.starts_with ~prefix:"ref:" head -> (
        let ref_ = String.sub head (i + 1) (String.length head - i - 1) in
        try read ref_
        with Sys_error _ ->
          List.find_map
            (fun l -> if String.ends_with ~suffix:(" " ^ ref_) l then Some (String.sub l 0 40) else None)
            (String.split_on_char '\n' (read "packed-refs"))
          |> Option.value ~default:"unknown")
    | _ -> head
  with Sys_error _ -> "unknown"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Unix.mkdir d 0o755
  end

type round = {
  input_seed : int;
  staged : bool;
  setup : float;  (** Seconds from starting the round's process until it was set up. *)
  wall : float;
  cpu : float;
  rss : float;  (** Peak resident set of the round's process, MB. *)
  outcome : Workloads.outcome;
}

(* What a round's process sends back. *)
type report = {
  r_wall : float;
  r_cpu : float;
  r_rss : float;
  r_outcome : Workloads.outcome;
  r_spans : Spans.span list;
  r_counters : (string * float) list;
}

type result = {
  workload : Workloads.t;
  seed : int;
  jobs : int;
  trace : bool;
  rounds : round list;
  problems : string list;
  metrics : (string * string * float) list;  (** name, unit, value *)
  spans : Spans.span list;
}

let attempted r = List.fold_left (fun n x -> n + x.outcome.ops) 0 r.rounds + List.length r.problems
let failed r = List.fold_left (fun n x -> n + x.outcome.failed) 0 r.rounds + List.length r.problems
let correct r = failed r = 0

let median l = Stats.median (Array.of_list l)

(* One round, in the process [round_child] spawns: set up, say "ready",
   run, send the report. *)
let child (workload : Workloads.t) ~jobs ~seed ~staged =
  let state_dir = Printf.sprintf "%s/%d" state_root (Unix.getpid ()) in
  mkdir_p state_dir;
  Fun.protect ~finally:(fun () ->
      Workloads.remove_tree state_dir;
      try Sys.rmdir state_root with Sys_error _ -> ())
  @@ fun () ->
  (* Force the library's lazily built tables (the CRC table, the event
     queue choice) before any pool worker can: two domains forcing one
     lazy value at once raise CamlinternalLazy.Undefined. *)
  ignore (Stob_store.Crc32.string "");
  ignore (Stob_sim.Engine.create ());
  let pool = Pool.create ~domains:jobs () in
  let inst = workload.prepare ~pool ~state_dir in
  Fun.protect ~finally:(fun () -> inst.cleanup (); Pool.shutdown pool) @@ fun () ->
  print_string "ready\n";
  flush stdout;
  let c0 = cpu_seconds () and t0 = now () in
  let outcome =
    if staged then Spans.span ~layer:"bench" root (fun () -> inst.staged ~seed) else inst.round ~seed
  in
  let r_wall = now () -. t0 and r_cpu = cpu_seconds () -. c0 in
  let r_spans, r_counters = Spans.drain () in
  Marshal.to_channel stdout { r_wall; r_cpu; r_rss = peak_rss_mb (); r_outcome = outcome; r_spans; r_counters } [];
  flush stdout

(* Run one round in a fresh process, so that set-up, peak memory and the
   heap a round starts from are its own.  Set-up is timed from spawning
   the process until it reports ready. *)
let round_child (workload : Workloads.t) ~tiny ~jobs ~seed ~staged =
  let exe = Sys.executable_name in
  let args =
    [ exe; "--workload"; workload.name; "--jobs"; string_of_int jobs; "--round"; string_of_int seed ]
    @ (if staged then [ "--staged" ] else [])
    @ if tiny then [ "--tiny" ] else []
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let t0 = now () in
  let pid = Unix.create_process exe (Array.of_list args) Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let report =
    match In_channel.input_line ic with
    | Some "ready" -> (
        let setup = now () -. t0 in
        try Some (setup, (Marshal.from_channel ic : report)) with End_of_file | Failure _ -> None)
    | _ -> None
  in
  close_in ic;
  match (report, Unix.waitpid [] pid) with
  | Some r, (_, Unix.WEXITED 0) -> r
  | _, (_, status) ->
      failwith
        (match status with
        | Unix.WEXITED c -> Printf.sprintf "round process exited with %d" c
        | Unix.WSIGNALED n | Unix.WSTOPPED n -> Printf.sprintf "round process killed by signal %d" n)

(* Rounds [step 0], [step 1], ... until [seconds] have passed, at least
   one; stops rather than overrun by more than half a round.  A round
   that fails ends the loop and is reported as a problem. *)
let measure ~seconds step =
  let t0 = now () in
  let rec go r acc last =
    if r > 0 && now () -. t0 +. (0.5 *. last) > seconds then (List.rev acc, [])
    else
      let s0 = now () in
      match step r with
      | rounds -> go (r + 1) (List.rev_append rounds acc) (now () -. s0)
      | exception e -> (List.rev acc, [ Printf.sprintf "round %d: %s" r (Printexc.to_string e) ])
  in
  go 0 [] 0.0

let run ?(tiny = false) ~(workload : Workloads.t) ~seed ~seconds ~trace ~jobs () =
  let input_seed r = if workload.deterministic then 0 else (seed * 1000) + r in
  let spans = ref [] and counters = Hashtbl.create 16 and next_id = ref 0 in
  let one ~staged r =
    let input_seed = input_seed r in
    let setup, x = round_child workload ~tiny ~jobs ~seed:input_seed ~staged in
    (* Span ids are per process; shift this round's past the last ones. *)
    let base = !next_id in
    let shift id = if id < 0 then id else id + base in
    List.iter
      (fun (s : Spans.span) ->
        spans := { s with id = shift s.id; parent = shift s.parent } :: !spans;
        next_id := max !next_id (shift s.id + 1))
      x.r_spans;
    List.iter (fun (k, v) -> Spans.add counters k v) x.r_counters;
    let o = x.r_outcome in
    Printf.eprintf "%s round %d%s seed %d: %.4f s set-up, %.3f s wall, %.3f s cpu, %.1f MB peak, digest %s%s\n%!"
      workload.name r (if staged then " staged" else "") input_seed setup x.r_wall x.r_cpu x.r_rss o.digest
      (String.concat "" (List.map (fun p -> "\n  failed: " ^ p) o.problems));
    { input_seed; staged; setup; wall = x.r_wall; cpu = x.r_cpu; rss = x.r_rss; outcome = o }
  in
  (* Traced runs alternate which of the pair goes first, so neither is
     favoured in the overhead estimate. *)
  let step r =
    if not trace then [ one ~staged:false r ]
    else
      let first = one ~staged:(r mod 2 = 1) r in
      let second = one ~staged:(r mod 2 = 0) r in
      [ first; second ]
  in
  let rounds, problems = measure ~seconds step in
  let spans = List.rev !spans in
  let problems =
    problems
    @ List.filter_map
        (fun x ->
          match Expected.find ~workload:workload.name ~input_seed:x.input_seed with
          | Some d when d <> x.outcome.digest && not tiny ->
              Some (Printf.sprintf "seed %d: digest %s, expected %s" x.input_seed x.outcome.digest d)
          | _ -> None)
        rounds
    @ List.filter_map
        (fun x ->
          match List.find_opt (fun y -> y.input_seed = x.input_seed && not y.staged) rounds with
          | Some y when x.staged && y.outcome.digest <> x.outcome.digest ->
              Some (Printf.sprintf "seed %d: staged digest differs from the untraced one" x.input_seed)
          | _ -> None)
        rounds
  in
  let untraced = List.filter (fun x -> not x.staged) rounds in
  let med f l = median (List.map f l) in
  let metrics =
    if not trace then
      List.map2
        (fun (name, unit) v -> (name, unit, v))
        end_to_end
        [ med (fun x -> x.setup) untraced; med (fun x -> x.wall) untraced; med (fun x -> x.cpu) untraced;
          med (fun x -> x.rss) untraced ]
    else
      let staged = List.filter (fun x -> x.staged) rounds in
      Layers.compute ~root ~spans ~counters ~rounds:(List.length staged)
        ~untraced_wall:(med (fun x -> x.wall) untraced)
        ~traced_wall:(med (fun x -> x.wall) staged)
        ~cpu_util:(med (fun x -> x.cpu /. (float_of_int jobs *. x.wall)) untraced)
  in
  let problems =
    problems
    @ List.filter_map
        (fun (name, _, v) -> if Float.is_finite v then None else Some (name ^ " is not finite"))
        metrics
  in
  { workload; seed; jobs; trace; rounds; problems; metrics; spans }

(* --- output ----------------------------------------------------------- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"
let json_object fields = "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"
let json_list l = "[" ^ String.concat ",\n  " l ^ "]"

let metrics_json r =
  json_object
    (List.map
       (fun (name, unit, v) -> (name, json_object [ ("value", json_number v); ("unit", json_string unit) ]))
       r.metrics)

let summary_json r =
  json_object
    [ ("correct", string_of_bool (correct r)); ("attempted", string_of_int (attempted r));
      ("failed", string_of_int (failed r)); ("metrics", metrics_json r) ]

(* Metrics, provenance, every round and, for a traced run, every span. *)
let write_out file r =
  let w = r.workload in
  let round x =
    json_object
      [ ("input_seed", string_of_int x.input_seed); ("staged", string_of_bool x.staged);
        ("setup_s", json_number x.setup); ("wall_s", json_number x.wall); ("cpu_s", json_number x.cpu);
        ("peak_rss_mb", json_number x.rss); ("digest", json_string x.outcome.digest);
        ("ops", string_of_int x.outcome.ops); ("failed", string_of_int x.outcome.failed) ]
  in
  let span (s : Spans.span) =
    json_object
      [ ("id", string_of_int s.id); ("parent", string_of_int s.parent); ("name", json_string s.name);
        ("layer", json_string s.layer); ("workload", json_string w.name); ("domain", string_of_int s.domain);
        ("start", json_number s.start); ("end", json_number (s.start +. s.dur));
        ("calls", string_of_int s.calls); ("items", string_of_int s.items);
        ("minor_words", json_number s.minor_words) ]
  in
  let provenance =
    json_object
      [ ("git_rev", json_string (git_rev ())); ("nproc", string_of_int (Domain.recommended_domain_count ()));
        ("jobs", string_of_int r.jobs); ("ocaml_version", json_string Sys.ocaml_version);
        ("seed", string_of_int r.seed); ("trace", string_of_bool r.trace);
        ("params", json_object (List.map (fun (k, v) -> (k, json_string v)) w.params)) ]
  in
  let text =
    json_object
      [ ("workload", json_string w.name); ("provenance", provenance); ("correct", string_of_bool (correct r));
        ("attempted", string_of_int (attempted r)); ("failed", string_of_int (failed r));
        ("problems", json_list (List.map json_string r.problems)); ("metrics", metrics_json r);
        ("rounds", json_list (List.map round r.rounds)); ("spans", json_list (List.map span r.spans)) ]
  in
  let tmp = file ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc -> output_string oc (text ^ "\n"));
  Sys.rename tmp file

(* --- smoke ------------------------------------------------------------ *)

let smoke benchmark_json =
  let text = read_file benchmark_json in
  let listed name = contains text (Printf.sprintf "\"name\": %s" (json_string name)) in
  let bad = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> bad := s :: !bad) fmt in
  List.iter
    (fun (w : Workloads.t) ->
      let go ~trace ~jobs = run ~tiny:true ~workload:w ~seed:1 ~seconds:0.0 ~trace ~jobs () in
      let untraced = go ~trace:false ~jobs:2 and traced = go ~trace:true ~jobs:2 in
      let sequential = go ~trace:false ~jobs:1 in
      let runs = [ untraced; traced; sequential ] in
      List.iter
        (fun r ->
          if not (correct r) then fail "%s: %s" w.name (String.concat "; " r.problems);
          List.iter
            (fun (name, _, v) ->
              if not (Float.is_finite v) then fail "%s: %s is not finite" w.name name;
              if not (listed name) then fail "%s: %s is not listed in %s" w.name name benchmark_json)
            r.metrics)
        runs;
      let digests = List.concat_map (fun r -> List.map (fun x -> x.outcome.digest) r.rounds) runs in
      if List.length (List.sort_uniq compare digests) <> 1 then
        fail "%s: digests differ between traced, untraced and one-domain runs" w.name)
    (Workloads.all ~smoke:true);
  match !bad with
  | [] -> print_endline "benchmark smoke: ok"
  | l ->
      List.iter prerr_endline (List.rev l);
      exit 1

(* --- command line ----------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20 and trace = ref 0 in
  let jobs = ref (min 2 (Domain.recommended_domain_count ())) and out = ref "" and smoke_json = ref "" in
  let round = ref (-1) and staged = ref false and tiny = ref false in
  let usage =
    "run.exe --workload NAME --seed N --seconds S --trace 0|1 [--jobs J] [--out FILE]\n\
     run.exe --smoke BENCHMARK.json"
  in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME table2, fig3, pageload or population");
      ("--seed", Arg.Set_int seed, "N seed the inputs are made from (default 1)");
      ("--seconds", Arg.Set_int seconds, "S how long to measure (default 20)");
      ("--trace", Arg.Set_int trace, "0|1 report end-to-end (0) or per-layer (1) metrics");
      ("--jobs", Arg.Set_int jobs, "J domains (default: min 2 nproc)");
      ("--out", Arg.Set_string out, "FILE also write metrics, provenance, rounds and spans as JSON");
      ("--smoke", Arg.Set_string smoke_json, "FILE tiny self-check against the metric names in FILE");
      ("--round", Arg.Set_int round, "SEED (internal) run one round on this input seed and report it");
      ("--staged", Arg.Set staged, " (internal) with --round: the staged, traced round");
      ("--tiny", Arg.Set tiny, " (internal) with --round: the smoke sizes") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !smoke_json <> "" then smoke !smoke_json
  else
    match List.find_opt (fun (w : Workloads.t) -> w.name = !workload) (Workloads.all ~smoke:!tiny) with
    | None ->
        prerr_endline usage;
        exit 2
    | Some _ when !trace <> 0 && !trace <> 1 || !jobs < 1 || !seconds < 0 ->
        prerr_endline usage;
        exit 2
    | Some workload when !round >= 0 -> child workload ~jobs:!jobs ~seed:!round ~staged:!staged
    | Some workload ->
        let r = run ~workload ~seed:!seed ~seconds:(float_of_int !seconds) ~trace:(!trace = 1) ~jobs:!jobs () in
        List.iter (fun p -> prerr_endline ("problem: " ^ p)) r.problems;
        List.iter
          (fun (name, unit, v) -> Printf.printf "%s %s %s %s\n" workload.name name (json_number v) unit)
          r.metrics;
        if !out <> "" then write_out !out r;
        print_endline (summary_json r);
        exit (if correct r then 0 else 1)
