(* Population-scale trace factory: zipf site popularity, per-user diurnal
   sessions, packed traces streamed shard-by-shard into journals.

   Layering: [plan_shard] is pure bookkeeping (who visits what, when) so
   the statistical tests can check the population shape without touching a
   packet; [synthesize] turns one visit into a packed trace; [generate]
   shards the plan across the pool and journals each shard's payloads as
   they are produced, keeping only O(shard) resident. *)

module Rng = Stob_util.Rng
module Pool = Stob_par.Pool
module Profile = Stob_web.Profile
module Sites = Stob_web.Sites
module Trace = Stob_net.Trace
module Arena = Stob_net.Arena
module Store = Stob_store.Store
module Journal = Stob_store.Journal
module Cell = Stob_store.Cell
module Crc32 = Stob_store.Crc32

type mode = Synthetic | Browser

type config = {
  users : int;
  shards : int;
  zipf_exponent : float;
  background_sites : int;
  mean_sessions : float;
  mean_session_visits : float;
  mean_dwell : float;
  day_seconds : float;
  diurnal_amplitude : float;
  max_trace_events : int;
  mode : mode;
  seed : int;
}

let default_config =
  {
    users = 200;
    shards = 8;
    zipf_exponent = 1.1;
    background_sites = 41;
    mean_sessions = 2.5;
    mean_session_visits = 4.0;
    mean_dwell = 30.0;
    day_seconds = 86_400.0;
    diurnal_amplitude = 0.8;
    max_trace_events = 4000;
    mode = Synthetic;
    seed = 42;
  }

let validate c =
  let bad fmt = Printf.ksprintf invalid_arg fmt in
  if c.users < 0 then bad "Population: users %d < 0" c.users;
  if c.shards < 1 then bad "Population: shards %d < 1" c.shards;
  if c.background_sites < 0 then bad "Population: background_sites %d < 0" c.background_sites;
  if c.zipf_exponent < 0.0 then bad "Population: zipf_exponent %g < 0" c.zipf_exponent;
  if c.mean_sessions < 0.0 then bad "Population: mean_sessions %g < 0" c.mean_sessions;
  if c.mean_session_visits < 1.0 then
    bad "Population: mean_session_visits %g < 1" c.mean_session_visits;
  if c.mean_dwell <= 0.0 then bad "Population: mean_dwell %g <= 0" c.mean_dwell;
  if c.day_seconds <= 0.0 then bad "Population: day_seconds %g <= 0" c.day_seconds;
  if c.diurnal_amplitude < 0.0 || c.diurnal_amplitude >= 1.0 then
    bad "Population: diurnal_amplitude %g outside [0, 1)" c.diurnal_amplitude;
  if c.max_trace_events < 8 then bad "Population: max_trace_events %d < 8" c.max_trace_events

let mode_name = function Synthetic -> "synthetic" | Browser -> "browser"

let config_fields c =
  let f = Printf.sprintf "%.17g" in
  [
    ("users", string_of_int c.users);
    ("shards", string_of_int c.shards);
    ("zipf_exponent", f c.zipf_exponent);
    ("background_sites", string_of_int c.background_sites);
    ("mean_sessions", f c.mean_sessions);
    ("mean_session_visits", f c.mean_session_visits);
    ("mean_dwell", f c.mean_dwell);
    ("day_seconds", f c.day_seconds);
    ("diurnal_amplitude", f c.diurnal_amplitude);
    ("max_trace_events", string_of_int c.max_trace_events);
    ("mode", mode_name c.mode);
  ]

let monitored = Array.of_list Sites.all

let universe c =
  Array.append monitored
    (Array.of_list (Sites.synthetic_background ~n:c.background_sites ~seed:c.seed))

let universe_size c = Array.length monitored + c.background_sites

(* --- planning ---------------------------------------------------------- *)

type visit = { user : int; session : int; site : int; start : float; trace_seed : int }

(* Normalized zipf CDF over ranks 1..n: weight(r) = r^-s. *)
let zipf_cdf ~s n =
  let w = Array.init n (fun i -> float_of_int (i + 1) ** -.s) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let zipf_pick cdf rng =
  let u = Rng.float rng 1.0 in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if u < cdf.(mid) then hi := mid else lo := mid + 1
  done;
  !lo

(* Rejection-sample a start time against the diurnal intensity curve; the
   iteration bound only matters at amplitude ~1 and keeps the draw total. *)
let diurnal_start c rng =
  let a = c.diurnal_amplitude in
  let rec draw n =
    let t = Rng.float rng c.day_seconds in
    let intensity = 1.0 +. (a *. sin (2.0 *. Float.pi *. ((t /. c.day_seconds) -. 0.25))) in
    if n >= 1000 || Rng.bernoulli rng (intensity /. (1.0 +. a)) then t else draw (n + 1)
  in
  draw 0

let plan_shard c ~shard =
  validate c;
  if shard < 0 || shard >= c.shards then
    invalid_arg (Printf.sprintf "Population.plan_shard: shard %d outside [0, %d)" shard c.shards);
  let cdf = zipf_cdf ~s:c.zipf_exponent (universe_size c) in
  let master = Rng.create c.seed in
  let visits = ref [] in
  for user = 0 to c.users - 1 do
    (* Pre-split one generator per user in user order: a user's plan is
       independent of the shard count and of every other user. *)
    let urng = Rng.split master in
    if user mod c.shards = shard then
      let sessions = Rng.poisson urng ~lambda:c.mean_sessions in
      for session = 0 to sessions - 1 do
        let start = diurnal_start c urng in
        let n_visits = 1 + Rng.geometric urng ~p:(1.0 /. c.mean_session_visits) in
        let at = ref start in
        for _ = 1 to n_visits do
          let site = zipf_pick cdf urng in
          let trace_seed = Int64.to_int (Rng.bits64 urng) land max_int in
          visits := { user; session; site; start = !at; trace_seed } :: !visits;
          at := !at +. Rng.exponential urng ~rate:(1.0 /. c.mean_dwell)
        done
      done
  done;
  Array.of_list (List.rev !visits)

(* --- trace synthesis --------------------------------------------------- *)

let outgoing = Stob_net.Packet.Outgoing
let incoming = Stob_net.Packet.Incoming

(* The cheap statistical model: a TCP+TLS handshake, the site's TLS flight,
   then the page's objects as MSS-chunked incoming bursts with delayed-ACK
   outgoing packets, request round-trips at connection-pool boundaries.
   All randomness is drawn per object; the per-packet inner loop is
   draw-free arithmetic, which is what makes population-scale generation
   cheap.  The events go into [arena], which is reset first, and
   [Trace.of_arena] copies them out, so one arena serves a whole shard. *)
let synthesize_statistical c ~arena ~profile rng =
  let rate_bps, owd = Profile.sample_network profile rng in
  let rtt = 2.0 *. owd in
  let seg_gap = 1460.0 *. 8.0 /. rate_bps in
  Arena.reset arena;
  let n = ref 0 and t = ref 0.0 in
  let push time dir size =
    if !n < c.max_trace_events then begin
      Arena.add arena ~time ~dir ~size;
      incr n
    end
  in
  let deliver bytes =
    let segs = (bytes + 1459) / 1460 in
    let i = ref 0 in
    while !i < segs && !n < c.max_trace_events do
      incr i;
      t := !t +. seg_gap;
      let payload = if !i = segs then bytes - ((segs - 1) * 1460) else 1460 in
      push !t incoming (Int.min 1500 (payload + 40));
      if !i land 1 = 0 || !i = segs then push !t outgoing 52
    done
  in
  push !t outgoing 60;
  t := !t +. rtt;
  push !t incoming 60;
  push !t outgoing 52;
  push !t outgoing (200 + Rng.int rng 400);
  t := !t +. rtt;
  deliver (Profile.sample_size profile.Profile.tls_flight rng);
  push !t outgoing 126;
  let page_objects =
    let class_sizes (cl : Profile.class_spec) =
      List.init (Rng.poisson rng ~lambda:cl.Profile.mean_count) (fun _ ->
          Profile.sample_size cl.Profile.size rng)
    in
    Profile.sample_size profile.Profile.html rng
    :: List.concat_map class_sizes
         [
           profile.Profile.css;
           profile.Profile.js;
           profile.Profile.fonts;
           profile.Profile.images;
           profile.Profile.media;
           profile.Profile.api;
         ]
  in
  let pool_width = Int.max 1 profile.Profile.parallel_connections in
  List.iteri
    (fun j bytes ->
      if !n < c.max_trace_events then begin
        if j mod pool_width = 0 then begin
          let think = profile.Profile.think in
          t := !t +. rtt +. Rng.lognormal rng ~mu:(log think.Profile.median) ~sigma:think.Profile.sigma
        end;
        push !t outgoing (300 + Rng.int rng 300);
        deliver bytes
      end)
    page_objects;
  Trace.of_arena arena

let synthesize_into arena c ~universe v =
  let profile = universe.(v.site) in
  let rng = Rng.create v.trace_seed in
  match c.mode with
  | Synthetic -> synthesize_statistical c ~arena ~profile rng
  | Browser ->
      let r = Stob_web.Browser.load ~rng profile in
      Trace.prefix r.Stob_web.Browser.trace c.max_trace_events

let synthesize c ~universe v = synthesize_into (Arena.create ()) c ~universe v

(* --- sharded generation ------------------------------------------------ *)

type shard_stats = {
  shard : int;
  flows : int;
  events : int;
  payload_bytes : int;
  payload_crc : string;
  site_visits : int array;
}

type summary = {
  config : config;
  shard_results : shard_stats array;
  flows : int;
  events : int;
  bytes : int;
  cached_shards : int;
  corpus_digest : string;
}

let shard_label i = Printf.sprintf "shard-%04d" i
let shard_file ~state_dir i = Filename.concat state_dir (shard_label i ^ ".stob")

let shard_key c i =
  Cell.digest ~experiment:"population"
    ~config:(("shard", string_of_int i) :: config_fields c)
    ~seed:c.seed

let hex crc = Printf.sprintf "%08lx" crc

(* Compute one shard from scratch, streaming every trace straight into the
   shard's own journal: after [append_crc] returns, the bytes are out of
   our hands and only counters stay resident.  Each payload is hashed once,
   by the journal's framing. *)
let compute_shard c ~universe ~state_dir i =
  let visits = plan_shard c ~shard:i in
  let file = shard_file ~state_dir i in
  (* A file without a matching stats record is a crashed attempt's leftover;
     recompute the shard whole rather than guessing where it died. *)
  (try Sys.remove file with Sys_error _ -> ());
  let journal, _ = Journal.open_ file in
  Fun.protect ~finally:(fun () -> Journal.close journal) @@ fun () ->
  let site_visits = Array.make (universe_size c) 0 in
  let events = ref 0 and bytes = ref 0 in
  let crcs = Buffer.create (8 * Array.length visits) in
  let arena = Arena.create () in
  Array.iter
    (fun v ->
      let pt = synthesize_into arena c ~universe v in
      let payload = Trace.to_bytes pt in
      let crc = Journal.append_crc journal payload in
      site_visits.(v.site) <- site_visits.(v.site) + 1;
      events := !events + Trace.length pt;
      bytes := !bytes + String.length payload;
      Buffer.add_string crcs (hex crc))
    visits;
  {
    shard = i;
    flows = Array.length visits;
    events = !events;
    payload_bytes = !bytes;
    payload_crc = hex (Crc32.string (Buffer.contents crcs));
    site_visits;
  }

(* A shard's stats record vouches for its journal only while the file has
   exactly the size the record implies — one stat, no read.  A truncated or
   deleted journal is recomputed; damage that keeps the size is caught by
   readers that count what they replay against the plan. *)
let journal_intact ~state_dir (s : shard_stats) =
  Option.equal Int.equal
    (Stob_store.Vfs.unix.file_size (shard_file ~state_dir s.shard))
    (Some (Journal.size_of ~frames:s.flows ~payload_bytes:s.payload_bytes))

let generate ?(pool = Pool.sequential) ?on_shard c ~state_dir =
  validate c;
  let universe = universe c in
  let store = Store.open_ state_dir in
  Fun.protect ~finally:(fun () -> Store.close store) @@ fun () ->
  Store.set_manifest store ~experiment:"population" ~fields:(config_fields c) ~total:c.shards;
  let cached =
    Array.init c.shards (fun i ->
        match Store.find store (shard_key c i) with
        | Some (Store.Done payload) ->
            let stats : shard_stats = Marshal.from_string payload 0 in
            if journal_intact ~state_dir stats then Some stats else None
        | Some (Store.Poisoned _) | None -> None)
  in
  let results =
    Pool.map pool
      ~on_done:(fun i (fresh, stats) ->
        (* Index order, under the pool's lock: the run journal's bytes are
           jobs-invariant, and [on_shard] observes a sequential schedule. *)
        if fresh then begin
          Store.record store ~key:(shard_key c i) ~label:(shard_label i)
            (Store.Done (Marshal.to_string stats []));
          (* Shard boundary: size-bounded auto-compaction so the run
             journal stops growing monotonically across huge corpora. *)
          ignore (Store.maybe_checkpoint store)
        end;
        Option.iter (fun f -> f stats) on_shard)
      (fun i ->
        match cached.(i) with
        | Some stats -> (false, stats)
        | None -> (true, compute_shard c ~universe ~state_dir i))
      (Array.init c.shards Fun.id)
  in
  let stats = Array.map snd results in
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 stats in
  {
    config = c;
    shard_results = stats;
    flows = sum (fun s -> s.flows);
    events = sum (fun s -> s.events);
    bytes = sum (fun s -> s.payload_bytes);
    cached_shards = Array.fold_left (fun n (fresh, _) -> if fresh then n else n + 1) 0 results;
    corpus_digest =
      Cell.digest ~experiment:"population-corpus"
        ~config:(Array.to_list (Array.map (fun s -> (shard_label s.shard, s.payload_crc)) stats))
        ~seed:c.seed;
  }

let iter_shard_frames ~state_dir ~shard f =
  Journal.iter (shard_file ~state_dir shard) (fun buf len -> f (fun () -> Trace.of_slice buf len))

let iter_shard_traces ~state_dir ~shard f =
  iter_shard_frames ~state_dir ~shard (fun decode -> f (decode ()))

let site_visit_table summary =
  let names =
    Array.map (fun (p : Profile.t) -> p.Profile.name) (universe summary.config)
  in
  Array.mapi
    (fun rank name ->
      (name, Array.fold_left (fun acc s -> acc + s.site_visits.(rank)) 0 summary.shard_results))
    names

let pp_summary fmt s =
  Format.fprintf fmt
    "@[<v>population: %d users, %d shards (%d cached), %d flows, %d events, %.1f MiB packed@,\
     corpus digest: %s@,top sites:@]@."
    s.config.users s.config.shards s.cached_shards s.flows s.events
    (float_of_int s.bytes /. 1048576.0)
    s.corpus_digest;
  let table = site_visit_table s in
  let top = Array.copy table in
  Array.sort (fun (_, a) (_, b) -> compare b a) top;
  Array.iteri
    (fun i (name, count) ->
      if i < 10 && count > 0 then Format.fprintf fmt "  %-28s %6d visits@." name count)
    top
