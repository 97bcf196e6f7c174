module Rng = Stob_util.Rng
module Stats = Stob_util.Stats
module Trace = Stob_net.Trace
module Packet = Stob_net.Packet

type sample = {
  site : string;
  label : int;
  trace : Trace.t;
  completed : bool;
  total_in_bytes : int;
}

type t = { samples : sample array; site_names : string array }

let generate ?(samples_per_site = 100) ?(seed = 1) ?policy ?client_config ?(profiles = Sites.all)
    ?(failure_rate = 0.02) ?(transport = `Tcp) ?progress ?(pool = Stob_par.Pool.sequential) () =
  let master = Rng.create seed in
  let site_names = Array.of_list (List.map (fun p -> p.Profile.name) profiles) in
  let total = List.length profiles * samples_per_site in
  let done_ = Atomic.make 0 in
  (* Pre-split one generator per visit, in visit order, so the per-visit
     tasks are pure and the parallel map reproduces the sequential corpus
     bit-for-bit ([split] only consumes the master stream). *)
  let visits =
    List.concat
      (List.mapi
         (fun label profile ->
           List.init samples_per_site (fun _ -> (label, profile, Rng.split master)))
         profiles)
  in
  let visit (label, profile, rng) =
    let result =
      match transport with
      | `Tcp -> Browser.load ?policy ?client_config ~rng profile
      | `Quic -> Browser_quic.load ?policy ~rng profile
    in
    let d = Atomic.fetch_and_add done_ 1 + 1 in
    (match progress with Some f -> f ~done_:d ~total | None -> ());
    (* Inject occasional "connection error" captures: truncate the
       trace at a random point and mark the visit failed. *)
    let failed = Rng.bernoulli rng failure_rate in
    let trace =
      if failed then
        Trace.prefix result.Browser.trace
          (1 + Rng.int rng (Int.max 1 (Trace.length result.Browser.trace)))
      else result.Browser.trace
    in
    {
      site = profile.Profile.name;
      label;
      trace;
      completed = result.Browser.completed && not failed;
      total_in_bytes = Trace.bytes ~dir:Packet.Incoming trace;
    }
  in
  { samples = Stob_par.Pool.map pool visit (Array.of_list visits); site_names }

let per_site_counts t =
  Array.to_list
    (Array.mapi
       (fun label site ->
         (site, Array.fold_left (fun acc s -> if s.label = label then acc + 1 else acc) 0 t.samples))
       t.site_names)

let sanitize t =
  let ok = Array.of_list (List.filter (fun s -> s.completed) (Array.to_list t.samples)) in
  (* Per-site Tukey fences on total download size. *)
  let surviving =
    Array.to_list t.site_names
    |> List.mapi (fun label _ ->
           let mine = List.filter (fun s -> s.label = label) (Array.to_list ok) in
           match mine with
           | [] -> []
           | _ ->
               let sizes = Array.of_list (List.map (fun s -> float_of_int s.total_in_bytes) mine) in
               let lo, hi = Stats.iqr_bounds sizes in
               List.filter
                 (fun s ->
                   let v = float_of_int s.total_in_bytes in
                   v >= lo && v <= hi)
                 mine)
  in
  let min_count =
    List.fold_left (fun acc l -> Int.min acc (List.length l)) max_int surviving
  in
  let min_count = if min_count = max_int then 0 else min_count in
  let balanced = List.concat_map (fun l -> List.filteri (fun i _ -> i < min_count) l) surviving in
  { samples = Array.of_list balanced; site_names = t.site_names }

let by_label t =
  Array.to_list t.site_names
  |> List.mapi (fun label _ -> List.filter (fun s -> s.label = label) (Array.to_list t.samples))

let split t ~rng ~train_fraction =
  let train = ref [] and test = ref [] in
  List.iter
    (fun class_samples ->
      let arr = Array.of_list class_samples in
      Rng.shuffle rng arr;
      let n_train = int_of_float (train_fraction *. float_of_int (Array.length arr)) in
      Array.iteri (fun i s -> if i < n_train then train := s :: !train else test := s :: !test) arr)
    (by_label t);
  ( { samples = Array.of_list (List.rev !train); site_names = t.site_names },
    { samples = Array.of_list (List.rev !test); site_names = t.site_names } )

let fold_positions t ~rng ~k =
  if k < 2 then invalid_arg "Dataset.folds: k must be >= 2";
  (* Assign each sample position a fold within its class, then build k
     train/test pairs.  Positions, not sample values: equal samples of a
     class (BuFLO and Tamaraw make them on purpose) spread over the folds
     like any others. *)
  let positions = List.init (Array.length t.samples) Fun.id in
  let fold_of = Array.make (Array.length t.samples) 0 in
  Array.iteri
    (fun label _ ->
      let arr = Array.of_list (List.filter (fun i -> t.samples.(i).label = label) positions) in
      Rng.shuffle rng arr;
      Array.iteri (fun i pos -> fold_of.(pos) <- i mod k) arr)
    t.site_names;
  List.init k (fun fold ->
      let test, train = List.partition (fun pos -> fold_of.(pos) = fold) positions in
      (Array.of_list train, Array.of_list test))

let folds t ~rng ~k =
  let pick positions =
    { samples = Array.map (fun pos -> t.samples.(pos)) positions; site_names = t.site_names }
  in
  List.map (fun (train, test) -> (pick train, pick test)) (fold_positions t ~rng ~k)

let map_traces t f =
  {
    t with
    samples =
      Array.map
        (fun s ->
          let trace = f s in
          { s with trace; total_in_bytes = Trace.bytes ~dir:Packet.Incoming trace })
        t.samples;
  }
