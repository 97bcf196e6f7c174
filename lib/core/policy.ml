type size_rule =
  | Default_size
  | Fixed_payload of int
  | Split_above of int
  | Cycle_reduction of { step : int; max_steps : int }
  | Sampled_size of Stob_util.Histogram.t

type tso_rule =
  | Default_tso
  | Fixed_tso_packets of int
  | Cycle_tso_reduction of { step : int; max_steps : int }
  | Single_packet_tso

type timing_rule =
  | Default_timing
  | Add_constant of float
  | Add_uniform of float * float
  | Stretch_gap of float * float
  | Sampled_gap of Stob_util.Histogram.t
  | Pace_at of float

type t = {
  name : string;
  size : size_rule;
  tso : tso_rule;
  timing : timing_rule;
  exempt_phases : Stob_tcp.Cc.phase list;
}

let unmodified =
  { name = "unmodified"; size = Default_size; tso = Default_tso; timing = Default_timing; exempt_phases = [] }

let make ~name ?(size = Default_size) ?(tso = Default_tso) ?(timing = Default_timing) () =
  { name; size; tso; timing; exempt_phases = [] }

let validate t =
  let check cond msg = if cond then Ok () else Error msg in
  let ( let* ) = Result.bind in
  let* () =
    match t.size with
    | Default_size -> Ok ()
    | Fixed_payload n -> check (n > 0) "Fixed_payload must be positive"
    | Split_above n -> check (n > 0) "Split_above threshold must be positive"
    | Cycle_reduction { step; max_steps } ->
        check (step >= 0 && max_steps > 0) "Cycle_reduction needs step >= 0 and max_steps > 0"
    | Sampled_size h ->
        check
          (Stob_util.Histogram.count h > 0 && Stob_util.Histogram.lo h >= 1.0)
          "Sampled_size histogram must be non-empty with domain >= 1 byte"
  in
  let* () =
    match t.tso with
    | Default_tso | Single_packet_tso -> Ok ()
    | Fixed_tso_packets n -> check (n > 0) "Fixed_tso_packets must be positive"
    | Cycle_tso_reduction { step; max_steps } ->
        check (step >= 0 && max_steps > 0) "Cycle_tso_reduction needs step >= 0 and max_steps > 0"
  in
  match t.timing with
  | Default_timing -> Ok ()
  | Add_constant d -> check (d >= 0.0) "Add_constant delay must be non-negative"
  | Add_uniform (lo, hi) -> check (0.0 <= lo && lo <= hi) "Add_uniform needs 0 <= lo <= hi"
  | Stretch_gap (lo, hi) -> check (0.0 <= lo && lo <= hi) "Stretch_gap needs 0 <= lo <= hi"
  | Sampled_gap h ->
      check
        (Stob_util.Histogram.count h > 0 && Stob_util.Histogram.lo h >= 0.0)
        "Sampled_gap histogram must be non-empty with non-negative domain"
  | Pace_at rate -> check (rate > 0.0) "Pace_at rate must be positive"

let pp_size fmt = function
  | Default_size -> Format.pp_print_string fmt "default"
  | Fixed_payload n -> Format.fprintf fmt "fixed(%dB)" n
  | Split_above n -> Format.fprintf fmt "split>%dB" n
  | Cycle_reduction { step; max_steps } -> Format.fprintf fmt "cycle(-%dB x%d)" step max_steps
  | Sampled_size _ -> Format.pp_print_string fmt "histogram"

let pp_tso fmt = function
  | Default_tso -> Format.pp_print_string fmt "default"
  | Fixed_tso_packets n -> Format.fprintf fmt "fixed(%dpkt)" n
  | Cycle_tso_reduction { step; max_steps } -> Format.fprintf fmt "cycle(-%dpkt x%d)" step max_steps
  | Single_packet_tso -> Format.pp_print_string fmt "off"

let pp_timing fmt = function
  | Default_timing -> Format.pp_print_string fmt "default"
  | Add_constant d -> Format.fprintf fmt "+%.2gms" (d *. 1e3)
  | Add_uniform (lo, hi) -> Format.fprintf fmt "+U(%.2g,%.2g)ms" (lo *. 1e3) (hi *. 1e3)
  | Stretch_gap (lo, hi) -> Format.fprintf fmt "gap*(1+U(%.2g,%.2g))" lo hi
  | Sampled_gap _ -> Format.pp_print_string fmt "histogram"
  | Pace_at rate -> Format.fprintf fmt "pace@%.1fMb/s" (rate /. 1e6)

let pp fmt t =
  Format.fprintf fmt "%s{size=%a tso=%a timing=%a%s}" t.name pp_size t.size pp_tso t.tso pp_timing
    t.timing
    (if t.exempt_phases = [] then ""
     else
       " exempt=" ^ String.concat "," (List.map Stob_tcp.Cc.phase_name t.exempt_phases))
