(* Wire traces as two bigarray lanes: float64 timestamps and int32 words
   [size lsl 1 lor dir_bit], 12 bytes per event outside the OCaml heap and
   no record per event.  Values are never written after they are built,
   so views (prefix, sub) and transformations that change one lane only
   (shift_to_zero, the emulated delay) share storage. *)

module BA1 = Bigarray.Array1

type event = { time : float; dir : Packet.direction; size : int }
type times_lane = (float, Bigarray.float64_elt, Bigarray.c_layout) BA1.t
type meta_lane = (int32, Bigarray.int32_elt, Bigarray.c_layout) BA1.t
type t = { times : times_lane; meta : meta_lane }

let alloc n =
  { times = BA1.create Bigarray.float64 Bigarray.c_layout n;
    meta = BA1.create Bigarray.int32 Bigarray.c_layout n }

let empty = alloc 0
let length t = BA1.dim t.times

let dir_of_word m = if m land 1 = 1 then Packet.Outgoing else Packet.Incoming
let dir_bit = function Packet.Outgoing -> 1 | Packet.Incoming -> 0
let word t i = Int32.to_int (BA1.get t.meta i)

let time t i = BA1.get t.times i
let dir t i = dir_of_word (word t i)
let size t i = word t i lsr 1
let get t i = { time = time t i; dir = dir t i; size = size t i }

let raw_times t = t.times
let raw_meta t = t.meta

(* --- builders --- *)

let of_lanes ~times ~meta =
  if BA1.dim times <> BA1.dim meta then invalid_arg "Trace.of_lanes: lane lengths differ";
  { times; meta }

let of_events evs =
  let p = alloc (Array.length evs) in
  Array.iteri
    (fun i e ->
      BA1.unsafe_set p.times i e.time;
      BA1.unsafe_set p.meta i (Int32.of_int (Arena.word ~dir:e.dir ~size:e.size)))
    evs;
  p

let of_arena arena =
  let p = alloc (Arena.length arena) in
  Arena.blit arena ~times:p.times ~meta:p.meta;
  p

(* --- observers --- *)

let is_sorted t =
  let ok = ref true in
  for i = 1 to length t - 1 do
    if BA1.unsafe_get t.times i < BA1.unsafe_get t.times (i - 1) then ok := false
  done;
  !ok

(* Non-decreasing under [<=].  Unlike [is_sorted]'s [<], this fails across
   a NaN timestamp, so a trace that passes is its own stable sort.  Captures
   and the emulated defenses hand [sort] such traces almost always. *)
let in_order t =
  let n = length t in
  let rec go i =
    i >= n || (BA1.unsafe_get t.times (i - 1) <= BA1.unsafe_get t.times i && go (i + 1))
  in
  go 1

let sort t =
  if in_order t then t
  else begin
    let n = length t in
    (* By time, original index breaking ties, so equal timestamps keep
       their relative order ([Array.sort] is not stable). *)
    let idx = Array.init n (fun i -> i) in
    Array.sort
      (fun i j ->
        let ti = BA1.unsafe_get t.times i and tj = BA1.unsafe_get t.times j in
        if ti <> tj then compare ti tj else compare i j)
      idx;
    let p = alloc n in
    Array.iteri
      (fun k i ->
        BA1.unsafe_set p.times k (BA1.unsafe_get t.times i);
        BA1.unsafe_set p.meta k (BA1.unsafe_get t.meta i))
      idx;
    p
  end

let sub t pos len = { times = BA1.sub t.times pos len; meta = BA1.sub t.meta pos len }
let prefix t n = if n >= length t then t else sub t 0 (Int.max n 0)

let duration t =
  let n = length t in
  if n < 2 then 0.0 else BA1.get t.times (n - 1) -. BA1.get t.times 0

let count ?dir t =
  match dir with
  | None -> length t
  | Some d ->
      let b = dir_bit d in
      let c = ref 0 in
      for i = 0 to length t - 1 do
        if Int32.to_int (BA1.unsafe_get t.meta i) land 1 = b then incr c
      done;
      !c

let bytes ?dir t =
  let acc = ref 0 in
  (match dir with
  | None ->
      for i = 0 to length t - 1 do
        acc := !acc + (Int32.to_int (BA1.unsafe_get t.meta i) lsr 1)
      done
  | Some d ->
      let b = dir_bit d in
      for i = 0 to length t - 1 do
        let m = Int32.to_int (BA1.unsafe_get t.meta i) in
        if m land 1 = b then acc := !acc + (m lsr 1)
      done);
  !acc

let filtered_floats ?dir t ~value =
  match dir with
  | None -> Array.init (length t) (fun i -> value t i)
  | Some d ->
      let b = dir_bit d in
      let out = Array.make (count ~dir:d t) 0.0 in
      let k = ref 0 in
      for i = 0 to length t - 1 do
        if Int32.to_int (BA1.unsafe_get t.meta i) land 1 = b then begin
          out.(!k) <- value t i;
          incr k
        end
      done;
      out

let times ?dir t = filtered_floats ?dir t ~value:(fun t i -> BA1.unsafe_get t.times i)

let sizes ?dir t =
  filtered_floats ?dir t ~value:(fun t i ->
      float_of_int (Int32.to_int (BA1.unsafe_get t.meta i) lsr 1))

let interarrivals ?dir t =
  let ts = times ?dir t in
  let n = Array.length ts in
  if n < 2 then [||] else Array.init (n - 1) (fun i -> ts.(i + 1) -. ts.(i))

let shift_to_zero t =
  let n = length t in
  if n = 0 then t
  else begin
    let t0 = BA1.get t.times 0 in
    let times = BA1.create Bigarray.float64 Bigarray.c_layout n in
    for i = 0 to n - 1 do
      BA1.unsafe_set times i (BA1.unsafe_get t.times i -. t0)
    done;
    { times; meta = t.meta }
  end

let concat ts =
  let p = alloc (List.fold_left (fun acc t -> acc + length t) 0 ts) in
  let off = ref 0 in
  List.iter
    (fun t ->
      let l = length t in
      if l > 0 then begin
        BA1.blit t.times (BA1.sub p.times !off l);
        BA1.blit t.meta (BA1.sub p.meta !off l);
        off := !off + l
      end)
    ts;
  p

let concat_sorted ts = sort (concat ts)

(* --- text and binary codecs --- *)

let to_csv t =
  let buf = Buffer.create (length t * 24) in
  for i = 0 to length t - 1 do
    let m = Int32.to_int (BA1.unsafe_get t.meta i) in
    Buffer.add_string buf
      (Printf.sprintf "%.9f,%d,%d\n" (BA1.unsafe_get t.times i)
         (if m land 1 = 1 then 1 else -1)
         (m lsr 1))
  done;
  Buffer.contents buf

let of_csv text =
  let parse_line line =
    match String.split_on_char ',' (String.trim line) with
    | [ time; dir; size ] ->
        let dir =
          match int_of_string (String.trim dir) with
          | 1 -> Packet.Outgoing
          | -1 -> Packet.Incoming
          | d -> failwith (Printf.sprintf "Trace.of_csv: bad direction %d" d)
        in
        { time = float_of_string (String.trim time); dir; size = int_of_string (String.trim size) }
    | _ -> failwith (Printf.sprintf "Trace.of_csv: malformed line %S" line)
  in
  String.split_on_char '\n' text
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map parse_line
  |> Array.of_list
  |> of_events

(* Atomic (write-to-temp then rename): a crash mid-save can leave a stray
   temp file but never a truncated trace under the target name. *)
let save path t = Stob_store.Atomic_file.write path (to_csv t)

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_csv (really_input_string ic (in_channel_length ic)))

(* Binary framing for journal payloads: magic, little-endian u32 count,
   raw float64 times, raw int32 meta words. *)
let magic = "SPKT1\x00"

let to_bytes t =
  let n = length t in
  let b = Bytes.create (String.length magic + 4 + (n * 12)) in
  Bytes.blit_string magic 0 b 0 (String.length magic);
  Bytes.set_int32_le b (String.length magic) (Int32.of_int n);
  let off_t = String.length magic + 4 in
  let off_m = off_t + (n * 8) in
  for i = 0 to n - 1 do
    Bytes.set_int64_le b (off_t + (i * 8)) (Int64.bits_of_float (BA1.unsafe_get t.times i));
    Bytes.set_int32_le b (off_m + (i * 4)) (BA1.unsafe_get t.meta i)
  done;
  Bytes.unsafe_to_string b

let of_slice b len =
  if len < 0 || len > Bytes.length b then invalid_arg "Trace.of_slice";
  let fail why = failwith ("Trace.of_slice: " ^ why) in
  let mlen = String.length magic in
  if len < mlen + 4 || Bytes.sub_string b 0 mlen <> magic then fail "bad magic";
  let n = Int32.to_int (Bytes.get_int32_le b mlen) in
  if n < 0 || len <> mlen + 4 + (n * 12) then fail "bad length";
  let p = alloc n in
  let off_t = mlen + 4 in
  let off_m = off_t + (n * 8) in
  for i = 0 to n - 1 do
    BA1.unsafe_set p.times i (Int64.float_of_bits (Bytes.get_int64_le b (off_t + (i * 8))));
    BA1.unsafe_set p.meta i (Bytes.get_int32_le b (off_m + (i * 4)))
  done;
  p

let pp_summary fmt t =
  Format.fprintf fmt "%d pkts (%d out / %d in), %d B out, %d B in, %.3f s" (length t)
    (count ~dir:Packet.Outgoing t) (count ~dir:Packet.Incoming t) (bytes ~dir:Packet.Outgoing t)
    (bytes ~dir:Packet.Incoming t) (duration t)
