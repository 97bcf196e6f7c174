(* Bump allocator for in-flight packet metadata.

   Trace builders (the synthetic population generator) produce events one
   at a time without knowing the final count.  The arena bumps events into
   fixed-size bigarray chunks -- one float64 lane for timestamps, one int32
   lane for the packed direction+size word -- and hands the whole run to
   {!Trace.of_arena} with two blits per chunk.  [reset] recycles the
   chunks, so a per-shard worker reuses one arena for every trace it
   builds. *)

module BA1 = Bigarray.Array1

type times_chunk = (float, Bigarray.float64_elt, Bigarray.c_layout) BA1.t
type meta_chunk = (int32, Bigarray.int32_elt, Bigarray.c_layout) BA1.t

type t = {
  chunk_events : int;
  (* Full chunks, oldest first (kept in reverse, newest first). *)
  mutable full : (times_chunk * meta_chunk) list;
  mutable cur_times : times_chunk;
  mutable cur_meta : meta_chunk;
  mutable cur_len : int;
  mutable full_len : int;
  (* Spare chunks recycled by [reset]. *)
  mutable spare : (times_chunk * meta_chunk) list;
}

let default_chunk_events = 4096

(* size in [0, 2^30): the packed word is [size lsl 1 lor dir] in an int32,
   keeping direction distinguishable even for zero-size events (a signed
   encoding could not). *)
let max_size = (1 lsl 30) - 1

let word ~dir ~size =
  if size < 0 || size > max_size then
    invalid_arg (Printf.sprintf "Stob_net: wire size %d outside [0, %d]" size max_size);
  (size lsl 1) lor (match dir with Packet.Outgoing -> 1 | Packet.Incoming -> 0)

let alloc_chunk n =
  (BA1.create Bigarray.float64 Bigarray.c_layout n, BA1.create Bigarray.int32 Bigarray.c_layout n)

let create ?(chunk_events = default_chunk_events) () =
  if chunk_events < 1 then invalid_arg "Arena.create: chunk_events must be positive";
  let times, meta = alloc_chunk chunk_events in
  {
    chunk_events;
    full = [];
    cur_times = times;
    cur_meta = meta;
    cur_len = 0;
    full_len = 0;
    spare = [];
  }

let length t = t.full_len + t.cur_len

(* The word is stored straight into the int32 lane, so it is never boxed:
   an event costs no heap words here.  (A caller that computes a fresh
   float to pass as [time] boxes it; population synthesis passes its
   clock's already-boxed value.) *)
let add t ~time ~dir ~size =
  let w = word ~dir ~size in
  if t.cur_len = t.chunk_events then begin
    t.full <- (t.cur_times, t.cur_meta) :: t.full;
    t.full_len <- t.full_len + t.chunk_events;
    let times, meta =
      match t.spare with
      | c :: rest ->
          t.spare <- rest;
          c
      | [] -> alloc_chunk t.chunk_events
    in
    t.cur_times <- times;
    t.cur_meta <- meta;
    t.cur_len <- 0
  end;
  BA1.unsafe_set t.cur_times t.cur_len time;
  BA1.unsafe_set t.cur_meta t.cur_len (Int32.of_int w);
  t.cur_len <- t.cur_len + 1

let reset t =
  t.spare <- List.rev_append t.full t.spare;
  t.full <- [];
  t.full_len <- 0;
  t.cur_len <- 0

(* Copy the arena's events, in insertion order, into [times]/[meta]
   starting at index 0.  Destination length must be [length t]. *)
let blit t ~times ~meta =
  let n = length t in
  if BA1.dim times <> n || BA1.dim meta <> n then
    invalid_arg "Arena.blit: destination length mismatch";
  let off = ref 0 in
  List.iter
    (fun (ct, cm) ->
      BA1.blit ct (BA1.sub times !off t.chunk_events);
      BA1.blit cm (BA1.sub meta !off t.chunk_events);
      off := !off + t.chunk_events)
    (List.rev t.full);
  if t.cur_len > 0 then begin
    BA1.blit (BA1.sub t.cur_times 0 t.cur_len) (BA1.sub times !off t.cur_len);
    BA1.blit (BA1.sub t.cur_meta 0 t.cur_len) (BA1.sub meta !off t.cur_len)
  end
