(* Observe-only span recorder for the traced runs.

   Spans are recorded by the benchmark around its own calls into each
   layer's public functions; nothing inside the program is instrumented.
   Each domain appends to its own buffer, so recording takes no lock; the
   buffers are read only after every pool batch has drained. *)

type span = {
  id : int;
  parent : int;  (** [-1] for a root span. *)
  name : string;
  layer : string;
  domain : int;
  start : float;
  dur : float;  (** Seconds. *)
  calls : int;  (** 1, or the number of calls an aggregate span stands for. *)
  items : int;  (** Work units the span processed (packets, rows, trees...). *)
  minor_words : float;  (** Minor-heap words allocated on the span's domain. *)
}

type buffer = {
  domain : int;
  mutable spans : span list;
  mutable stack : int list;
  counters : (string, float) Hashtbl.t;
}

let registry_mu = Mutex.create ()
let registry : buffer list ref = ref []
let next_id = Atomic.make 0

let key =
  Domain.DLS.new_key (fun () ->
      let b =
        {
          domain = (Domain.self () :> int);
          spans = [];
          stack = [];
          counters = Hashtbl.create 16;
        }
      in
      Mutex.protect registry_mu (fun () -> registry := b :: !registry);
      b)

let now = Unix.gettimeofday

(** [span ~layer name f] runs [f] as a span; [items] maps the result to
    the work units it processed. *)
let span ?(items = fun _ -> 0) ~layer name f =
  let b = Domain.DLS.get key in
  let id = Atomic.fetch_and_add next_id 1 in
  let parent = match b.stack with p :: _ -> p | [] -> -1 in
  b.stack <- id :: b.stack;
  let w0 = Gc.minor_words () and t0 = now () in
  let finish n =
    let t1 = now () and w1 = Gc.minor_words () in
    b.stack <- List.tl b.stack;
    b.spans <-
      {
        id;
        parent;
        name;
        layer;
        domain = b.domain;
        start = t0;
        dur = t1 -. t0;
        calls = 1;
        items = n;
        minor_words = w1 -. w0;
      }
      :: b.spans
  in
  match f () with
  | v ->
      finish (items v);
      v
  | exception e ->
      finish 0;
      raise e

(** Record [calls] calls totalling [dur] seconds as one child of the
    innermost open span — for calls too frequent to record one by one. *)
let aggregate ~layer name ~dur ~calls =
  let b = Domain.DLS.get key in
  let id = Atomic.fetch_and_add next_id 1 in
  let parent = match b.stack with p :: _ -> p | [] -> -1 in
  b.spans <-
    { id; parent; name; layer; domain = b.domain; start = now () -. dur; dur; calls; items = calls;
      minor_words = 0.0 }
    :: b.spans

(** [add counters name v] adds [v] to a counter in a table of counters. *)
let add counters name v =
  Hashtbl.replace counters name (v +. Option.value ~default:0.0 (Hashtbl.find_opt counters name))

(** Add [v] to the named counter of the calling domain. *)
let count name v = add (Domain.DLS.get key).counters name v

(** Every span and the summed counters recorded so far, on all domains;
    empties the buffers. *)
let drain () =
  Mutex.protect registry_mu @@ fun () ->
  let counters = Hashtbl.create 16 in
  let spans =
    List.concat_map
      (fun b ->
        let s = b.spans in
        b.spans <- [];
        Hashtbl.iter (add counters) b.counters;
        Hashtbl.reset b.counters;
        s)
      !registry
  in
  (spans, List.of_seq (Hashtbl.to_seq counters))

(** Self time of every span: its duration minus its children's. *)
let self_times spans =
  let children = Hashtbl.create 1024 in
  List.iter (fun s -> if s.parent >= 0 then add children s.parent s.dur) spans;
  List.map (fun s -> (s, s.dur -. Option.value ~default:0.0 (Hashtbl.find_opt children s.id))) spans
