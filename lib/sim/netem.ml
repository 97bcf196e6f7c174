module Rng = Stob_util.Rng

type loss_model =
  | No_loss
  | Iid of float
  | Gilbert_elliott of { p_gb : float; p_bg : float; loss_good : float; loss_bad : float }

type config = {
  loss : loss_model;
  reorder_prob : float;
  reorder_depth : int;
  reorder_hold : float;
  duplicate_prob : float;
  jitter : float;
  drop_list : int list;
  seed : int;
}

let default =
  {
    loss = No_loss;
    reorder_prob = 0.0;
    reorder_depth = 0;
    reorder_hold = 0.05;
    duplicate_prob = 0.0;
    jitter = 0.0;
    drop_list = [];
    seed = 0;
  }

let validate cfg =
  let prob what p =
    if not (p >= 0.0 && p <= 1.0) then
      invalid_arg (Printf.sprintf "Netem: %s probability %g outside [0, 1]" what p)
  in
  (match cfg.loss with
  | No_loss -> ()
  | Iid p -> prob "loss" p
  | Gilbert_elliott { p_gb; p_bg; loss_good; loss_bad } ->
      prob "p_gb" p_gb;
      prob "p_bg" p_bg;
      prob "loss_good" loss_good;
      prob "loss_bad" loss_bad);
  prob "reorder" cfg.reorder_prob;
  prob "duplicate" cfg.duplicate_prob;
  if cfg.reorder_depth < 0 then invalid_arg "Netem: negative reorder_depth";
  if cfg.reorder_prob > 0.0 && cfg.reorder_depth = 0 then
    invalid_arg "Netem: reorder_prob > 0 requires reorder_depth >= 1";
  if cfg.reorder_hold <= 0.0 && cfg.reorder_prob > 0.0 then
    invalid_arg "Netem: reorder_hold must be positive when reordering";
  if cfg.jitter < 0.0 then invalid_arg "Netem: negative jitter";
  if List.exists (fun n -> n <= 0) cfg.drop_list then
    invalid_arg "Netem: drop_list ordinals are 1-based positives"

type stats = {
  offered : int;
  lost : int;
  duplicated : int;
  reordered : int;
  delivered : int;
}

let zero_stats = { offered = 0; lost = 0; duplicated = 0; reordered = 0; delivered = 0 }

let add_stats a b =
  {
    offered = a.offered + b.offered;
    lost = a.lost + b.lost;
    duplicated = a.duplicated + b.duplicated;
    reordered = a.reordered + b.reordered;
    delivered = a.delivered + b.delivered;
  }

type 'a held_frame = {
  frame : 'a;
  mutable remaining : int;
  mutable released : bool;
  mutable flush_ev : Engine.event_id option;
}

type 'a t = {
  engine : Engine.t;
  cfg : config;
  rng : Rng.t;
  drop_filter : 'a -> bool;
  deliver : 'a -> unit;
  mutable ge_bad : bool;
  mutable held_frames : 'a held_frame list;  (* oldest first *)
  mutable matched : int;  (* frames seen by the drop-list filter *)
  mutable offered : int;
  mutable lost : int;
  mutable duplicated : int;
  mutable reordered : int;
  mutable delivered : int;
}

type 'a spec = { s_cfg : config; s_drop_filter : 'a -> bool }

let spec ?(drop_filter = fun _ -> true) cfg =
  validate cfg;
  { s_cfg = cfg; s_drop_filter = drop_filter }

let create ~engine ?(drop_filter = fun _ -> true) ~deliver cfg =
  validate cfg;
  {
    engine;
    cfg;
    rng = Rng.create cfg.seed;
    drop_filter;
    deliver;
    ge_bad = false;
    held_frames = [];
    matched = 0;
    offered = 0;
    lost = 0;
    duplicated = 0;
    reordered = 0;
    delivered = 0;
  }

let of_spec ~engine ~deliver spec = create ~engine ~drop_filter:spec.s_drop_filter ~deliver spec.s_cfg

let stats t =
  {
    offered = t.offered;
    lost = t.lost;
    duplicated = t.duplicated;
    reordered = t.reordered;
    delivered = t.delivered;
  }

let held t = List.length t.held_frames

(* Hand a frame to the receiver, after the jitter delay if any. *)
let dispatch t frame =
  t.delivered <- t.delivered + 1;
  if t.cfg.jitter > 0.0 then
    ignore (Engine.schedule t.engine ~delay:(Rng.float t.rng t.cfg.jitter) (fun () -> t.deliver frame))
  else t.deliver frame

let release t h =
  if not h.released then begin
    h.released <- true;
    (match h.flush_ev with
    | Some ev ->
        Engine.cancel t.engine ev;
        h.flush_ev <- None
    | None -> ());
    t.held_frames <- List.filter (fun x -> x != h) t.held_frames;
    t.reordered <- t.reordered + 1;
    dispatch t h.frame
  end

let hold t frame =
  let h = { frame; remaining = Int.max 1 t.cfg.reorder_depth; released = false; flush_ev = None } in
  t.held_frames <- t.held_frames @ [ h ];
  h.flush_ev <-
    Some
      (Engine.schedule t.engine ~delay:t.cfg.reorder_hold (fun () ->
           h.flush_ev <- None;
           release t h))

(* Deliver a passing frame, then age the reorder buffer: held frames ripe
   after this passage are released behind it. *)
let pass t frame =
  dispatch t frame;
  let ripe =
    List.filter
      (fun h ->
        h.remaining <- h.remaining - 1;
        h.remaining <= 0)
      t.held_frames
  in
  List.iter (release t) ripe

let loss_draw t =
  match t.cfg.loss with
  | No_loss -> false
  | Iid p -> p > 0.0 && Rng.bernoulli t.rng p
  | Gilbert_elliott { p_gb; p_bg; loss_good; loss_bad } ->
      (if t.ge_bad then begin
         if Rng.bernoulli t.rng p_bg then t.ge_bad <- false
       end
       else if Rng.bernoulli t.rng p_gb then t.ge_bad <- true);
      let p = if t.ge_bad then loss_bad else loss_good in
      p > 0.0 && Rng.bernoulli t.rng p

let feed t frame =
  t.offered <- t.offered + 1;
  let listed =
    t.drop_filter frame
    && begin
         t.matched <- t.matched + 1;
         List.memq t.matched t.cfg.drop_list
       end
  in
  if listed || loss_draw t then t.lost <- t.lost + 1
  else begin
    if t.cfg.duplicate_prob > 0.0 && Rng.bernoulli t.rng t.cfg.duplicate_prob then begin
      t.duplicated <- t.duplicated + 1;
      dispatch t frame
    end;
    if t.cfg.reorder_prob > 0.0 && Rng.bernoulli t.rng t.cfg.reorder_prob then hold t frame
    else pass t frame
  end
