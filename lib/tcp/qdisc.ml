module Flows = Stob_util.Int_table

type 'a flow_state = { queue : 'a Queue.t; mutable deficit : int; mutable backlog : int }

type 'a t = {
  flows : 'a flow_state Flows.t;
  active : int Queue.t;  (* the round-robin ring of backlogged flows *)
  quantum : int;
  mutable limit_bytes : int;
  size : 'a -> int;
  mutable total_backlog : int;
  mutable drops : int;
}

let fq ?(quantum = 2 * 1514) ~limit_bytes ~size () =
  (* A zero quantum would starve the round-robin loop. *)
  let quantum = Int.max 1 quantum in
  {
    flows = Flows.create 16;
    active = Queue.create ();
    quantum;
    limit_bytes;
    size;
    total_backlog = 0;
    drops = 0;
  }

let enqueue t ~flow item =
  let bytes = t.size item in
  if t.total_backlog + bytes > t.limit_bytes then begin
    t.drops <- t.drops + 1;
    false
  end
  else begin
    t.total_backlog <- t.total_backlog + bytes;
    let state =
      match Flows.find_opt t.flows flow with
      | Some s -> s
      | None ->
          let s = { queue = Queue.create (); deficit = 0; backlog = 0 } in
          Flows.add t.flows flow s;
          s
    in
    if Queue.is_empty state.queue then begin
      (* Flow becomes active: join the round-robin ring. *)
      state.deficit <- 0;
      Queue.add flow t.active
    end;
    Queue.add item state.queue;
    state.backlog <- state.backlog + bytes;
    true
  end

let rec fq_dequeue t =
  match Queue.take_opt t.active with
  | None -> None
  | Some flow -> (
      let state = Flows.find t.flows flow in
      match Queue.peek_opt state.queue with
      | None -> fq_dequeue t
      | Some item ->
          let bytes = t.size item in
          if state.deficit >= bytes then begin
            ignore (Queue.take state.queue);
            state.deficit <- state.deficit - bytes;
            state.backlog <- state.backlog - bytes;
            if not (Queue.is_empty state.queue) then
              (* Still backlogged: return to the ring with remaining deficit. *)
              Queue.add flow t.active
            else state.deficit <- 0;
            Some (flow, item)
          end
          else begin
            (* Grant a quantum and move to the back of the ring. *)
            state.deficit <- state.deficit + t.quantum;
            Queue.add flow t.active;
            fq_dequeue t
          end)

let dequeue t =
  let result = fq_dequeue t in
  (match result with
  | None -> ()
  | Some (_, item) -> t.total_backlog <- t.total_backlog - t.size item);
  result

let backlog_bytes t = t.total_backlog

let limit_bytes t = t.limit_bytes

let set_limit_bytes t limit =
  if limit < 0 then invalid_arg "Qdisc.set_limit_bytes: negative limit";
  (* Already-queued items are not dropped: like a runtime `tc change`, the
     new limit gates admissions only. *)
  t.limit_bytes <- limit

let flow_backlog t ~flow =
  match Flows.find_opt t.flows flow with Some s -> s.backlog | None -> 0

let drops t = t.drops
