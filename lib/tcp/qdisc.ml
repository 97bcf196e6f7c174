type 'a flow_state = { queue : 'a Queue.t; mutable deficit : int; mutable backlog : int }

type 'a scheme =
  | Fifo of (int * 'a) Queue.t
  | Fq of { flows : (int, 'a flow_state) Hashtbl.t; active : int Queue.t; quantum : int }

type 'a t = {
  scheme : 'a scheme;
  mutable limit_bytes : int;
  size : 'a -> int;
  mutable total_backlog : int;
  mutable drops : int;
  per_flow : (int, int) Hashtbl.t;  (* flow -> queued bytes, for TSQ accounting *)
}

let fifo ~limit_bytes ~size =
  { scheme = Fifo (Queue.create ()); limit_bytes; size; total_backlog = 0; drops = 0; per_flow = Hashtbl.create 16 }

let fq ?(quantum = 2 * 1514) ~limit_bytes ~size () =
  (* A zero quantum would starve the round-robin loop. *)
  let quantum = Int.max 1 quantum in
  {
    scheme = Fq { flows = Hashtbl.create 16; active = Queue.create (); quantum };
    limit_bytes;
    size;
    total_backlog = 0;
    drops = 0;
    per_flow = Hashtbl.create 16;
  }

let add_flow_bytes t flow bytes =
  let current = Option.value ~default:0 (Hashtbl.find_opt t.per_flow flow) in
  Hashtbl.replace t.per_flow flow (current + bytes)

let enqueue t ~flow item =
  let bytes = t.size item in
  if t.total_backlog + bytes > t.limit_bytes then begin
    t.drops <- t.drops + 1;
    false
  end
  else begin
    t.total_backlog <- t.total_backlog + bytes;
    add_flow_bytes t flow bytes;
    (match t.scheme with
    | Fifo q -> Queue.add (flow, item) q
    | Fq { flows; active; quantum = _ } ->
        let state =
          match Hashtbl.find_opt flows flow with
          | Some s -> s
          | None ->
              let s = { queue = Queue.create (); deficit = 0; backlog = 0 } in
              Hashtbl.add flows flow s;
              s
        in
        if Queue.is_empty state.queue then begin
          (* Flow becomes active: join the round-robin ring. *)
          state.deficit <- 0;
          Queue.add flow active
        end;
        Queue.add item state.queue;
        state.backlog <- state.backlog + bytes);
    true
  end

let rec fq_dequeue t flows active quantum =
  match Queue.take_opt active with
  | None -> None
  | Some flow -> (
      let state = Hashtbl.find flows flow in
      match Queue.peek_opt state.queue with
      | None -> fq_dequeue t flows active quantum
      | Some item ->
          let bytes = t.size item in
          if state.deficit >= bytes then begin
            ignore (Queue.take state.queue);
            state.deficit <- state.deficit - bytes;
            state.backlog <- state.backlog - bytes;
            if not (Queue.is_empty state.queue) then
              (* Still backlogged: return to the ring with remaining deficit. *)
              Queue.add flow active
            else state.deficit <- 0;
            Some (flow, item)
          end
          else begin
            (* Grant a quantum and move to the back of the ring. *)
            state.deficit <- state.deficit + quantum;
            Queue.add flow active;
            fq_dequeue t flows active quantum
          end)

let dequeue t =
  let result =
    match t.scheme with
    | Fifo q -> Queue.take_opt q
    | Fq { flows; active; quantum } -> fq_dequeue t flows active quantum
  in
  (match result with
  | None -> ()
  | Some (flow, item) ->
      let bytes = t.size item in
      t.total_backlog <- t.total_backlog - bytes;
      add_flow_bytes t flow (-bytes));
  result

let backlog_bytes t = t.total_backlog

let limit_bytes t = t.limit_bytes

let set_limit_bytes t limit =
  if limit < 0 then invalid_arg "Qdisc.set_limit_bytes: negative limit";
  (* Already-queued items are not dropped: like a runtime `tc change`, the
     new limit gates admissions only. *)
  t.limit_bytes <- limit
let flow_backlog t ~flow = Option.value ~default:0 (Hashtbl.find_opt t.per_flow flow)
let drops t = t.drops
