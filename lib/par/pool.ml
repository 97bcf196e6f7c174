(* Hand-rolled Domain work pool, dependency-free.

   Batches are index-claimed: each participating domain repeatedly takes
   the next unclaimed input index from an atomic counter and writes the
   result into that slot, so output order never depends on scheduling.
   The calling domain always participates in its own batch, which means a
   nested [map] issued from inside a task still completes even when every
   worker is busy — the inner caller just does the work itself. *)

type t = {
  domains : int;
  queue : (unit -> unit) Queue.t;
  mu : Mutex.t;
  nonempty : Condition.t;
  mutable alive : bool;
  mutable workers : unit Domain.t list;
}

let domains t = t.domains

let rec worker_loop pool =
  Mutex.lock pool.mu;
  let rec next () =
    if not (Queue.is_empty pool.queue) then Some (Queue.pop pool.queue)
    else if pool.alive then begin
      Condition.wait pool.nonempty pool.mu;
      next ()
    end
    else None
  in
  match next () with
  | None -> Mutex.unlock pool.mu
  | Some task ->
      Mutex.unlock pool.mu;
      task ();
      worker_loop pool

let make_pool domains =
  {
    domains;
    queue = Queue.create ();
    mu = Mutex.create ();
    nonempty = Condition.create ();
    alive = true;
    workers = [];
  }

let sequential = { (make_pool 1) with alive = false }

let create ?domains () =
  let domains =
    match domains with
    | Some d -> if d < 1 then invalid_arg "Pool.create: domains must be >= 1" else d
    | None -> Domain.recommended_domain_count ()
  in
  let pool = make_pool domains in
  pool.workers <-
    List.init (domains - 1) (fun _ -> Domain.spawn (fun () -> worker_loop pool));
  pool

let shutdown pool =
  Mutex.lock pool.mu;
  let workers = pool.workers in
  pool.alive <- false;
  pool.workers <- [];
  Condition.broadcast pool.nonempty;
  Mutex.unlock pool.mu;
  List.iter Domain.join workers

let with_pool ?domains f =
  let pool = create ?domains () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

let map ?on_done pool f input =
  let n = Array.length input in
  let helpers = match pool.workers with [] -> 0 | ws -> min (List.length ws) (n - 1) in
  if n = 0 then [||]
  else if helpers = 0 then begin
    match on_done with
    | None -> Array.map f input
    | Some cb ->
        (* Explicit loop: Array.init's evaluation order is unspecified, and
           the callback contract is strict index order. *)
        let results = Array.make n None in
        for i = 0 to n - 1 do
          let r = f input.(i) in
          results.(i) <- Some r;
          cb i r
        done;
        Array.map (function Some v -> v | None -> assert false) results
  end
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let pending = Atomic.make n in
    let done_mu = Mutex.create () in
    let done_cond = Condition.create () in
    (* Completion callbacks fire under [cb_mu] in strictly increasing index
       order: whichever domain finishes a task drains the contiguous prefix
       of ready results past [next_cb].  A slot that raised (or a callback
       that raised) permanently blocks later callbacks — deterministic,
       since the flush order itself is index order.  Every finishing task
       locks [cb_mu] after publishing its slot, so the mutex also gives the
       flushing domain visibility of the slots it reads. *)
    let cb_mu = Mutex.create () in
    let next_cb = ref 0 in
    let cb_err = ref None in
    let flush_callbacks cb =
          Mutex.lock cb_mu;
          let continue_ = ref (!cb_err = None) in
          while !continue_ && !next_cb < n do
            match results.(!next_cb) with
            | Some (Ok v) ->
                let i = !next_cb in
                incr next_cb;
                (try cb i v
                 with e ->
                   cb_err := Some (e, Printexc.get_raw_backtrace ());
                   continue_ := false)
            | Some (Error _) | None -> continue_ := false
          done;
          Mutex.unlock cb_mu
    in
    let flush_callbacks () =
      match on_done with None -> () | Some cb -> flush_callbacks cb
    in
    let rec claim () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let r =
          try Ok (f input.(i)) with e -> Error (e, Printexc.get_raw_backtrace ())
        in
        results.(i) <- Some r;
        flush_callbacks ();
        (* Last task out signals the (possibly already waiting) caller. *)
        if Atomic.fetch_and_add pending (-1) = 1 then begin
          Mutex.lock done_mu;
          Condition.broadcast done_cond;
          Mutex.unlock done_mu
        end;
        claim ()
      end
    in
    Mutex.lock pool.mu;
    for _ = 1 to helpers do Queue.push claim pool.queue done;
    Condition.broadcast pool.nonempty;
    Mutex.unlock pool.mu;
    claim ();
    Mutex.lock done_mu;
    while Atomic.get pending > 0 do
      Condition.wait done_cond done_mu
    done;
    Mutex.unlock done_mu;
    flush_callbacks ();
    (* Scanning in index order makes the re-raised error deterministic; a
       task error outranks a callback error at a higher index. *)
    let out =
      Array.map
        (function
          | Some (Ok v) -> v
          | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
          | None -> assert false)
        results
    in
    (match !cb_err with Some (e, bt) -> Printexc.raise_with_backtrace e bt | None -> ());
    out
  end

let map_list pool f l = Array.to_list (map pool f (Array.of_list l))
