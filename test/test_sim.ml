(* Tests for stob_sim: event queue ordering, engine semantics, CPU model,
   link model. *)

module Event_queue = Stob_sim.Event_queue
module Engine = Stob_sim.Engine
module Cpu = Stob_sim.Cpu
module Link = Stob_sim.Link

let check_float = Alcotest.(check (float 1e-12))

(* --- Event_queue --- *)

let test_eq_ordering () =
  let q = Event_queue.create () in
  Event_queue.push q ~time:3.0 "c";
  Event_queue.push q ~time:1.0 "a";
  Event_queue.push q ~time:2.0 "b";
  Alcotest.(check (option (pair (float 0.0) string))) "pop a" (Some (1.0, "a")) (Event_queue.pop q);
  Alcotest.(check (option (pair (float 0.0) string))) "pop b" (Some (2.0, "b")) (Event_queue.pop q);
  Alcotest.(check (option (pair (float 0.0) string))) "pop c" (Some (3.0, "c")) (Event_queue.pop q);
  Alcotest.(check (option (pair (float 0.0) string))) "empty" None (Event_queue.pop q)

let test_eq_fifo_ties () =
  let q = Event_queue.create () in
  Event_queue.push q ~time:1.0 "first";
  Event_queue.push q ~time:1.0 "second";
  Event_queue.push q ~time:1.0 "third";
  let order = List.init 3 (fun _ -> snd (Option.get (Event_queue.pop q))) in
  Alcotest.(check (list string)) "fifo ties" [ "first"; "second"; "third" ] order

let test_eq_size () =
  let q = Event_queue.create () in
  Alcotest.(check bool) "empty" true (Event_queue.is_empty q);
  for i = 1 to 100 do
    Event_queue.push q ~time:(float_of_int (100 - i)) i
  done;
  Alcotest.(check int) "size" 100 (Event_queue.size q);
  ignore (Event_queue.pop q);
  Alcotest.(check int) "size after pop" 99 (Event_queue.size q)

let prop_eq_sorted_output =
  QCheck.Test.make ~name:"event queue pops in time order" ~count:200
    QCheck.(list (float_range 0.0 1000.0))
    (fun times ->
      let q = Event_queue.create () in
      List.iter (fun t -> Event_queue.push q ~time:t ()) times;
      let rec drain last =
        match Event_queue.pop q with
        | None -> true
        | Some (t, ()) -> t >= last && drain t
      in
      drain neg_infinity)

(* --- Engine --- *)

let test_engine_runs_in_order () =
  let engine = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule engine ~delay:2.0 (fun () -> log := "b" :: !log));
  ignore (Engine.schedule engine ~delay:1.0 (fun () -> log := "a" :: !log));
  ignore (Engine.schedule engine ~delay:3.0 (fun () -> log := "c" :: !log));
  Engine.run engine;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !log);
  check_float "clock at last event" 3.0 (Engine.now engine)

let test_engine_nested_scheduling () =
  let engine = Engine.create () in
  let fired = ref 0.0 in
  ignore
    (Engine.schedule engine ~delay:1.0 (fun () ->
         ignore (Engine.schedule engine ~delay:0.5 (fun () -> fired := Engine.now engine))));
  Engine.run engine;
  check_float "nested time" 1.5 !fired

let test_engine_cancel () =
  let engine = Engine.create () in
  let fired = ref false in
  let ev = Engine.schedule engine ~delay:1.0 (fun () -> fired := true) in
  Engine.cancel engine ev;
  Engine.run engine;
  Alcotest.(check bool) "cancelled event did not fire" false !fired;
  Alcotest.(check int) "no pending" 0 (Engine.pending engine)

(* Cancelling an event that already ran is a no-op: [pending] must keep
   counting the event still queued. *)
let test_engine_cancel_fired queue () =
  let engine = Engine.create ~queue () in
  let fired = ref 0 in
  let first = Engine.schedule_at engine ~time:1.0 (fun () -> incr fired) in
  ignore (Engine.schedule_at engine ~time:5.0 (fun () -> incr fired));
  Engine.run ~until:2.0 engine;
  Alcotest.(check int) "one pending after the first fired" 1 (Engine.pending engine);
  Engine.cancel engine first;
  Alcotest.(check int) "cancelling a fired event is a no-op" 1 (Engine.pending engine);
  Engine.run engine;
  Alcotest.(check int) "both fired" 2 !fired;
  Alcotest.(check int) "drained" 0 (Engine.pending engine)

(* A fired event's queue node goes back to the pool and the next schedule
   takes it; the stale handle must not disarm the new event. *)
let test_engine_stale_handle queue () =
  let engine = Engine.create ~queue () in
  let log = ref [] in
  let first = Engine.schedule_at engine ~time:1.0 (fun () -> log := "first" :: !log) in
  Engine.run ~until:2.0 engine;
  ignore (Engine.schedule_at engine ~time:3.0 (fun () -> log := "second" :: !log));
  Engine.cancel engine first;
  Engine.cancel engine first;
  Alcotest.(check int) "still pending" 1 (Engine.pending engine);
  Engine.run engine;
  Alcotest.(check (list string)) "the new event fired" [ "first"; "second" ] (List.rev !log)

let test_engine_run_until () =
  let engine = Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore (Engine.schedule engine ~delay:(float_of_int i) (fun () -> incr count))
  done;
  Engine.run ~until:5.5 engine;
  Alcotest.(check int) "five fired" 5 !count;
  check_float "clock clamped to until" 5.5 (Engine.now engine);
  Engine.run engine;
  Alcotest.(check int) "rest fired" 10 !count

let test_engine_negative_delay_clamped () =
  let engine = Engine.create () in
  let at = ref (-1.0) in
  ignore
    (Engine.schedule engine ~delay:1.0 (fun () ->
         ignore (Engine.schedule engine ~delay:(-5.0) (fun () -> at := Engine.now engine))));
  Engine.run engine;
  check_float "clamped to now" 1.0 !at

let test_engine_same_time_fifo () =
  let engine = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule engine ~delay:1.0 (fun () -> log := 1 :: !log));
  ignore (Engine.schedule engine ~delay:1.0 (fun () -> log := 2 :: !log));
  Engine.run engine;
  Alcotest.(check (list int)) "fifo" [ 1; 2 ] (List.rev !log)

(* --- Lines --- *)

let test_line_pending queue () =
  let engine = Engine.create ~queue () in
  let log = ref [] in
  let line = Engine.line engine ~delay:1.0 (fun v -> log := v :: !log) in
  Engine.push line "a";
  Engine.push line "b";
  ignore (Engine.schedule engine ~delay:1.0 (fun () -> log := "timer" :: !log));
  Engine.push line "c";
  Alcotest.(check int) "three values and one event pending" 4 (Engine.pending engine);
  let pending = List.init 4 (fun _ -> ignore (Engine.step engine); Engine.pending engine) in
  Alcotest.(check (list int)) "one fewer after each delivery" [ 3; 2; 1; 0 ] pending;
  Alcotest.(check (list string)) "push order, ties by push time" [ "a"; "b"; "timer"; "c" ]
    (List.rev !log);
  Alcotest.(check int) "one event per delivery" 4 (Engine.events_processed engine);
  Alcotest.(check bool) "drained" false (Engine.step engine)

(* Random programs of ordinary schedules (some cancelled, some made from
   inside callbacks) and pushes onto three lines, with dyadic delays so
   that due times tie exactly.  A line push must fire exactly where the
   heap engine's ordinary schedule fires it. *)
type line_op =
  | Schedule of float * line_op list
  | Cancel of int
  | Push of int * line_op list

let line_delays = [| 0.0; 0.25; 0.5; 1.0 |]

let gen_line_program =
  let open QCheck.Gen in
  let delay = map (fun i -> line_delays.(i)) (int_bound 3) in
  let op =
    fix (fun self depth ->
        let children = if depth = 0 then return [] else list_size (int_bound 3) (self (depth - 1)) in
        frequency
          [ (4, map2 (fun d c -> Schedule (d, c)) delay children);
            (2, map (fun k -> Cancel k) nat);
            (5, map2 (fun l c -> Push (l, c)) (int_bound 2) children) ])
  in
  pair (array_size (return 3) delay) (list_size (int_range 0 25) (op 2))

let rec print_line_op = function
  | Schedule (d, c) -> Printf.sprintf "sched(%g)[%s]" d (print_line_ops c)
  | Cancel k -> Printf.sprintf "cancel(%d)" k
  | Push (l, c) -> Printf.sprintf "push(%d)[%s]" l (print_line_ops c)

and print_line_ops ops = String.concat " " (List.map print_line_op ops)

(* The firing log (label and exact time of every callback), with
   [pending] after every step and [events_processed] at the end. *)
let run_line_program queue (delays, ops) =
  let engine = Engine.create ~queue () in
  let log = Buffer.create 1024 in
  let labels = ref 0 in
  let handles = ref [] and n_handles = ref 0 in
  let lines = ref [||] in
  let rec exec ops =
    List.iter
      (fun op ->
        incr labels;
        let label = !labels in
        let fire () =
          Buffer.add_string log (Printf.sprintf "%d@%h " label (Engine.now engine))
        in
        match op with
        | Schedule (delay, children) ->
            handles :=
              Engine.schedule engine ~delay (fun () ->
                  fire ();
                  exec children)
              :: !handles;
            incr n_handles
        | Cancel k ->
            if !n_handles > 0 then Engine.cancel engine (List.nth !handles (k mod !n_handles))
        | Push (l, children) ->
            Engine.push !lines.(l) (fun () ->
                fire ();
                exec children))
      ops
  in
  lines := Array.map (fun delay -> Engine.line engine ~delay (fun deliver -> deliver ())) delays;
  exec ops;
  while Engine.step engine do
    Buffer.add_string log (Printf.sprintf "p%d " (Engine.pending engine))
  done;
  Buffer.add_string log (Printf.sprintf "events=%d" (Engine.events_processed engine));
  Buffer.contents log

let prop_line_order =
  QCheck.Test.make ~name:"line pushes fire in schedule order (wheel == heap)" ~count:300
    (QCheck.make
       ~print:(fun (delays, ops) ->
         Printf.sprintf "delays %s: %s"
           (String.concat "," (Array.to_list (Array.map string_of_float delays)))
           (print_line_ops ops))
       gen_line_program)
    (fun program ->
      String.equal
        (run_line_program Event_queue.Heap program)
        (run_line_program Event_queue.Wheel program))

(* --- Cpu --- *)

let test_cpu_serializes_work () =
  let engine = Engine.create () in
  let cpu = Cpu.create engine in
  let finish_times = ref [] in
  Cpu.submit cpu ~cost:1.0 (fun () -> finish_times := Engine.now engine :: !finish_times);
  Cpu.submit cpu ~cost:2.0 (fun () -> finish_times := Engine.now engine :: !finish_times);
  Engine.run engine;
  Alcotest.(check (list (float 1e-12))) "work is serial" [ 1.0; 3.0 ] (List.rev !finish_times)

let test_cpu_idle_gap () =
  let engine = Engine.create () in
  let cpu = Cpu.create engine in
  let t2 = ref 0.0 in
  Cpu.submit cpu ~cost:0.5 (fun () -> ());
  (* Submit the second item at t=10, after the core idled. *)
  ignore
    (Engine.schedule engine ~delay:10.0 (fun () ->
         Cpu.submit cpu ~cost:0.5 (fun () -> t2 := Engine.now engine)));
  Engine.run engine;
  check_float "starts when submitted" 10.5 !t2;
  check_float "busy time counts only work" 1.0 (Cpu.busy_time cpu)

let test_cpu_utilization () =
  let engine = Engine.create () in
  let cpu = Cpu.create engine in
  Cpu.submit cpu ~cost:2.0 (fun () -> ());
  ignore (Engine.schedule engine ~delay:4.0 (fun () -> ()));
  Engine.run engine;
  check_float "utilization" 0.5 (Cpu.utilization cpu)

(* --- Link --- *)

let test_link_serialization_delay () =
  let engine = Engine.create () in
  let arrived = ref [] in
  let link =
    Link.create engine ~rate_bps:8000.0 ~delay:0.1 ~size:(fun b -> b)
      ~deliver:(fun b -> arrived := (Engine.now engine, b) :: !arrived)
      ()
  in
  (* 1000 bytes at 8000 bps = 1 s serialization + 0.1 s propagation. *)
  ignore (Link.send link 1000);
  Engine.run engine;
  Alcotest.(check (list (pair (float 1e-9) int))) "arrival" [ (1.1, 1000) ] !arrived

let test_link_back_to_back () =
  let engine = Engine.create () in
  let arrived = ref [] in
  let link =
    Link.create engine ~rate_bps:8000.0 ~delay:0.0 ~size:(fun b -> b)
      ~deliver:(fun b -> arrived := (Engine.now engine, b) :: !arrived)
      ()
  in
  ignore (Link.send link 1000);
  ignore (Link.send link 1000);
  Engine.run engine;
  Alcotest.(check (list (pair (float 1e-9) int)))
    "sequential serialization"
    [ (1.0, 1000); (2.0, 1000) ]
    (List.rev !arrived)

let test_link_queue_drop () =
  let engine = Engine.create () in
  let link =
    Link.create engine ~rate_bps:8.0 ~delay:0.0 ~queue_capacity:100 ~size:(fun b -> b)
      ~deliver:(fun _ -> ())
      ()
  in
  Alcotest.(check bool) "first goes to wire" true (Link.send link 100);
  Alcotest.(check bool) "second queues" true (Link.send link 100);
  Alcotest.(check bool) "third dropped" false (Link.send link 100);
  Alcotest.(check int) "drop counted" 1 (Link.drops link)

let test_link_tap_and_counters () =
  let engine = Engine.create () in
  let tapped = ref 0 in
  let link =
    Link.create engine ~rate_bps:1e6 ~delay:0.0 ~size:(fun b -> b) ~deliver:(fun _ -> ()) ()
  in
  Link.set_tap link (fun ~time:_ _ -> incr tapped);
  ignore (Link.send link 500);
  ignore (Link.send link 300);
  Engine.run engine;
  Alcotest.(check int) "tap saw both" 2 !tapped;
  Alcotest.(check int) "frames" 2 (Link.frames_sent link);
  Alcotest.(check int) "bytes" 800 (Link.bytes_sent link)

let test_link_on_idle () =
  let engine = Engine.create () in
  let idle_at = ref [] in
  let link =
    Link.create engine ~rate_bps:8000.0 ~delay:0.0 ~size:(fun b -> b) ~deliver:(fun _ -> ()) ()
  in
  Link.set_on_idle link (fun () -> idle_at := Engine.now engine :: !idle_at);
  ignore (Link.send link 1000);
  ignore (Link.send link 1000);
  Engine.run engine;
  (* Idle fires only once, after both queued frames are done. *)
  Alcotest.(check (list (float 1e-9))) "idle once at end" [ 2.0 ] !idle_at

let test_link_preserves_order () =
  let engine = Engine.create () in
  let arrived = ref [] in
  let link =
    Link.create engine ~rate_bps:1e9 ~delay:0.01 ~size:(fun _ -> 100)
      ~deliver:(fun x -> arrived := x :: !arrived)
      ()
  in
  for i = 1 to 50 do
    ignore (Link.send link i)
  done;
  Engine.run engine;
  Alcotest.(check (list int)) "fifo delivery" (List.init 50 (fun i -> i + 1)) (List.rev !arrived)

(* Tie pin for the propagation order.  Frame 1 finishes serialization at
   t = 1 s and is due at the far end at t = 2 s; frame 2 starts
   serializing at that same t = 1 s, and its tap arms a timer 1 s out,
   also due at t = 2 s.  The delivery was scheduled first, so it fires
   first.  A link that queued the delivery only after starting the next
   frame would let the timer win the tie. *)
let test_link_delivery_before_tap_timer queue () =
  let engine = Engine.create ~queue () in
  let log = ref [] in
  let note what = log := Printf.sprintf "%s@%g" what (Engine.now engine) :: !log in
  let link =
    Link.create engine ~rate_bps:8000.0 ~delay:1.0 ~size:(fun _ -> 1000)
      ~deliver:(fun frame -> note (Printf.sprintf "deliver-%d" frame))
      ()
  in
  Link.set_tap link (fun ~time:_ frame ->
      if frame = 2 then ignore (Engine.schedule engine ~delay:1.0 (fun () -> note "timer")));
  ignore (Link.send link 1);
  ignore (Link.send link 2);
  Engine.run engine;
  Alcotest.(check (list string))
    "the delivery fires before the same-instant timer"
    [ "deliver-1@2"; "timer@2"; "deliver-2@3" ]
    (List.rev !log)

(* Allocation gate, in the style of trace.alloc: heap words per frame for
   back-to-back frames through a link with a 25 us delay and no tap, on
   the wheel, measured on a second burst once the queue's node pool and
   the line's ring have grown.  The frame's serialization event and its
   Queue cell remain; propagation adds one event per delivery and nothing
   per push. *)
let link_alloc_bound = 24.0

let test_link_alloc () =
  List.iter
    (fun n ->
      let engine = Engine.create ~queue:Event_queue.Wheel () in
      let delivered = ref 0 in
      let link =
        Link.create engine ~rate_bps:100e9 ~delay:25e-6 ~size:(fun _ -> 1500)
          ~deliver:(fun _ -> incr delivered)
          ()
      in
      let burst () =
        for i = 1 to n do
          ignore (Link.send link i)
        done;
        Engine.run engine
      in
      burst ();
      let words = Test_net.words_allocated burst /. float_of_int n in
      Alcotest.(check int) "every frame delivered" (2 * n) !delivered;
      Alcotest.(check bool)
        (Printf.sprintf "%d frames: %.1f words per frame <= %.0f" n words link_alloc_bound)
        true (words <= link_alloc_bound))
    [ 1_000; 10_000 ]

(* --- Netem --- *)

module Netem = Stob_sim.Netem

(* Feed [frames] through a netem with [cfg] (all at t = 0 — jitter-free
   dispatch is synchronous), then run the engine to flush any held frames;
   returns deliveries in order plus stats. *)
let netem_run ?drop_filter cfg frames =
  let engine = Engine.create () in
  let out = ref [] in
  let n = Netem.of_spec ~engine ~deliver:(fun x -> out := x :: !out) (Netem.spec ?drop_filter cfg) in
  List.iter (fun f -> Netem.feed n f) frames;
  Engine.run engine;
  (List.rev !out, Netem.stats n)

let test_netem_identity () =
  let input = List.init 50 (fun i -> i) in
  let delivered, stats = netem_run Netem.default input in
  Alcotest.(check (list int)) "default config is the identity" input delivered;
  Alcotest.(check int) "no losses" 0 stats.Netem.lost;
  Alcotest.(check int) "all delivered" 50 stats.Netem.delivered

let test_netem_iid_loss_deterministic () =
  let input = List.init 2000 (fun i -> i) in
  let cfg = { Netem.default with Netem.loss = Netem.Iid 0.1; seed = 7 } in
  let d1, s1 = netem_run cfg input in
  let d2, s2 = netem_run cfg input in
  Alcotest.(check bool) "same seed, same deliveries" true (d1 = d2);
  Alcotest.(check bool) "same seed, same stats" true (s1 = s2);
  let loss_rate = float_of_int s1.Netem.lost /. 2000.0 in
  Alcotest.(check bool)
    (Printf.sprintf "loss rate near 10%% (%.3f)" loss_rate)
    true
    (loss_rate > 0.05 && loss_rate < 0.15);
  let _, s3 = netem_run { cfg with Netem.seed = 8 } input in
  Alcotest.(check bool) "different seed, different stream" true (s1.Netem.lost <> s3.Netem.lost)

let test_netem_drop_list () =
  (* Drop the 2nd and 4th even frame; odd frames don't count. *)
  let cfg = { Netem.default with Netem.drop_list = [ 2; 4 ] } in
  let input = List.init 12 (fun i -> i) in
  let delivered, stats =
    netem_run ~drop_filter:(fun x -> x mod 2 = 0) cfg input
  in
  Alcotest.(check (list int)) "2nd and 4th even frames dropped"
    (List.filter (fun x -> x <> 2 && x <> 6) input)
    delivered;
  Alcotest.(check int) "two losses" 2 stats.Netem.lost

let test_netem_duplication () =
  let cfg = { Netem.default with Netem.duplicate_prob = 1.0 } in
  let delivered, stats = netem_run cfg [ 1; 2; 3 ] in
  Alcotest.(check (list int)) "every frame twice" [ 1; 1; 2; 2; 3; 3 ] delivered;
  Alcotest.(check int) "duplicates counted" 3 stats.Netem.duplicated

let test_netem_reorder () =
  let cfg =
    { Netem.default with Netem.reorder_prob = 0.3; reorder_depth = 2; reorder_hold = 1.0; seed = 3 }
  in
  let input = List.init 40 (fun i -> i) in
  let delivered, stats = netem_run cfg input in
  Alcotest.(check (list int)) "no frame lost or duplicated" input (List.sort compare delivered);
  Alcotest.(check bool) "some frames reordered" true (stats.Netem.reordered > 0);
  Alcotest.(check bool) "delivery order actually perturbed" true (delivered <> input)

let test_netem_reorder_flush () =
  (* Hold probability 1: nothing ever passes to age the buffer, so the
     flush timer must deliver every frame (a held FIN cannot deadlock). *)
  let cfg =
    { Netem.default with Netem.reorder_prob = 1.0; reorder_depth = 3; reorder_hold = 0.5 }
  in
  let engine = Engine.create () in
  let out = ref [] in
  let n = Netem.of_spec ~engine ~deliver:(fun x -> out := x :: !out) (Netem.spec cfg) in
  Netem.feed n "fin";
  Alcotest.(check int) "held" 1 (Netem.held n);
  Engine.run engine;
  Alcotest.(check (list string)) "flushed after hold timeout" [ "fin" ] !out;
  Alcotest.(check int) "buffer empty" 0 (Netem.held n);
  check_float "flush time" 0.5 (Engine.now engine)

let test_netem_gilbert_elliott_bursts () =
  let cfg =
    {
      Netem.default with
      Netem.loss =
        Netem.Gilbert_elliott { p_gb = 0.02; p_bg = 0.3; loss_good = 0.0; loss_bad = 1.0 };
      seed = 11;
    }
  in
  let input = List.init 3000 (fun i -> i) in
  let delivered, stats = netem_run cfg input in
  Alcotest.(check bool) "bursty channel loses frames" true (stats.Netem.lost > 0);
  (* Consecutive losses: a gap of >= 2 in the delivered sequence. *)
  let rec has_burst = function
    | a :: (b :: _ as rest) -> b - a > 2 || has_burst rest
    | _ -> false
  in
  Alcotest.(check bool) "losses come in bursts" true (has_burst delivered)

let test_netem_jitter_delays () =
  let cfg = { Netem.default with Netem.jitter = 0.2; seed = 5 } in
  let engine = Engine.create () in
  let times = ref [] in
  let n = Netem.of_spec ~engine ~deliver:(fun _ -> times := Engine.now engine :: !times) (Netem.spec cfg) in
  for i = 1 to 20 do
    Netem.feed n i
  done;
  Engine.run engine;
  Alcotest.(check int) "all delivered" 20 (List.length !times);
  Alcotest.(check bool) "jitter spread deliveries" true
    (List.exists (fun t -> t > 0.0) !times && List.exists (fun t -> t < 0.2) !times)

let test_netem_validate () =
  let raises cfg =
    match Netem.spec cfg with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "loss > 1 rejected" true (raises { Netem.default with Netem.loss = Netem.Iid 1.5 });
  Alcotest.(check bool) "negative jitter rejected" true (raises { Netem.default with Netem.jitter = -0.1 });
  Alcotest.(check bool) "reorder without depth rejected" true
    (raises { Netem.default with Netem.reorder_prob = 0.5; reorder_depth = 0 });
  Alcotest.(check bool) "zero drop ordinal rejected" true
    (raises { Netem.default with Netem.drop_list = [ 0 ] });
  Alcotest.(check bool) "default valid" false (raises Netem.default)

let prop_netem_conserves_frames =
  QCheck.Test.make ~name:"netem never invents or leaks frames (loss+reorder+dup)" ~count:50
    QCheck.(
      quad (int_range 0 1000000) (float_range 0.0 0.3) (float_range 0.0 0.5) (float_range 0.0 0.3))
    (fun (seed, loss, reorder_prob, duplicate_prob) ->
      let cfg =
        {
          Netem.default with
          Netem.loss = Netem.Iid loss;
          reorder_prob;
          reorder_depth = 3;
          reorder_hold = 0.2;
          duplicate_prob;
          seed;
        }
      in
      let input = List.init 300 (fun i -> i) in
      let delivered, stats = netem_run cfg input in
      let uniq = List.sort_uniq compare delivered in
      (* Every input frame is either delivered (>= once when duplicated) or
         counted lost; nothing is held forever. *)
      List.length uniq = 300 - stats.Netem.lost
      && stats.Netem.delivered = List.length delivered
      && List.length delivered = 300 - stats.Netem.lost + stats.Netem.duplicated)

(* --- Engine robustness: same-instant budget and probe ------------------- *)

let expect_invalid_arg name f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail (name ^ ": expected Invalid_argument")

(* A NaN time compares false against everything: the heap fired it last
   with the clock running backwards before it, the wheel first with the
   clock becoming NaN.  It is rejected, and the rest runs in order. *)
let test_engine_rejects_nan queue () =
  let engine = Engine.create ~queue () in
  let log = ref [] in
  let at name delay =
    ignore
      (Engine.schedule engine ~delay (fun () ->
           log := Printf.sprintf "%s@%g" name (Engine.now engine) :: !log))
  in
  at "a" 0.3;
  expect_invalid_arg "NaN delay" (fun () -> at "nan" Float.nan);
  at "b" 0.1;
  at "c" 0.2;
  at "d" 0.05;
  expect_invalid_arg "NaN time" (fun () -> Engine.schedule_at engine ~time:Float.nan ignore);
  expect_invalid_arg "NaN CPU cost" (fun () ->
      Stob_sim.Cpu.submit (Stob_sim.Cpu.create engine) ~cost:Float.nan ignore);
  expect_invalid_arg "NaN line delay" (fun () -> Engine.line engine ~delay:Float.nan ignore);
  expect_invalid_arg "negative line delay" (fun () -> Engine.line engine ~delay:(-1.0) ignore);
  Alcotest.(check int) "only the valid events queued" 4 (Engine.pending engine);
  Engine.run engine;
  Alcotest.(check (list string)) "time order" [ "d@0.05"; "b@0.1"; "c@0.2"; "a@0.3" ]
    (List.rev !log)

(* A callback rescheduling itself with zero delay must become a structured
   Livelock at the stuck instant, not a hang. *)
let test_engine_livelock_detected () =
  let engine = Engine.create () in
  Engine.set_same_instant_budget engine 64;
  let ran = ref 0 in
  let rec respawn () =
    incr ran;
    ignore (Engine.schedule engine ~delay:0.0 respawn)
  in
  ignore (Engine.schedule engine ~delay:1.0 respawn);
  (match Engine.run engine with
  | () -> Alcotest.fail "livelock not detected"
  | exception Engine.Livelock { time; events } ->
      check_float "stuck at the livelocked instant" 1.0 time;
      Alcotest.(check bool) "budget consumed" true (events >= 64));
  Alcotest.(check bool) "callbacks did run up to the budget" true (!ran >= 64)

(* The event that trips the budget has left the queue, so it no longer
   counts: after the raise nothing is pending and [step] finds nothing to
   run.  Both a zero-delay line that pushes onto itself and a callback
   that reschedules itself. *)
let test_engine_livelock_pending impl () =
  let expect_livelock what engine =
    (match Engine.run engine with
    | () -> Alcotest.failf "%s: livelock not detected" what
    | exception Engine.Livelock _ -> ());
    Alcotest.(check int) (what ^ ": nothing pending") 0 (Engine.pending engine);
    Alcotest.(check bool) (what ^ ": step finds nothing") false (Engine.step engine)
  in
  let engine = Engine.create ~queue:impl () in
  Engine.set_same_instant_budget engine 3;
  let again = ref ignore in
  let line = Engine.line engine ~delay:0.0 (fun () -> !again ()) in
  (again := fun () -> Engine.push line ());
  Engine.push line ();
  expect_livelock "self-feeding line" engine;
  let engine = Engine.create ~queue:impl () in
  Engine.set_same_instant_budget engine 3;
  let rec respawn () = ignore (Engine.schedule engine ~delay:0.0 respawn) in
  ignore (Engine.schedule engine ~delay:0.0 respawn);
  expect_livelock "self-rescheduling callback" engine

(* The budget counts consecutive same-instant events only: any clock
   advance resets it, and bursts below the budget pass untouched. *)
let test_engine_budget_resets_on_advance () =
  let engine = Engine.create () in
  Engine.set_same_instant_budget engine 8;
  let count = ref 0 in
  let rec tick i () =
    incr count;
    if i < 100 then ignore (Engine.schedule engine ~delay:1e-6 (tick (i + 1)))
  in
  ignore (Engine.schedule engine ~delay:0.0 (tick 1));
  for _ = 1 to 5 do
    ignore (Engine.schedule engine ~delay:2.0 (fun () -> incr count))
  done;
  Engine.run engine;
  Alcotest.(check int) "all events ran without a false livelock" 105 !count

let test_engine_budget_validate () =
  let engine = Engine.create () in
  expect_invalid_arg "zero budget" (fun () -> Engine.set_same_instant_budget engine 0);
  Engine.set_same_instant_budget engine 42;
  Alcotest.(check int) "budget readable" 42 (Engine.same_instant_budget engine);
  Alcotest.(check bool) "default is large" true (Engine.default_same_instant_budget >= 100_000)

let test_engine_probe () =
  let engine = Engine.create () in
  let seen = ref [] in
  Engine.set_probe engine (fun ~now -> seen := now :: !seen);
  ignore (Engine.schedule engine ~delay:1.0 (fun () -> ()));
  ignore (Engine.schedule engine ~delay:2.0 (fun () -> ()));
  Engine.run engine;
  Alcotest.(check (list (float 1e-12))) "probe fires after every event" [ 1.0; 2.0 ]
    (List.rev !seen);
  Engine.clear_probe engine;
  ignore (Engine.schedule engine ~delay:3.0 (fun () -> ()));
  Engine.run engine;
  Alcotest.(check int) "cleared probe is silent" 2 (List.length !seen)

(* --- Fault injector ----------------------------------------------------- *)

module Fault = Stob_sim.Fault

let fault_cfg ?(events = 2) ?(horizon = 5.0) ~seed kinds =
  { Fault.kinds; events_per_kind = events; horizon; seed }

let test_fault_plan_deterministic () =
  let cfg = fault_cfg ~events:3 ~seed:7 Fault.all_kinds in
  let p1 = Fault.plan cfg and p2 = Fault.plan cfg in
  Alcotest.(check bool) "same seed, same plan" true (p1 = p2);
  Alcotest.(check int) "events per kind honoured"
    (3 * List.length Fault.all_kinds)
    (List.length p1);
  let rec sorted = function
    | a :: (b :: _ as rest) -> a.Fault.at <= b.Fault.at && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted by activation time" true (sorted p1);
  Alcotest.(check bool) "different seed, different plan" true
    (p1 <> Fault.plan (fault_cfg ~events:3 ~seed:8 Fault.all_kinds))

(* The pre-split rule: a kind's draws must not depend on which other kinds
   are enabled. *)
let test_fault_plan_subset_stable () =
  let pacer_of = List.filter (fun e -> e.Fault.kind = Fault.Pacer_jump) in
  let all = Fault.plan (fault_cfg ~seed:11 Fault.all_kinds) in
  let only = Fault.plan (fault_cfg ~seed:11 [ Fault.Pacer_jump ]) in
  Alcotest.(check bool) "pacer draws independent of other kinds" true (pacer_of all = only)

let test_fault_plan_validate () =
  expect_invalid_arg "negative event count" (fun () ->
      Fault.plan (fault_cfg ~events:(-1) ~seed:0 []));
  expect_invalid_arg "non-positive horizon" (fun () ->
      Fault.plan (fault_cfg ~horizon:0.0 ~seed:0 []))

let test_fault_kind_names () =
  List.iter
    (fun k ->
      Alcotest.(check bool) (Fault.kind_name k) true (Fault.kind_of_name (Fault.kind_name k) = k))
    Fault.all_kinds;
  expect_invalid_arg "unknown kind name" (fun () -> Fault.kind_of_name "meteor-strike")

let test_fault_arm_schedules () =
  let engine = Engine.create () in
  let log = ref [] in
  let record tag e = log := Printf.sprintf "%s:%s@%g" tag (Fault.kind_name e.Fault.kind) (Engine.now engine) :: !log in
  let windowed = { Fault.kind = Fault.Hook_stall; at = 1.0; duration = 0.5; magnitude = 0.1 } in
  let point = { Fault.kind = Fault.Pacer_jump; at = 2.0; duration = 0.0; magnitude = 1.0 } in
  Fault.arm ~engine ~apply:(record "apply") ~revert:(record "revert") [ windowed; point ];
  Engine.run engine;
  Alcotest.(check (list string)) "apply at [at], revert at [at+duration], none for point events"
    [ "apply:hook-stall@1"; "revert:hook-stall@1.5"; "apply:pacer-jump@2" ]
    (List.rev !log)

(* --- sim.wheel: the timing wheel vs the verbatim heap oracle --- *)

(* Scripts are interpreted identically against both implementations; any
   divergence in the full pop sequence (values, times, or the empty tail)
   fails the differential check.

   The wheel removes a cancelled element; the heap oracle cannot, so the
   interpreter marks it and skips it on pop — the engine's rule.  Cancels
   address pushes by index, so they land wherever the element sits at
   that moment (ready heap, any wheel level, overflow) or on an element
   already popped or cancelled, which, like a fired engine event, must not
   reach [remove]. *)
type wheel_op = WPush of float | WPushAtLastPop | WPop | WCancel of int | WRearm of int

(* The live pop sequence, and whether the wheel's own accounting held
   throughout: [size] equals the live count after every op, and a removed
   element never pops. *)
let run_script ops q =
  let removes = Event_queue.impl q = Event_queue.Wheel in
  let times = ref [||] and handles = ref [||] and state = ref [||] in
  let pushed = ref 0 and live = ref 0 and last_pop = ref 0.0 and out = ref [] and ok = ref true in
  let push time =
    let id = !pushed in
    if id = Array.length !times then begin
      let grow a fill = Array.append a (Array.make (max 8 id) fill) in
      times := grow !times 0.0;
      handles := grow !handles 0;
      state := grow !state `Queued
    end;
    !times.(id) <- time;
    !handles.(id) <- Event_queue.add q ~time id;
    incr pushed;
    incr live
  in
  let rec pop () =
    match Event_queue.pop q with
    | None -> out := None :: !out
    | Some (_, id) when !state.(id) = `Cancelled ->
        if removes then ok := false;
        pop ()
    | Some (time, id) as r ->
        !state.(id) <- `Popped;
        decr live;
        last_pop := time;
        out := r :: !out
  in
  (* The index of the cancelled push, or -1 when it was no longer queued. *)
  let cancel k =
    if !pushed = 0 then -1
    else begin
      let id = k mod !pushed in
      if !state.(id) <> `Queued then -1
      else begin
        Event_queue.remove q !handles.(id);
        !state.(id) <- `Cancelled;
        decr live;
        id
      end
    end
  in
  List.iter
    (fun op ->
      (match op with
      | WPush time -> push time
      | WPushAtLastPop -> push !last_pop (* same-tick push right after a pop *)
      | WPop -> pop ()
      | WCancel k -> ignore (cancel k)
      | WRearm k ->
          (* Disarm and re-arm at the same instant, like a TCP timer. *)
          let id = cancel k in
          if id >= 0 then push !times.(id));
      if removes && Event_queue.size q <> !live then ok := false)
    ops;
  while !live > 0 do
    pop ()
  done;
  pop ();
  (List.rev !out, !ok)

let wheel_matches_heap ?granularity ops =
  let wheel =
    match granularity with
    | None -> Event_queue.create_impl Event_queue.Wheel
    | Some g -> Event_queue.create_wheel ~granularity:g ()
  in
  let heap_pops, _ = run_script ops (Event_queue.create_impl Event_queue.Heap) in
  let wheel_pops, ok = run_script ops wheel in
  ok && heap_pops = wheel_pops

(* Regression pin: same-instant pushes pop in insertion order on the wheel
   itself — the invariant endpoint.ml's ACK/timer interleaving relies on,
   pinned here independently of the differential battery. *)
let test_wheel_fifo_pin () =
  let q = Event_queue.create_impl Event_queue.Wheel in
  Event_queue.push q ~time:1.0 "a";
  Event_queue.push q ~time:1.0 "b";
  Event_queue.push q ~time:0.5 "c";
  Event_queue.push q ~time:1.0 "d";
  let order = List.init 4 (fun _ -> Option.get (Event_queue.pop q)) in
  Alcotest.(check (list (pair (float 0.0) string)))
    "same-instant insertion order survives the wheel"
    [ (0.5, "c"); (1.0, "a"); (1.0, "b"); (1.0, "d") ]
    order

let test_wheel_default_impl () =
  let expected =
    match Sys.getenv_opt "STOB_EVENT_QUEUE" with
    | Some "heap" -> Event_queue.Heap
    | _ -> Event_queue.Wheel
  in
  Alcotest.(check bool) "default queue implementation" true
    (Event_queue.impl (Event_queue.create ()) = expected)

let test_wheel_push_during_pop () =
  (* Pops interleaved with pushes at exactly the last popped time: the
     wheel must keep feeding them through its ready heap in seq order. *)
  let ops =
    [
      WPush 0.5; WPush 1.0; WPush 1.0; WPop; WPushAtLastPop; WPushAtLastPop; WPop; WPop;
      WPush 0.75; WPop; WPushAtLastPop; WPop; WPop;
    ]
  in
  Alcotest.(check bool) "push-during-pop differential" true (wheel_matches_heap ops)

let test_wheel_far_future () =
  (* 1e7 s and 1e11 s at the default 256 µs granularity are beyond the
     2^32-tick wheel horizon: exercises the overflow list and the cursor
     rebase, with near-term pushes interleaved after the far-future ones. *)
  let ops =
    [
      WPush 0.1; WPush 4.0e3; WPop; WPush 5.0e3; WPush 1.0e7; WPush 2.5; WPop; WPush 1.0e11;
      WPop; WPush 0.0; WPush 3.0; WPop; WPush 1.0e7; WPop;
    ]
  in
  Alcotest.(check bool) "far-future differential" true (wheel_matches_heap ops)

let arbitrary_schedule ?(cancels = false) () =
  let op =
    QCheck.Gen.(
      frequency
        ([
           (5, map (fun t -> `Push (t *. 10.0)) (float_range 0.0 1.0));
           (2, return `Dup); (* same-instant burst: repeat the previous push time *)
           (1, map (fun t -> `Push (1e3 +. (t *. 1e12))) (float_range 0.0 1.0)); (* far future *)
           (1, map (fun t -> `Push (-.t)) (float_range 0.0 2.0)); (* behind the cursor *)
           (1, return `PushAtLastPop);
           (4, return `Pop);
         ]
        @ if cancels then [ (3, map (fun k -> `Cancel k) nat); (2, map (fun k -> `Rearm k) nat) ]
          else []))
  in
  let concretize script =
    let last = ref 1.0 in
    List.map
      (function
        | `Push t ->
            last := t;
            WPush t
        | `Dup -> WPush !last
        | `PushAtLastPop -> WPushAtLastPop
        | `Pop -> WPop
        | `Cancel k -> WCancel k
        | `Rearm k -> WRearm k)
      script
  in
  QCheck.make
    ~print:(fun ops ->
      String.concat " "
        (List.map
           (function
             | WPush t -> Printf.sprintf "push(%h)" t
             | WPushAtLastPop -> "push@last-pop"
             | WPop -> "pop"
             | WCancel k -> Printf.sprintf "cancel(%d)" k
             | WRearm k -> Printf.sprintf "rearm(%d)" k)
           ops))
    QCheck.Gen.(map concretize (list_size (int_range 0 200) op))

let prop_wheel_differential =
  QCheck.Test.make ~name:"wheel pop sequence == heap oracle (default granularity)" ~count:300
    (arbitrary_schedule ()) wheel_matches_heap

let prop_wheel_differential_coarse =
  (* A 0.5 s tick collapses nearly every push into a handful of ticks, so
     ordering rides almost entirely on the exact-order ready heap. *)
  QCheck.Test.make ~name:"wheel pop sequence == heap oracle (coarse 0.5 s ticks)" ~count:300
    (arbitrary_schedule ())
    (fun ops -> wheel_matches_heap ~granularity:0.5 ops)

let prop_wheel_differential_fine =
  (* A 1 ns tick pushes mid-range times into high wheel levels and the
     far-future pushes deep into overflow. *)
  QCheck.Test.make ~name:"wheel pop sequence == heap oracle (fine 1 ns ticks)" ~count:300
    (arbitrary_schedule ())
    (fun ops -> wheel_matches_heap ~granularity:1e-9 ops)

(* At the default 256 µs tick, with the cursor at 0, these times sit in
   the ready heap, levels 0 to 3 and the overflow list. *)
let placement_times = [ 0.0001; 0.01; 1.0; 100.0; 1e5; 1e7 ]

let test_wheel_cancel_everywhere () =
  let n = List.length placement_times in
  let pushes = List.concat_map (fun t -> [ WPush t; WPush t; WPush (t *. 1.5) ]) placement_times in
  (* Cancel the first push at every location, re-arm the second, pop once
     so that everything cascades, then cancel what remains and popped
     elements alike. *)
  let ops =
    pushes
    @ List.init n (fun i -> WCancel (3 * i))
    @ List.init n (fun i -> WRearm ((3 * i) + 1))
    @ [ WPop; WCancel 0; WCancel 2; WPop; WCancel 5; WRearm 8; WPop ]
    @ List.init (4 * n) (fun i -> WCancel i)
  in
  Alcotest.(check bool) "removal differential at every location" true
    (wheel_matches_heap ops)

let prop_wheel_removal =
  QCheck.Test.make ~name:"wheel removal == heap oracle with skips (default granularity)"
    ~count:300 (arbitrary_schedule ~cancels:true ()) wheel_matches_heap

let prop_wheel_removal_coarse =
  QCheck.Test.make ~name:"wheel removal == heap oracle with skips (coarse 0.5 s ticks)"
    ~count:300 (arbitrary_schedule ~cancels:true ())
    (fun ops -> wheel_matches_heap ~granularity:0.5 ops)

let prop_wheel_removal_fine =
  QCheck.Test.make ~name:"wheel removal == heap oracle with skips (fine 1 ns ticks)"
    ~count:300 (arbitrary_schedule ~cancels:true ())
    (fun ops -> wheel_matches_heap ~granularity:1e-9 ops)

(* The pool must not keep a popped or removed value reachable. *)
let test_wheel_releases_values () =
  let q = Event_queue.create_impl Event_queue.Wheel in
  let n = List.length placement_times in
  let alive = Weak.create n in
  let handles =
    List.mapi
      (fun i time ->
        let v = ref i in
        Weak.set alive i (Some v);
        Event_queue.add q ~time v)
      placement_times
  in
  ignore (Event_queue.pop q);
  (* Remove from level 0, level 2 and the overflow list; keep the rest. *)
  List.iteri (fun i h -> if i = 1 || i = 3 || i = 5 then Event_queue.remove q h) handles;
  Gc.full_major ();
  let reachable = List.init n (Weak.check alive) in
  Alcotest.(check (list bool)) "only queued values survive a full major GC"
    [ false; false; true; false; true; false ] reachable;
  Alcotest.(check int) "two queued" 2 (Event_queue.size q)

(* Cancel/re-arm differential at the engine level: the exact scenario —
   timers disarmed by earlier events, re-armed, re-cancelled, zero-delay
   chains, same-instant triples — must execute identically on both queue
   implementations. *)
let engine_cancel_rearm_scenario ~queue =
  let log = Buffer.create 256 in
  let e = Engine.create ~queue () in
  let note tag = Buffer.add_string log (Printf.sprintf "%s@%.9f;" tag (Engine.now e)) in
  let timer = ref None in
  let arm label delay = timer := Some (Engine.schedule e ~delay (fun () -> note ("fire-" ^ label))) in
  arm "t0" 5.0;
  ignore
    (Engine.schedule e ~delay:1.0 (fun () ->
         note "cancel+rearm";
         (match !timer with Some ev -> Engine.cancel e ev | None -> ());
         arm "t1" 0.5));
  ignore (Engine.schedule e ~delay:1.0 (fun () -> note "same-instant-1"));
  ignore (Engine.schedule e ~delay:1.0 (fun () -> note "same-instant-2"));
  ignore
    (Engine.schedule e ~delay:2.0 (fun () ->
         note "chain-a";
         ignore (Engine.schedule e ~delay:0.0 (fun () -> note "chain-b"))));
  let far = Engine.schedule e ~delay:10_000.0 (fun () -> note "far") in
  ignore
    (Engine.schedule e ~delay:3.0 (fun () ->
         Engine.cancel e far;
         let r = Engine.schedule e ~delay:9_000.0 (fun () -> note "re-far") in
         ignore (Engine.schedule e ~delay:0.25 (fun () -> Engine.cancel e r));
         arm "t2" 0.125));
  Engine.run e;
  Buffer.contents log

let test_wheel_engine_cancel_rearm () =
  let heap_log = engine_cancel_rearm_scenario ~queue:Event_queue.Heap in
  let wheel_log = engine_cancel_rearm_scenario ~queue:Event_queue.Wheel in
  Alcotest.(check string) "cancel/re-arm log identical across queues" heap_log wheel_log;
  (* Sanity pin: the scenario exercised what it claims to — the t0 timer
     was disarmed, its replacement fired, the far timers never did. *)
  Alcotest.(check string) "scenario executes as designed"
    "cancel+rearm@1.000000000;same-instant-1@1.000000000;same-instant-2@1.000000000;fire-t1@1.500000000;chain-a@2.000000000;chain-b@2.000000000;fire-t2@3.125000000;"
    heap_log

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ( "sim.event_queue",
      [
        Alcotest.test_case "ordering" `Quick test_eq_ordering;
        Alcotest.test_case "fifo ties" `Quick test_eq_fifo_ties;
        Alcotest.test_case "size" `Quick test_eq_size;
        q prop_eq_sorted_output;
      ] );
    ( "sim.wheel",
      [
        Alcotest.test_case "same-instant fifo pin" `Quick test_wheel_fifo_pin;
        Alcotest.test_case "default implementation" `Quick test_wheel_default_impl;
        Alcotest.test_case "push-during-pop differential" `Quick test_wheel_push_during_pop;
        Alcotest.test_case "far-future / overflow differential" `Quick test_wheel_far_future;
        Alcotest.test_case "engine cancel/re-arm differential" `Quick
          test_wheel_engine_cancel_rearm;
        q prop_wheel_differential;
        q prop_wheel_differential_coarse;
        q prop_wheel_differential_fine;
        Alcotest.test_case "cancel at every location" `Quick test_wheel_cancel_everywhere;
        q prop_wheel_removal;
        q prop_wheel_removal_coarse;
        q prop_wheel_removal_fine;
        Alcotest.test_case "popped and removed values are released" `Quick
          test_wheel_releases_values;
      ] );
    ( "sim.engine",
      [
        Alcotest.test_case "runs in order" `Quick test_engine_runs_in_order;
        Alcotest.test_case "nested scheduling" `Quick test_engine_nested_scheduling;
        Alcotest.test_case "cancel" `Quick test_engine_cancel;
        Alcotest.test_case "cancel after fire (wheel)" `Quick
          (test_engine_cancel_fired Event_queue.Wheel);
        Alcotest.test_case "cancel after fire (heap)" `Quick
          (test_engine_cancel_fired Event_queue.Heap);
        Alcotest.test_case "stale handle after fire (wheel)" `Quick
          (test_engine_stale_handle Event_queue.Wheel);
        Alcotest.test_case "stale handle after fire (heap)" `Quick
          (test_engine_stale_handle Event_queue.Heap);
        Alcotest.test_case "run until" `Quick test_engine_run_until;
        Alcotest.test_case "negative delay clamped" `Quick test_engine_negative_delay_clamped;
        Alcotest.test_case "same-time fifo" `Quick test_engine_same_time_fifo;
        Alcotest.test_case "pending counts line values (wheel)" `Quick
          (test_line_pending Event_queue.Wheel);
        Alcotest.test_case "pending counts line values (heap)" `Quick
          (test_line_pending Event_queue.Heap);
        q prop_line_order;
      ] );
    ( "sim.cpu",
      [
        Alcotest.test_case "serializes work" `Quick test_cpu_serializes_work;
        Alcotest.test_case "idle gap" `Quick test_cpu_idle_gap;
        Alcotest.test_case "utilization" `Quick test_cpu_utilization;
      ] );
    ( "sim.link",
      [
        Alcotest.test_case "serialization+propagation" `Quick test_link_serialization_delay;
        Alcotest.test_case "back-to-back frames" `Quick test_link_back_to_back;
        Alcotest.test_case "queue drop" `Quick test_link_queue_drop;
        Alcotest.test_case "tap and counters" `Quick test_link_tap_and_counters;
        Alcotest.test_case "on_idle" `Quick test_link_on_idle;
        Alcotest.test_case "preserves order" `Quick test_link_preserves_order;
        Alcotest.test_case "delivery before a same-instant tap timer (wheel)" `Quick
          (test_link_delivery_before_tap_timer Event_queue.Wheel);
        Alcotest.test_case "delivery before a same-instant tap timer (heap)" `Quick
          (test_link_delivery_before_tap_timer Event_queue.Heap);
        Alcotest.test_case "allocation per frame" `Quick test_link_alloc;
      ] );
    ( "sim.netem",
      [
        Alcotest.test_case "identity" `Quick test_netem_identity;
        Alcotest.test_case "iid loss deterministic" `Quick test_netem_iid_loss_deterministic;
        Alcotest.test_case "drop list" `Quick test_netem_drop_list;
        Alcotest.test_case "duplication" `Quick test_netem_duplication;
        Alcotest.test_case "reorder" `Quick test_netem_reorder;
        Alcotest.test_case "reorder hold flush" `Quick test_netem_reorder_flush;
        Alcotest.test_case "gilbert-elliott bursts" `Quick test_netem_gilbert_elliott_bursts;
        Alcotest.test_case "jitter" `Quick test_netem_jitter_delays;
        Alcotest.test_case "validate" `Quick test_netem_validate;
        q prop_netem_conserves_frames;
      ] );
    ( "sim.engine_robustness",
      [
        Alcotest.test_case "livelock detected" `Quick test_engine_livelock_detected;
        Alcotest.test_case "livelock leaves nothing pending (wheel)" `Quick
          (test_engine_livelock_pending Event_queue.Wheel);
        Alcotest.test_case "livelock leaves nothing pending (heap)" `Quick
          (test_engine_livelock_pending Event_queue.Heap);
        Alcotest.test_case "budget resets on clock advance" `Quick
          test_engine_budget_resets_on_advance;
        Alcotest.test_case "budget validated" `Quick test_engine_budget_validate;
        Alcotest.test_case "NaN times rejected (wheel)" `Quick
          (test_engine_rejects_nan Event_queue.Wheel);
        Alcotest.test_case "NaN times rejected (heap)" `Quick
          (test_engine_rejects_nan Event_queue.Heap);
        Alcotest.test_case "probe" `Quick test_engine_probe;
      ] );
    ( "sim.fault",
      [
        Alcotest.test_case "plan deterministic" `Quick test_fault_plan_deterministic;
        Alcotest.test_case "plan subset-stable" `Quick test_fault_plan_subset_stable;
        Alcotest.test_case "plan validated" `Quick test_fault_plan_validate;
        Alcotest.test_case "kind names round-trip" `Quick test_fault_kind_names;
        Alcotest.test_case "arm schedules apply/revert" `Quick test_fault_arm_schedules;
      ] );
  ]
