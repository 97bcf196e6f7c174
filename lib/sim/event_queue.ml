(* Facade over the two event-queue implementations.

   The timing wheel (timing_wheel.ml) is the production queue; the seed's
   binary heap (heap_queue.ml) is kept verbatim as the differential oracle
   and stays selectable — set STOB_EVENT_QUEUE=heap to run any experiment
   on the original implementation (the sim.wheel battery proves the two
   pop identically, so results cannot differ; the knob exists to let a
   suspicious user check exactly that on their own workload). *)

type impl = Heap | Wheel

type 'a t = H of 'a Heap_queue.t | W of 'a Timing_wheel.t

(* Read once at module initialisation, not lazily: two domains forcing a
   [lazy] for the first time at once raise [CamlinternalLazy.Undefined].
   A bad value is kept as an error so that only [default_impl] raises. *)
let env_impl =
  match Sys.getenv_opt "STOB_EVENT_QUEUE" with
  | None | Some "" | Some "wheel" -> Ok Wheel
  | Some "heap" -> Ok Heap
  | Some other ->
      Error (Printf.sprintf "STOB_EVENT_QUEUE=%S: expected \"wheel\" or \"heap\"" other)

let default_impl () = match env_impl with Ok impl -> impl | Error msg -> invalid_arg msg

let create_impl = function Heap -> H (Heap_queue.create ()) | Wheel -> W (Timing_wheel.create ())
let create () = create_impl (default_impl ())
let create_wheel ?granularity () = W (Timing_wheel.create ?granularity ())

let impl = function H _ -> Heap | W _ -> Wheel

let push t ~time value =
  match t with H q -> Heap_queue.push q ~time value | W q -> Timing_wheel.push q ~time value

let add t ~time value =
  match t with
  | H q ->
      Heap_queue.push q ~time value;
      0
  | W q -> Timing_wheel.add q ~time value

let reserve = function
  | H _ -> invalid_arg "Event_queue.reserve: the heap cannot queue under a reserved number"
  | W q -> Timing_wheel.reserve q

let add_reserved t ~time ~seq value =
  match t with
  | H _ -> invalid_arg "Event_queue.add_reserved: the heap cannot queue under a reserved number"
  | W q -> Timing_wheel.add_reserved q ~time ~seq value

let remove t handle = match t with H _ -> () | W q -> Timing_wheel.remove q handle

let empty name = invalid_arg ("Event_queue." ^ name ^ ": empty queue")

let top = function
  | H q -> ( match Heap_queue.peek q with Some (_, v) -> v | None -> empty "top")
  | W q -> Timing_wheel.top q

let take = function
  | H q -> ( match Heap_queue.pop q with Some (_, v) -> v | None -> empty "take")
  | W q -> Timing_wheel.take q

let pop = function H q -> Heap_queue.pop q | W q -> Timing_wheel.pop q
let size = function H q -> Heap_queue.size q | W q -> Timing_wheel.size q
let is_empty = function H q -> Heap_queue.is_empty q | W q -> Timing_wheel.is_empty q
