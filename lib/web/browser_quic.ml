module Engine = Stob_sim.Engine
module Rng = Stob_util.Rng
module Trace = Stob_net.Trace
module Capture = Stob_net.Capture
module Path = Stob_tcp.Path
module Qconn = Stob_quic.Connection
module Qendpoint = Stob_quic.Endpoint

(* HTTP/3 frame overhead per message (HEADERS/DATA frame headers, QPACK). *)
let h3_overhead = 24

let load ?policy ?cc ?client_netem ?server_netem ?(on_connection = ignore) ~rng
    profile =
  let engine = Engine.create () in
  let rate_bps, delay = Profile.sample_network profile rng in
  let queue_capacity = Int.max 65536 (int_of_float (rate_bps *. 0.05 /. 8.0)) in
  let path = Path.create ~engine ~rate_bps ~delay ~queue_capacity ?client_netem ?server_netem () in
  let page = Profile.generate_page profile rng in
  let flight = Profile.sample_size profile.Profile.tls_flight rng in
  let server_hooks =
    Option.map
      (fun p ->
        Stob_core.Controller.hooks (Stob_core.Controller.create ~seed:(Rng.int rng 1_000_000) p))
      policy
  in
  let conn = Qconn.create ~engine ~path ~flow:1 ?cc ?server_hooks ~flight_bytes:flight () in
  on_connection conn;
  let client = Qconn.client conn and server = Qconn.server conn in

  (* --- server application: one job per stream ----------------------- *)
  let jobs : (int, int * float) Hashtbl.t = Hashtbl.create 32 in
  Qendpoint.set_on_stream_fin server (fun ~stream ->
      match Hashtbl.find_opt jobs stream with
      | None -> ()
      | Some (resp_bytes, think) ->
          ignore
            (Engine.schedule engine ~delay:think (fun () ->
                 Qendpoint.send_stream server ~stream ~fin:true resp_bytes)));

  (* --- client: wave scheduler over streams --------------------------- *)
  let head_queue = Queue.create () and body_queue = Queue.create () in
  List.iter (fun r -> Queue.add r head_queue) page.Resource.head_wave;
  List.iter (fun r -> Queue.add r body_queue) page.Resource.body_wave;
  let body_released = ref (Queue.is_empty head_queue) in
  let head_outstanding = ref 0 in
  let remaining =
    ref (1 + List.length page.Resource.head_wave + List.length page.Resource.body_wave)
  in
  let bytes_downloaded = ref 0 in
  let last_complete = ref 0.0 in
  (* H3 browsers multiplex aggressively on the one connection. *)
  let max_concurrent = 2 * Int.max 1 profile.Profile.parallel_connections in
  let in_flight = ref 0 in
  let next_stream = ref 4 in
  let stream_of : (int, Resource.t * [ `Html | `Head | `Body ]) Hashtbl.t = Hashtbl.create 32 in

  let issue (r : Resource.t) wave =
    let stream = !next_stream in
    next_stream := stream + 4;
    incr in_flight;
    Hashtbl.replace stream_of stream (r, wave);
    Hashtbl.replace jobs stream (r.Resource.size + h3_overhead, r.Resource.think);
    Qendpoint.send_stream client ~stream ~fin:true (r.Resource.request_bytes + h3_overhead)
  in
  let rec dispatch () =
    if !in_flight < max_concurrent then begin
      match Queue.take_opt head_queue with
      | Some r ->
          incr head_outstanding;
          issue r `Head;
          dispatch ()
      | None ->
          if !body_released then
            match Queue.take_opt body_queue with
            | Some r ->
                issue r `Body;
                dispatch ()
            | None -> ()
    end
  in
  Qendpoint.set_on_stream_fin client (fun ~stream ->
      match Hashtbl.find_opt stream_of stream with
      | None -> ()
      | Some (r, wave) ->
          decr in_flight;
          decr remaining;
          bytes_downloaded := !bytes_downloaded + r.Resource.size;
          last_complete := Engine.now engine;
          (match wave with
          | `Html ->
              (* HTML parsed: the head wave starts. *)
              dispatch ()
          | `Head ->
              decr head_outstanding;
              if Queue.is_empty head_queue && !head_outstanding = 0 then body_released := true;
              dispatch ()
          | `Body -> dispatch ()));

  Qconn.on_established conn (fun () ->
      (* Fetch the HTML first, alone. *)
      let html = page.Resource.html in
      let stream = !next_stream in
      next_stream := stream + 4;
      incr in_flight;
      Hashtbl.replace stream_of stream (html, `Html);
      Hashtbl.replace jobs stream (html.Resource.size + h3_overhead, html.Resource.think);
      Qendpoint.send_stream client ~stream ~fin:true (html.Resource.request_bytes + h3_overhead));
  Qconn.open_ conn;
  Engine.run ~until:60.0 engine;
  {
    Browser.trace = Trace.shift_to_zero (Capture.trace (Path.capture path));
    completed = !remaining = 0;
    load_time = !last_complete;
    bytes_downloaded = !bytes_downloaded;
    page;
    netem_stats = Path.netem_stats path;
  }
