module Engine = Stob_sim.Engine
module Rng = Stob_util.Rng
module Trace = Stob_net.Trace
module Capture = Stob_net.Capture
module Endpoint = Stob_tcp.Endpoint
module Connection = Stob_tcp.Connection
module Path = Stob_tcp.Path
module Record = Stob_tls.Record

type result = {
  trace : Trace.t;
  completed : bool;
  load_time : float;
  bytes_downloaded : int;
  page : Resource.page;
  netem_stats : Stob_sim.Netem.stats;
}

(* Per-connection client state: what we are currently waiting for. *)
type conn = {
  c : Connection.t;
  mutable ready : bool;  (* TLS handshake finished *)
  mutable expecting : int;  (* ciphertext bytes still to arrive for the current response *)
  mutable received_ciphertext : int;
  mutable busy : bool;  (* a request is outstanding *)
  mutable on_response_done : unit -> unit;
}

let tls = Record.default

(* Frame [n] plaintext bytes into total ciphertext wire bytes. *)
let ciphertext_bytes n = Record.wire_bytes tls ~padding:Record.No_padding n

let load ?policy ?client_config ~rng profile =
  let engine = Engine.create () in
  let rate_bps, delay = Profile.sample_network profile rng in
  (* Bottleneck queue: a shallow-ish access-link buffer (about 50 ms at the
     link rate) so overload shows up as queueing and occasional loss. *)
  let queue_capacity = Int.max 65536 (int_of_float (rate_bps *. 0.05 /. 8.0)) in
  let path = Path.create ~engine ~rate_bps ~delay ~queue_capacity () in
  let page = Profile.generate_page profile rng in
  let n_conns = Int.max 1 profile.Profile.parallel_connections in

  (* --- server application ------------------------------------------- *)
  (* Per flow: a FIFO of pending (response_ciphertext, think) jobs plus the
     count of request bytes that announce each job. *)
  let server_jobs : (int, (int * int * float) Queue.t) Hashtbl.t = Hashtbl.create 8 in
  let server_rx : (int, int ref) Hashtbl.t = Hashtbl.create 8 in
  let jobs_of flow =
    match Hashtbl.find_opt server_jobs flow with
    | Some q -> q
    | None ->
        let q = Queue.create () in
        Hashtbl.add server_jobs flow q;
        Hashtbl.add server_rx flow (ref 0);
        q
  in
  let rec server_progress flow server =
    let q = jobs_of flow in
    let rx = Hashtbl.find server_rx flow in
    match Queue.peek_opt q with
    | Some (req_bytes, resp_bytes, think) when !rx >= req_bytes ->
        ignore (Queue.pop q);
        rx := !rx - req_bytes;
        if resp_bytes > 0 then
          ignore
            (Engine.schedule engine ~delay:think (fun () ->
                 Endpoint.write server resp_bytes;
                 server_progress flow server))
        else server_progress flow server
    | _ -> ()
  in

  (* --- connections --------------------------------------------------- *)
  let conns =
    Array.init n_conns (fun i ->
        let flow = i + 1 in
        let server_hooks =
          Option.map
            (fun p ->
              Stob_core.Controller.hooks (Stob_core.Controller.create ~seed:(Rng.int rng 1_000_000) p))
            policy
        in
        let c = Connection.create ~engine ~path ~flow ?client_config ?server_hooks () in
        {
          c;
          ready = false;
          expecting = 0;
          received_ciphertext = 0;
          busy = false;
          on_response_done = (fun () -> ());
        })
  in

  let bytes_downloaded = ref 0 in
  let last_complete = ref 0.0 in

  (* Issue one exchange on a connection: client sends [send_bytes]; the
     server, once it has them, thinks and responds with [resp_bytes]; when
     the full response has arrived, [k] runs. *)
  let exchange conn ~send_bytes ~resp_bytes ~think k =
    let flow = Connection.flow conn.c in
    conn.busy <- true;
    conn.expecting <- resp_bytes;
    conn.received_ciphertext <- 0;
    conn.on_response_done <- k;
    Queue.add (send_bytes, resp_bytes, think) (jobs_of flow);
    Endpoint.write (Connection.client conn.c) send_bytes
  in

  (* --- work scheduler ------------------------------------------------ *)
  let head_queue = Queue.create () and body_queue = Queue.create () in
  List.iter (fun r -> Queue.add r head_queue) page.Resource.head_wave;
  List.iter (fun r -> Queue.add r body_queue) page.Resource.body_wave;
  let head_outstanding = ref 0 in
  (* With no head resources, the body wave unblocks as soon as the HTML is
     in (the release-on-head-completion path would otherwise never fire). *)
  let body_released = ref (Queue.is_empty head_queue) in
  let remaining =
    ref (1 + List.length page.Resource.head_wave + List.length page.Resource.body_wave)
  in

  let rec dispatch conn =
    if conn.ready && not conn.busy then begin
      let next =
        match Queue.take_opt head_queue with
        | Some r ->
            incr head_outstanding;
            Some (r, `Head)
        | None -> (
            if !body_released then
              match Queue.take_opt body_queue with Some r -> Some (r, `Body) | None -> None
            else None)
      in
      match next with
      | None -> ()
      | Some (r, wave) ->
          let resp = ciphertext_bytes r.Resource.size in
          exchange conn
            ~send_bytes:(ciphertext_bytes r.Resource.request_bytes)
            ~resp_bytes:resp ~think:r.Resource.think
            (fun () ->
              bytes_downloaded := !bytes_downloaded + r.Resource.size;
              last_complete := Engine.now engine;
              decr remaining;
              (match wave with
              | `Head ->
                  decr head_outstanding;
                  if Queue.is_empty head_queue && !head_outstanding = 0 then begin
                    (* Head wave done everywhere: the body wave unblocks. *)
                    body_released := true;
                    Array.iter dispatch conns
                  end
              | `Body -> ());
              dispatch conn)
    end
  in

  (* --- client receive plumbing --------------------------------------- *)
  Array.iter
    (fun conn ->
      let client = Connection.client conn.c and server = Connection.server conn.c in
      let flow = Connection.flow conn.c in
      Endpoint.set_on_receive server (fun n ->
          let rx = Hashtbl.find server_rx flow in
          rx := !rx + n;
          server_progress flow server);
      Endpoint.set_on_receive client (fun n ->
          conn.received_ciphertext <- conn.received_ciphertext + n;
          if conn.busy && conn.received_ciphertext >= conn.expecting then begin
            conn.busy <- false;
            let k = conn.on_response_done in
            conn.on_response_done <- (fun () -> ());
            k ()
          end))
    conns;

  (* --- page-load choreography ---------------------------------------- *)
  let handshake conn k =
    let hello = Record.client_hello_bytes rng in
    (* The server's handshake flight size is site-characteristic (its
       certificate chain); see Profile.tls_flight. *)
    let flight = Profile.sample_size profile.Profile.tls_flight rng in
    (* Handshake messages are not app-data records; their wire size is the
       message size itself. *)
    exchange conn ~send_bytes:hello ~resp_bytes:flight ~think:0.002 (fun () ->
        (* The finished flight needs no response; register a zero-response
           job so the server's request byte counter absorbs it rather than
           mis-crediting the next request. *)
        let finished = Record.client_finished_bytes rng in
        Queue.add (finished, 0, 0.0) (jobs_of (Connection.flow conn.c));
        Endpoint.write (Connection.client conn.c) finished;
        conn.ready <- true;
        k ())
  in

  let html_started = ref false in
  let open_secondary () =
    if not !html_started then begin
      html_started := true;
      Array.iteri
        (fun i conn ->
          if i > 0 then begin
            Connection.on_established conn.c (fun () -> handshake conn (fun () -> dispatch conn));
            Connection.open_ conn.c
          end)
        conns
    end
  in

  let primary = conns.(0) in
  Connection.on_established primary.c (fun () ->
      handshake primary (fun () ->
          (* Fetch the HTML; secondary connections open as it arrives. *)
          let resp = ciphertext_bytes page.Resource.html.Resource.size in
          exchange primary
            ~send_bytes:(ciphertext_bytes page.Resource.html.Resource.request_bytes)
            ~resp_bytes:resp ~think:page.Resource.html.Resource.think
            (fun () ->
              bytes_downloaded := !bytes_downloaded + page.Resource.html.Resource.size;
              last_complete := Engine.now engine;
              decr remaining;
              dispatch primary);
          ignore
            (Engine.schedule engine ~delay:0.001 (fun () -> open_secondary ()))));
  Connection.open_ primary.c;

  Engine.run ~until:60.0 engine;
  let completed = !remaining = 0 in
  {
    trace = Trace.shift_to_zero (Capture.trace (Path.capture path));
    completed;
    load_time = !last_complete;
    bytes_downloaded = !bytes_downloaded;
    page;
    netem_stats = Path.netem_stats path;
  }
