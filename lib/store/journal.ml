exception Corrupt of string

let magic = "STOBJRNL1\n"
let size_of ~frames ~payload_bytes = String.length magic + (8 * frames) + payload_bytes

(* A frame length beyond this is treated as a torn/garbage tail rather
   than an instruction to allocate gigabytes. *)
let max_record = 1 lsl 28

type retry = { attempts : int; backoff_s : float }

let default_retry = { attempts = 4; backoff_s = 0.002 }
let no_retry = { attempts = 1; backoff_s = 0. }

type t = {
  vfs : Vfs.t;
  retry : retry;
  mutable fd : Vfs.file option;
  mu : Mutex.t;
  mutable frames : int;  (* replayed + successfully appended through this handle *)
  mutable retried : int;  (* transient syscall errors absorbed by retries *)
}

(* Errors worth retrying: interruptions and the transient face of media
   trouble.  ENOSPC is included — an operator freeing space mid-sweep is
   the realistic recovery — and when it persists the bounded retry gives
   up quickly and the store degrades instead (Store.record). *)
let transient = function
  | Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EIO | Unix.ENOSPC -> true
  | _ -> false

(* Bounded retry with doubling backoff around one syscall.  Only
   [Unix_error]s are candidates: a fault plane's simulated process death
   (Io_fault.Crash) is not an I/O error and must propagate untouched. *)
let with_retry retry count f =
  let rec go attempt =
    try f ()
    with Unix.Unix_error (e, _, _) when transient e && attempt + 1 < retry.attempts ->
      if retry.backoff_s > 0. then Unix.sleepf (retry.backoff_s *. float_of_int (1 lsl attempt));
      incr count;
      go (attempt + 1)
  in
  go 0

(* Whole-buffer write with a per-syscall retry envelope.  Retrying the
   individual [write] (not the loop) is what makes short writes safe: a
   transient error reports no progress, so reissuing from the current
   offset never duplicates bytes. *)
let write_bytes vfs retry count fd b =
  let len = Bytes.length b in
  let pos = ref 0 in
  while !pos < len do
    let n = with_retry retry count (fun () -> vfs.Vfs.write fd b ~pos:!pos ~len:(len - !pos)) in
    if n <= 0 then raise (Unix.Unix_error (Unix.EIO, "write", "no progress"));
    pos := !pos + n
  done

(* One buffer, one copy: the header, then one blit of the payload.  The
   frame still leaves in a single [write], so the syscall boundaries a
   fault plane counts are the same as ever. *)
let frame ~crc payload =
  let len = String.length payload in
  let b = Bytes.create (8 + len) in
  Bytes.set_int32_be b 0 (Int32.of_int len);
  Bytes.set_int32_be b 4 crc;
  Bytes.blit_string payload 0 b 8 len;
  b

type cut = Clean | Torn | Crc_mismatch

type walk = { frames : int; valid : int; size : int; cut : cut }

(* The one frame walker behind [open_], [read], [verify] and [iter]: the
   longest valid prefix of [path], each valid payload lent to [f] as
   [f buf len], plus the byte offset where validity ends and how the tail
   was cut ([None] when the file does not exist).  Headers and payloads are
   read with [really_input] into a buffer owned by this call and grown to
   the largest frame so far, so a walk allocates per size step, not per
   frame — and two domains walking at once share nothing. *)
let walk path f =
  if not (Sys.file_exists path) then None
  else begin
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let size = in_channel_length ic in
        let ml = String.length magic in
        if size < ml then
          (* torn header: recover to empty *)
          Some { frames = 0; valid = 0; size; cut = Torn }
        else if really_input_string ic ml <> magic then
          raise (Corrupt (path ^ ": not a stob journal (bad magic)"))
        else begin
          let hdr = Bytes.create 8 in
          let buf = ref Bytes.empty in
          let frames = ref 0 and pos = ref ml and cut = ref Clean and stop = ref false in
          while (not !stop) && !pos + 8 <= size do
            really_input ic hdr 0 8;
            let len = Int32.to_int (Bytes.get_int32_be hdr 0) in
            if len < 0 || len > max_record || !pos + 8 + len > size then begin
              cut := Torn;
              stop := true
            end
            else begin
              if len > Bytes.length !buf then buf := Bytes.create len;
              really_input ic !buf 0 len;
              if not (Int32.equal (Crc32.slice !buf ~pos:0 ~len) (Bytes.get_int32_be hdr 4))
              then begin
                cut := Crc_mismatch;
                stop := true
              end
              else begin
                f !buf len;
                incr frames;
                pos := !pos + 8 + len
              end
            end
          done;
          (* Trailing sub-header bytes. *)
          if (not !stop) && !pos < size then cut := Torn;
          Some { frames = !frames; valid = !pos; size; cut = !cut }
        end)
  end

(* Replay with the payloads copied out of the walker's buffer. *)
let replay path =
  let payloads = ref [] in
  let w = walk path (fun b len -> payloads := Bytes.sub_string b 0 len :: !payloads) in
  (w, List.rev !payloads)

let read path = snd (replay path)
let iter path f = ignore (walk path f)

type scrub = {
  exists : bool;
  scrub_frames : int;
  scrub_bytes : int;  (** Total file size. *)
  valid_bytes : int;  (** Magic + valid frames. *)
  torn_bytes : int;  (** [scrub_bytes - valid_bytes]. *)
  crc_mismatch : bool;  (** The invalid tail begins with a CRC-failing frame. *)
}

let verify path =
  match walk path (fun _ _ -> ()) with
  | None ->
      { exists = false; scrub_frames = 0; scrub_bytes = 0; valid_bytes = 0; torn_bytes = 0;
        crc_mismatch = false }
  | Some w ->
      { exists = true; scrub_frames = w.frames; scrub_bytes = w.size; valid_bytes = w.valid;
        torn_bytes = w.size - w.valid; crc_mismatch = w.cut = Crc_mismatch }

let open_ ?(vfs = Vfs.unix) ?(retry = default_retry) path =
  let w, payloads = replay path in
  let count = ref 0 in
  (match w with
  | Some w when w.valid < w.size ->
      with_retry retry count (fun () -> vfs.Vfs.truncate path w.valid)
  | Some _ | None -> ());
  let fd = with_retry retry count (fun () -> vfs.Vfs.open_append path) in
  (match w with
  | None | Some { valid = 0; _ } ->
      write_bytes vfs retry count fd (Bytes.of_string magic);
      with_retry retry count (fun () -> vfs.Vfs.flush fd)
  | Some _ -> ());
  ( { vfs; retry; fd = Some fd; mu = Mutex.create (); frames = List.length payloads;
      retried = !count },
    payloads )

let append_crc t payload =
  let crc = Crc32.string payload in
  Mutex.protect t.mu (fun () ->
      match t.fd with
      | None -> invalid_arg "Journal.append: closed journal"
      | Some fd ->
          let count = ref 0 in
          Fun.protect
            ~finally:(fun () -> t.retried <- t.retried + !count)
            (fun () ->
              write_bytes t.vfs t.retry count fd (frame ~crc payload);
              with_retry t.retry count (fun () -> t.vfs.Vfs.flush fd);
              t.frames <- t.frames + 1));
  crc

let append t payload = ignore (append_crc t payload : int32)

let close t =
  Mutex.protect t.mu (fun () ->
      match t.fd with
      | None -> ()
      | Some fd ->
          t.fd <- None;
          t.vfs.Vfs.close fd)

let frames t = Mutex.protect t.mu (fun () -> t.frames)
let retried t = Mutex.protect t.mu (fun () -> t.retried)

let rewrite_counter = Atomic.make 0

let rewrite ?(vfs = Vfs.unix) ?(retry = default_retry) path payloads =
  let count = ref 0 in
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ()) (Atomic.fetch_and_add rewrite_counter 1)
  in
  let fd = with_retry retry count (fun () -> vfs.Vfs.open_trunc tmp) in
  (try
     write_bytes vfs retry count fd (Bytes.of_string magic);
     List.iter (fun p -> write_bytes vfs retry count fd (frame ~crc:(Crc32.string p) p)) payloads;
     with_retry retry count (fun () -> vfs.Vfs.flush fd);
     vfs.Vfs.close fd
   with e ->
     (try vfs.Vfs.close fd with Unix.Unix_error _ | Sys_error _ -> ());
     (try vfs.Vfs.remove tmp with Unix.Unix_error _ | Sys_error _ -> ());
     raise e);
  (* Byte-level half of the replay-digest-agreement invariant: a rewrite
     that cannot replay exactly what it was asked to persist must not
     replace the journal. *)
  if not (List.equal String.equal (read tmp) payloads) then begin
    (try vfs.Vfs.remove tmp with Unix.Unix_error _ | Sys_error _ -> ());
    raise (Corrupt (tmp ^ ": rewrite verify failed — fresh journal does not replay its input"))
  end;
  with_retry retry count (fun () -> vfs.Vfs.rename tmp path);
  !count
