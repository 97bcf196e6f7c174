(* First use from four domains at once of the values that used to be
   [lazy]: the CRC-32 tables and the STOB_EVENT_QUEUE selection.  Two domains
   forcing one [lazy] for the first time raise CamlinternalLazy.Undefined;
   built at module initialisation, they are ready before any domain runs.
   The domains spin on one flag so that their first calls overlap, and
   nothing in the process calls Crc32 or Engine before they do.

   Only after those domains are joined does a second phase write journals
   and walk them sequentially for reference; then four fresh domains walk
   them at once: each its own file, and all of them one shared file,
   through [Journal.iter], [read] and [verify], taking CRCs of the slices
   [iter] lends.  Every walk must observe exactly what the sequential walk
   did — which fails if the walker's reusable buffer is shared between
   calls. *)

module Journal = Stob_store.Journal
module Crc32 = Stob_store.Crc32

let domains = 4
let rounds = 200
let walks = 20

(* [f d] on [domains] fresh domains, released together once all are up. *)
let together f =
  let go = Atomic.make false and ready = Atomic.make 0 in
  let ds =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            Atomic.incr ready;
            while not (Atomic.get go) do
              Domain.cpu_relax ()
            done;
            f d))
  in
  while Atomic.get ready < domains do
    Domain.cpu_relax ()
  done;
  Atomic.set go true;
  List.map Domain.join ds

(* Payload sizes from empty to past 4 KiB, so the walk buffer grows. *)
let payloads ~seed =
  List.init 24 (fun i ->
      let len =
        if i mod 3 = 0 then 4097 + (((i * 37) + seed) mod 3000) else ((i * 53) + seed) mod 300
      in
      String.init len (fun j -> Char.chr (((seed * 7) + (i * 131) + (j * 17)) land 0xff)))

let write_journal path ps =
  let j, _ = Journal.open_ path in
  List.iter (Journal.append j) ps;
  Journal.close j

(* Everything one walk observes of a journal. *)
let observe path =
  let lent = ref [] in
  Journal.iter path (fun buf len ->
      let inner = if len > 2 then Crc32.slice buf ~pos:1 ~len:(len - 2) else 0l in
      lent := (Bytes.sub_string buf 0 len, Crc32.slice buf ~pos:0 ~len, inner) :: !lent);
  let s = Journal.verify path in
  (Journal.read path, List.rev !lent, s.Journal.scrub_frames, s.Journal.valid_bytes)

let () =
  let first_use =
    together (fun _ ->
        let ok = ref true in
        for _ = 1 to rounds do
          (* The standard check value of CRC-32/IEEE. *)
          if Crc32.string "123456789" <> 0xCBF43926l then ok := false;
          ignore (Stob_sim.Engine.create ())
        done;
        !ok)
  in
  if not (List.for_all Fun.id first_use) then begin
    prerr_endline "test_domains: CRC-32 mismatch under concurrent first use";
    exit 1
  end;
  let dir = Filename.temp_dir "stob-test-domains" "" in
  let shared = Filename.concat dir "shared.stob" in
  let own = Array.init domains (fun d -> Filename.concat dir (Printf.sprintf "own-%d.stob" d)) in
  write_journal shared (payloads ~seed:0);
  Array.iteri (fun d path -> write_journal path (payloads ~seed:(d + 1))) own;
  let want_shared = observe shared in
  let want_own = Array.map observe own in
  let walks_ok =
    together (fun d ->
        let ok = ref true in
        for _ = 1 to walks do
          if observe own.(d) <> want_own.(d) || observe shared <> want_shared then ok := false
        done;
        !ok)
  in
  Array.iter Sys.remove (Array.append [| shared |] own);
  Sys.rmdir dir;
  if not (List.for_all Fun.id walks_ok) then begin
    prerr_endline "test_domains: a concurrent journal walk saw other frames than a sequential one";
    exit 1
  end;
  Printf.printf
    "test_domains: %d domains x %d rounds of Crc32.string and Engine.create, then x %d walks: ok\n"
    domains rounds walks
