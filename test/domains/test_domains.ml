(* First use from four domains at once of the values that used to be
   [lazy]: the CRC-32 table and the STOB_EVENT_QUEUE selection.  Two domains
   forcing one [lazy] for the first time raise CamlinternalLazy.Undefined;
   built at module initialisation, they are ready before any domain runs.
   The domains spin on one flag so that their first calls overlap. *)

let domains = 4
let rounds = 200

let () =
  let go = Atomic.make false and ready = Atomic.make 0 in
  let worker () =
    Atomic.incr ready;
    while not (Atomic.get go) do
      Domain.cpu_relax ()
    done;
    let ok = ref true in
    for _ = 1 to rounds do
      (* The standard check value of CRC-32/IEEE. *)
      if Stob_store.Crc32.string "123456789" <> 0xCBF43926l then ok := false;
      ignore (Stob_sim.Engine.create ())
    done;
    !ok
  in
  let ds = List.init domains (fun _ -> Domain.spawn worker) in
  while Atomic.get ready < domains do
    Domain.cpu_relax ()
  done;
  Atomic.set go true;
  let results = List.map Domain.join ds in
  if not (List.for_all Fun.id results) then begin
    prerr_endline "test_domains: CRC-32 mismatch under concurrent first use";
    exit 1
  end;
  Printf.printf "test_domains: %d domains x %d rounds of Crc32.string and Engine.create: ok\n"
    domains rounds
