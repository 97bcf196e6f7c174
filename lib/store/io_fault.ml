module Rng = Stob_util.Rng

exception Crash of int

type plan = {
  seed : int;
  crash_at : int option;
  short_writes : bool;
  transient : (Unix.error * int * int) option;
  fail_from : (Unix.error * int) option;
  rename_fails : int;
}

let quiet =
  { seed = 0; crash_at = None; short_writes = false; transient = None; fail_from = None;
    rename_fails = 0 }

type t = {
  plan : plan;
  short_rng : Rng.t;
  crash_rng : Rng.t;
  mutable ops : int;
  mutable wf_seq : int;  (* write/flush calls seen, for transient periods *)
  mutable burst_left : int;  (* remaining transient failures in the current burst *)
  mutable renames_failed : int;
  mutable dead : bool;
  mutable crash_op : int;
  mutable injected : int;
}

let arm plan =
  (* Pre-split per concern, Stob_sim.Fault-style: the crash prefix draw
     does not move if the short-write stream consumes more or fewer
     values. *)
  let root = Rng.create plan.seed in
  let short_rng = Rng.split root in
  let crash_rng = Rng.split root in
  { plan; short_rng; crash_rng; ops = 0; wf_seq = 0; burst_left = 0; renames_failed = 0;
    dead = false; crash_op = 0; injected = 0 }

let ops t = t.ops
let crashed t = t.dead
let injected t = t.injected

let die t =
  t.dead <- true;
  t.crash_op <- t.ops;
  t.injected <- t.injected + 1;
  raise (Crash t.ops)

(* Count one boundary; returns true when this is the crash boundary.  The
   caller decides what "dying here" means (plain ops raise immediately,
   writes first emit a seeded prefix). *)
let boundary t =
  if t.dead then raise (Crash t.crash_op);
  t.ops <- t.ops + 1;
  match t.plan.crash_at with Some k when t.ops = k -> true | _ -> false

(* Transient / persistent error injection shared by write and flush. *)
let write_side_fault t ~syscall ~path =
  (match t.plan.fail_from with
  | Some (err, k) when t.ops >= k ->
      t.injected <- t.injected + 1;
      raise (Unix.Unix_error (err, syscall, path))
  | _ -> ());
  t.wf_seq <- t.wf_seq + 1;
  if t.burst_left > 0 then begin
    t.burst_left <- t.burst_left - 1;
    match t.plan.transient with
    | Some (err, _, _) ->
        t.injected <- t.injected + 1;
        raise (Unix.Unix_error (err, syscall, path))
    | None -> ()
  end
  else
    match t.plan.transient with
    | Some (err, period, times) when period > 0 && t.wf_seq mod period = 0 ->
        t.burst_left <- times - 1;
        t.injected <- t.injected + 1;
        raise (Unix.Unix_error (err, syscall, path))
    | _ -> ()

let plain t f =
  if boundary t then die t;
  f ()

let vfs t =
  let b = Vfs.unix in
  {
    Vfs.open_append = (fun path -> plain t (fun () -> b.Vfs.open_append path));
    open_trunc = (fun path -> plain t (fun () -> b.Vfs.open_trunc path));
    write =
      (fun fd buf ~pos ~len ->
        if boundary t then begin
          (* Die mid-write: a seeded prefix of the buffer reaches the
             file — the torn-tail case recovery must absorb. *)
          let prefix = if len = 0 then 0 else Rng.int t.crash_rng len in
          if prefix > 0 then Vfs.write_all b fd (Bytes.sub buf pos prefix);
          die t
        end;
        write_side_fault t ~syscall:"write" ~path:"<fd>";
        let len =
          if t.plan.short_writes && len > 1 then begin
            let cut = 1 + Rng.int t.short_rng len in
            if cut < len then t.injected <- t.injected + 1;
            min cut len
          end
          else len
        in
        b.Vfs.write fd buf ~pos ~len);
    flush =
      (fun fd ->
        if boundary t then die t;
        write_side_fault t ~syscall:"flush" ~path:"<fd>";
        b.Vfs.flush fd);
    close =
      (fun fd ->
        (* No-op after death so finalizers unwind cleanly; a crash at
           the close boundary itself is still a real crash point. *)
        if t.dead then ()
        else if boundary t then die t
        else b.Vfs.close fd);
    rename =
      (fun src dst ->
        if boundary t then die t;
        if t.renames_failed < t.plan.rename_fails then begin
          t.renames_failed <- t.renames_failed + 1;
          t.injected <- t.injected + 1;
          raise (Unix.Unix_error (Unix.EIO, "rename", src))
        end;
        b.Vfs.rename src dst);
    truncate = (fun path len -> plain t (fun () -> b.Vfs.truncate path len));
    file_size = b.Vfs.file_size;  (* read-only: not a boundary *)
    remove = (fun path -> plain t (fun () -> b.Vfs.remove path));
  }
