type direction = Outgoing | Incoming

let direction_sign = function Outgoing -> 1 | Incoming -> -1

type t = {
  flow : int;
  dir : direction;
  seq : int;
  ack : int;
  payload : int;
  header : int;
  syn : bool;
  fin : bool;
  is_ack : bool;
  dummy : bool;
  rtx : bool;
  rwnd : int;
  sack : (int * int) list;
  mss_opt : int option;
  wscale_opt : int option;
  sack_permitted : bool;
}

let default_header_bytes = 52

let wire_size t = t.payload + t.header

let data ~flow ~dir ~seq ~ack ~payload ?(header = default_header_bytes) ?(fin = false)
    ?(dummy = false) ?(rtx = false) ~rwnd () =
  if payload < 0 then invalid_arg "Packet.data: negative payload";
  {
    flow;
    dir;
    seq;
    ack;
    payload;
    header;
    syn = false;
    fin;
    is_ack = true;
    dummy;
    rtx;
    rwnd;
    sack = [];
    mss_opt = None;
    wscale_opt = None;
    sack_permitted = false;
  }

let pure_ack ~flow ~dir ~seq ~ack ?(header = default_header_bytes) ?(sack = []) ~rwnd () =
  let header = header + (8 * List.length sack) + if sack = [] then 0 else 4 in
  {
    flow;
    dir;
    seq;
    ack;
    payload = 0;
    header;
    syn = false;
    fin = false;
    is_ack = true;
    dummy = false;
    rtx = false;
    rwnd;
    sack;
    mss_opt = None;
    wscale_opt = None;
    sack_permitted = false;
  }

let syn ~flow ~dir ~seq ?(ack = None) ?(rtx = false) ?mss ?wscale ?(sack_permitted = false) ~rwnd
    () =
  let ackn, is_ack = match ack with None -> (0, false) | Some a -> (a, true) in
  let option_bytes =
    (* MSS option is 4 bytes, wscale 3, SACK-permitted 2; pad to a word. *)
    let b =
      (match mss with Some _ -> 4 | None -> 0)
      + (match wscale with Some _ -> 3 | None -> 0)
      + if sack_permitted then 2 else 0
    in
    (b + 3) / 4 * 4
  in
  {
    flow;
    dir;
    seq;
    ack = ackn;
    payload = 0;
    header = default_header_bytes + option_bytes;
    syn = true;
    fin = false;
    is_ack;
    dummy = false;
    rtx;
    rwnd;
    sack = [];
    mss_opt = mss;
    wscale_opt = wscale;
    sack_permitted;
  }

let seq_end t =
  let ctrl = (if t.syn then 1 else 0) + if t.fin then 1 else 0 in
  t.seq + (if t.dummy then 0 else t.payload) + ctrl
