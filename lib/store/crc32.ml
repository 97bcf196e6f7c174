(* Slicing-by-8 over native ints.  Table [k] (entries [k * 256 ..]) maps a
   byte to its CRC contribution [k] byte positions before the end of an
   8-byte block, so one table lookup per byte replaces eight shift/xor
   steps, and the eight lookups of a block are independent.  The
   accumulator is a plain [int] holding 32 bits (OCaml 5 native code is
   64-bit only), so nothing is boxed until the final [int32].

   Built at module initialisation, not lazily: two domains forcing a
   [lazy] for the first time at once raise [CamlinternalLazy.Undefined]. *)
let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
    done
  done;
  t

let[@inline] t i = Array.unsafe_get tables i
let[@inline] get b i = Char.code (Bytes.unsafe_get b i)

let slice b ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then invalid_arg "Crc32.slice";
  let crc = ref 0xFFFFFFFF in
  let i = ref pos in
  let blocks_end = pos + (len land lnot 7) in
  while !i < blocks_end do
    let j = !i in
    let c =
      !crc
      lxor (get b j lor (get b (j + 1) lsl 8) lor (get b (j + 2) lsl 16) lor (get b (j + 3) lsl 24))
    in
    crc :=
      t ((7 * 256) + (c land 0xff))
      lxor t ((6 * 256) + ((c lsr 8) land 0xff))
      lxor t ((5 * 256) + ((c lsr 16) land 0xff))
      lxor t ((4 * 256) + (c lsr 24))
      lxor t ((3 * 256) + get b (j + 4))
      lxor t ((2 * 256) + get b (j + 5))
      lxor t (256 + get b (j + 6))
      lxor t (get b (j + 7));
    i := j + 8
  done;
  let stop = pos + len in
  while !i < stop do
    crc := t ((!crc lxor get b !i) land 0xff) lxor (!crc lsr 8);
    incr i
  done;
  Int32.of_int (!crc lxor 0xFFFFFFFF)

(* [slice] only reads, so viewing the string as bytes is safe. *)
let string s = slice (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)
