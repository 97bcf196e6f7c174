(* The seed CRC-32, preserved as-is for the store.crc32 oracle.  Do not
   "improve" this file: its whole value is being the bytewise [Int32]
   original whose output Crc32.string and Crc32.slice must reproduce bit
   for bit. *)

let table =
  Array.init 256 (fun n ->
      let c = ref (Int32.of_int n) in
      for _ = 0 to 7 do
        c :=
          if Int32.logand !c 1l <> 0l then
            Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
          else Int32.shift_right_logical !c 1
      done;
      !c)

let string s =
  let crc = ref 0xFFFFFFFFl in
  String.iter
    (fun ch ->
      let idx = Int32.to_int (Int32.logand (Int32.logxor !crc (Int32.of_int (Char.code ch))) 0xFFl) in
      crc := Int32.logxor table.(idx) (Int32.shift_right_logical !crc 8))
    s;
  Int32.lognot !crc
