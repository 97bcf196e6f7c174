type t = { n_rows : int; n_cols : int; cols : floatarray array }

let of_rows rows =
  let n_rows = Array.length rows in
  let n_cols = if n_rows = 0 then 0 else Array.length rows.(0) in
  Array.iteri
    (fun i r ->
      if Array.length r <> n_cols then
        invalid_arg
          (Printf.sprintf "Matrix.of_rows: row %d has %d columns, expected %d" i
             (Array.length r) n_cols))
    rows;
  let cols =
    Array.init n_cols (fun c ->
        let col = Float.Array.create n_rows in
        for r = 0 to n_rows - 1 do
          Float.Array.set col r rows.(r).(c)
        done;
        col)
  in
  { n_rows; n_cols; cols }

let n_rows m = m.n_rows
let n_cols m = m.n_cols

let get m r c =
  if r < 0 || r >= m.n_rows then invalid_arg "Matrix.get: row out of bounds";
  Float.Array.get m.cols.(c) r

let col m c = m.cols.(c)

let presorted m =
  Array.init m.n_cols (fun c ->
      let col = m.cols.(c) in
      let order = Array.init m.n_rows (fun i -> i) in
      Array.sort (fun a b -> Float.compare (Float.Array.get col a) (Float.Array.get col b)) order;
      order)
