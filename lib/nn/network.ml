module Rng = Stob_util.Rng
module Pool = Stob_par.Pool
module A1 = Bigarray.Array1

type t = { layers : Layer.t array }

let create layers =
  if layers = [] then invalid_arg "Network.create: empty network";
  { layers = Array.of_list layers }

let n_classes t = Layer.output_size t.layers.(Array.length t.layers - 1)

(* One shard's complete working set: per-layer ctxs, per-layer gradient
   accumulators, the input view recorded per layer during the forward
   pass (backward replays them), and the dLoss/dlogits buffer. *)
type shard_state = {
  ctxs : Layer.ctx array;
  grads : Layer.grads array;
  inputs : Tensor.t array;
  dlogits : Tensor.t;
}

let make_shard_state t ~rows =
  {
    ctxs = Array.map (fun l -> Layer.make_ctx l ~rows) t.layers;
    grads = Array.map Layer.make_grads t.layers;
    inputs = Array.make (Array.length t.layers) (Tensor.create 0 0);
    dlogits = Tensor.create rows (n_classes t);
  }

let forward_shard t st ~rows x =
  let cur = ref x in
  Array.iteri
    (fun j layer ->
      st.inputs.(j) <- !cur;
      cur := Layer.forward layer st.ctxs.(j) ~rows !cur)
    t.layers;
  !cur

(* Softmax cross-entropy over the shard's logits: returns the summed loss
   and fills st.dlogits with p - onehot (the same expressions, per row, as
   Reference.Network.train_sample). *)
let loss_and_dlogits st ~rows ~logits ~labels ~label_off =
  let k = Tensor.cols logits in
  let ld = Tensor.data logits and dd = Tensor.data st.dlogits in
  let total = ref 0.0 in
  for i = 0 to rows - 1 do
    let base = i * k in
    let label = labels.(label_off + i) in
    let m = ref neg_infinity in
    for c = 0 to k - 1 do
      let v = A1.unsafe_get ld (base + c) in
      if v > !m then m := v
    done;
    let sum = ref 0.0 in
    for c = 0 to k - 1 do
      sum := !sum +. exp (A1.unsafe_get ld (base + c) -. !m)
    done;
    for c = 0 to k - 1 do
      let p = exp (A1.unsafe_get ld (base + c) -. !m) /. !sum in
      A1.unsafe_set dd (base + c) (if c = label then p -. 1.0 else p);
      if c = label then total := !total -. log (Float.max 1e-12 p)
    done
  done;
  !total

let backward_shard t st ~rows =
  let cur = ref (Tensor.sub_rows st.dlogits ~off:0 ~len:rows) in
  for j = Array.length t.layers - 1 downto 0 do
    cur := Layer.backward t.layers.(j) st.ctxs.(j) st.grads.(j) ~rows ~input:st.inputs.(j) ~dout:!cur
  done

(* One shard's full training pass: zero its accumulators, forward,
   loss, backward.  Pure in (shared weights, its rows) — which is the
   pool determinism contract. *)
let run_shard t st ~rows ~x ~labels ~label_off =
  Array.iter Layer.zero_grads st.grads;
  let logits = forward_shard t st ~rows x in
  let loss = loss_and_dlogits st ~rows ~logits ~labels ~label_off in
  backward_shard t st ~rows;
  loss

type progress = { epoch : int; mean_loss : float }

(* Fixed shard width: a minibatch always splits into ceil(batch/4) shards
   of up to 4 rows, whatever the pool size, so the shard boundaries (and
   with the fixed-order reduction below, every float64 sum) are identical
   at any --jobs.  The rng is drawn only on the calling domain (epoch
   shuffles), never inside shard tasks. *)
let shard_rows = 4

let fit t ~rng ~xs ~labels ?(epochs = 30) ?(batch = 16) ?(lr = 0.01) ?(pool = Pool.sequential)
    ?on_epoch () =
  let n = Tensor.rows xs in
  if n = 0 || n <> Array.length labels then invalid_arg "Network.fit: bad inputs";
  if batch <= 0 then invalid_arg "Network.fit: batch must be positive";
  let features = Tensor.cols xs in
  if features <> Layer.input_size t.layers.(0) then
    invalid_arg "Network.fit: feature width does not match the first layer";
  let max_shards = (batch + shard_rows - 1) / shard_rows in
  let states =
    Array.init max_shards (fun _ -> make_shard_state t ~rows:(Int.min shard_rows batch))
  in
  let totals = Array.map Layer.make_grads t.layers in
  let bx = Tensor.create batch features in
  let blabels = Array.make batch 0 in
  let order = Array.init n (fun i -> i) in
  let xd = Tensor.data xs and bd = Tensor.data bx in
  for epoch = 1 to epochs do
    Rng.shuffle rng order;
    let total_loss = ref 0.0 in
    let pos = ref 0 in
    while !pos < n do
      let bn = Int.min batch (n - !pos) in
      for r = 0 to bn - 1 do
        A1.blit
          (A1.sub xd (order.(!pos + r) * features) features)
          (A1.sub bd (r * features) features);
        blabels.(r) <- labels.(order.(!pos + r))
      done;
      let n_sh = (bn + shard_rows - 1) / shard_rows in
      let losses =
        Pool.map pool
          (fun s ->
            let off = s * shard_rows in
            let rows = Int.min shard_rows (bn - off) in
            run_shard t states.(s) ~rows
              ~x:(Tensor.sub_rows bx ~off ~len:rows)
              ~labels:blabels ~label_off:off)
          (Array.init n_sh Fun.id)
      in
      Array.iter (fun l -> total_loss := !total_loss +. l) losses;
      Array.iter Layer.zero_grads totals;
      for s = 0 to n_sh - 1 do
        Array.iteri (fun li total -> Layer.add_grads ~src:states.(s).grads.(li) ~dst:total) totals
      done;
      let eff = lr /. float_of_int bn in
      Array.iteri (fun li layer -> Layer.apply_update layer totals.(li) ~lr:eff) t.layers;
      pos := !pos + bn
    done;
    match on_epoch with
    | Some f -> f { epoch; mean_loss = !total_loss /. float_of_int n }
    | None -> ()
  done

(* ------------------------------------------------------------------ *)
(* Inference. *)

let inference_chunk = 64

let logits_m ?(pool = Pool.sequential) t xs =
  let n = Tensor.rows xs in
  let k = n_classes t in
  let out = Tensor.create n k in
  if n > 0 then begin
    let n_ch = (n + inference_chunk - 1) / inference_chunk in
    ignore
      (Pool.map pool
         (fun c ->
           let off = c * inference_chunk in
           let rows = Int.min inference_chunk (n - off) in
           (* Each chunk task allocates its own ctxs and writes a disjoint
              row range of [out]. *)
           let ctxs = Array.map (fun l -> Layer.make_ctx l ~rows) t.layers in
           let cur = ref (Tensor.sub_rows xs ~off ~len:rows) in
           Array.iteri (fun j l -> cur := Layer.forward l ctxs.(j) ~rows !cur) t.layers;
           Tensor.blit ~src:!cur ~dst:(Tensor.sub_rows out ~off ~len:rows))
         (Array.init n_ch Fun.id))
  end;
  out

let argmax_rows logits =
  let k = Tensor.cols logits in
  Array.init (Tensor.rows logits) (fun i ->
      let best = ref 0 in
      for c = 1 to k - 1 do
        if Tensor.get logits i c > Tensor.get logits i !best then best := c
      done;
      !best)

let predict_m ?pool t xs = argmax_rows (logits_m ?pool t xs)

let accuracy_m ?pool t ~xs ~labels =
  let preds = predict_m ?pool t xs in
  let hits = ref 0 in
  Array.iteri (fun i p -> if p = labels.(i) then incr hits) preds;
  float_of_int !hits /. float_of_int (Int.max 1 (Array.length preds))

(* ------------------------------------------------------------------ *)
(* Test hooks: sequential whole-batch loss/gradients for the
   finite-difference checks, and a bit-exact state digest for the
   --jobs-invariance gates. *)

let loss t ~xs ~labels =
  let rows = Tensor.rows xs in
  let st = make_shard_state t ~rows in
  let logits = forward_shard t st ~rows xs in
  loss_and_dlogits st ~rows ~logits ~labels ~label_off:0

let gradients t ~xs ~labels =
  let rows = Tensor.rows xs in
  let st = make_shard_state t ~rows in
  let l = run_shard t st ~rows ~x:xs ~labels ~label_off:0 in
  let gs =
    Array.to_list st.grads
    |> List.concat_map (fun (g : Layer.grads) ->
           if Array.length g.gw = 0 then [] else [ Array.copy g.gw; Array.copy g.gb ])
  in
  (l, gs)

let weights_digest t =
  let buf = Buffer.create 4096 in
  Array.iter
    (fun layer ->
      List.iter
        (fun p ->
          let d = Tensor.data p in
          for i = 0 to A1.dim d - 1 do
            Buffer.add_int32_le buf (Int32.bits_of_float (A1.unsafe_get d i))
          done)
        (Layer.params layer);
      List.iter
        (fun v -> Array.iter (fun x -> Buffer.add_int64_le buf (Int64.bits_of_float x)) v)
        (Layer.velocities layer))
    t.layers;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let layers t = Array.to_list t.layers
