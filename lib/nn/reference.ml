(* The pre-batching per-sample engine, kept verbatim as the differential
   oracle for the float32 Tensor engine (see reference.mli).  Do not
   optimize this file: its value is that it stays the simple, obviously
   correct float64 implementation. *)

module Rng = Stob_util.Rng

module Layer = struct
  type t = {
    forward : float array -> float array;
    backward : float array -> float array;
    update : lr:float -> unit;
  }

  let momentum = 0.9

  (* Parameter block with gradient accumulation and momentum. *)
  type param = { value : float array; grad : float array; vel : float array }

  let make_param values =
    let n = Array.length values in
    { value = values; grad = Array.make n 0.0; vel = Array.make n 0.0 }

  let sgd_step p ~lr =
    for i = 0 to Array.length p.value - 1 do
      p.vel.(i) <- (momentum *. p.vel.(i)) -. (lr *. p.grad.(i));
      p.value.(i) <- p.value.(i) +. p.vel.(i);
      p.grad.(i) <- 0.0
    done

  let he_init rng n fan_in =
    let scale = sqrt (2.0 /. float_of_int (Int.max 1 fan_in)) in
    Array.init n (fun _ -> Rng.normal rng ~mu:0.0 ~sigma:scale)

  let dense ~rng ~inputs ~outputs =
    let w = make_param (he_init rng (inputs * outputs) inputs) in
    let b = make_param (Array.make outputs 0.0) in
    let cached_input = ref [||] in
    let forward x =
      cached_input := x;
      Array.init outputs (fun o ->
          let acc = ref b.value.(o) in
          let row = o * inputs in
          for i = 0 to inputs - 1 do
            acc := !acc +. (w.value.(row + i) *. x.(i))
          done;
          !acc)
    in
    let backward dout =
      let x = !cached_input in
      let din = Array.make inputs 0.0 in
      for o = 0 to outputs - 1 do
        let g = dout.(o) in
        b.grad.(o) <- b.grad.(o) +. g;
        let row = o * inputs in
        for i = 0 to inputs - 1 do
          w.grad.(row + i) <- w.grad.(row + i) +. (g *. x.(i));
          din.(i) <- din.(i) +. (g *. w.value.(row + i))
        done
      done;
      din
    in
    let update ~lr =
      sgd_step w ~lr;
      sgd_step b ~lr
    in
    { forward; backward; update }

  let relu () =
    let cached = ref [||] in
    let forward x =
      cached := x;
      Array.map (fun v -> if v > 0.0 then v else 0.0) x
    in
    let backward dout =
      Array.mapi (fun i g -> if !cached.(i) > 0.0 then g else 0.0) dout
    in
    { forward; backward; update = (fun ~lr:_ -> ()) }

  let conv_output_length ~length ~kernel = length - kernel + 1
  let pool_output_length ~length ~factor = length / factor

  let conv1d ~rng ~in_channels ~out_channels ~kernel ~length =
    let out_len = conv_output_length ~length ~kernel in
    if out_len <= 0 then invalid_arg "Layer.conv1d: kernel larger than input";
    let w = make_param (he_init rng (out_channels * in_channels * kernel) (in_channels * kernel)) in
    let b = make_param (Array.make out_channels 0.0) in
    let cached_input = ref [||] in
    let widx oc ic k = (((oc * in_channels) + ic) * kernel) + k in
    let forward x =
      cached_input := x;
      let out = Array.make (out_channels * out_len) 0.0 in
      for oc = 0 to out_channels - 1 do
        let obase = oc * out_len in
        for p = 0 to out_len - 1 do
          let acc = ref b.value.(oc) in
          for ic = 0 to in_channels - 1 do
            let ibase = ic * length in
            for k = 0 to kernel - 1 do
              acc := !acc +. (w.value.(widx oc ic k) *. x.(ibase + p + k))
            done
          done;
          out.(obase + p) <- !acc
        done
      done;
      out
    in
    let backward dout =
      let x = !cached_input in
      let din = Array.make (in_channels * length) 0.0 in
      for oc = 0 to out_channels - 1 do
        let obase = oc * out_len in
        for p = 0 to out_len - 1 do
          let g = dout.(obase + p) in
          if g <> 0.0 then begin
            b.grad.(oc) <- b.grad.(oc) +. g;
            for ic = 0 to in_channels - 1 do
              let ibase = ic * length in
              for k = 0 to kernel - 1 do
                w.grad.(widx oc ic k) <- w.grad.(widx oc ic k) +. (g *. x.(ibase + p + k));
                din.(ibase + p + k) <- din.(ibase + p + k) +. (g *. w.value.(widx oc ic k))
              done
            done
          end
        done
      done;
      din
    in
    let update ~lr =
      sgd_step w ~lr;
      sgd_step b ~lr
    in
    { forward; backward; update }

  let maxpool1d ~channels ~length ~factor =
    if factor <= 0 then invalid_arg "Layer.maxpool1d: factor must be positive";
    let out_len = pool_output_length ~length ~factor in
    if out_len = 0 then invalid_arg "Layer.maxpool1d: input shorter than factor";
    (* A fresh argmax buffer per forward: the original allocated one buffer
       per layer instance, so interleaved forwards (reuse, concurrency)
       silently cross-wired gradients, and backward-before-forward silently
       routed every gradient to index 0.  Now each backward reads exactly
       its own forward's indices, and a premature backward raises. *)
    let argmax = ref [||] in
    let forward x =
      let am = Array.make (channels * out_len) 0 in
      argmax := am;
      let out = Array.make (channels * out_len) 0.0 in
      for c = 0 to channels - 1 do
        let ibase = c * length and obase = c * out_len in
        for p = 0 to out_len - 1 do
          let start = ibase + (p * factor) in
          let best = ref start in
          for k = 1 to factor - 1 do
            if x.(start + k) > x.(!best) then best := start + k
          done;
          am.(obase + p) <- !best;
          out.(obase + p) <- x.(!best)
        done
      done;
      out
    in
    let backward dout =
      let am = !argmax in
      let din = Array.make (channels * length) 0.0 in
      Array.iteri (fun i g -> din.(am.(i)) <- din.(am.(i)) +. g) dout;
      din
    in
    { forward; backward; update = (fun ~lr:_ -> ()) }
end

module Network = struct
  type t = { layers : Layer.t list }

  let create layers = { layers }

  let logits t x = List.fold_left (fun acc layer -> layer.Layer.forward acc) x t.layers

  let predict t x =
    let out = logits t x in
    let best = ref 0 in
    Array.iteri (fun i v -> if v > out.(!best) then best := i) out;
    !best

  let softmax z =
    let m = Array.fold_left Float.max neg_infinity z in
    let exps = Array.map (fun v -> exp (v -. m)) z in
    let sum = Array.fold_left ( +. ) 0.0 exps in
    Array.map (fun v -> v /. sum) exps

  let train_sample t ~x ~label =
    let out = logits t x in
    let probs = softmax out in
    let loss = -.log (Float.max 1e-12 probs.(label)) in
    (* dLoss/dlogits of softmax cross-entropy: p - onehot. *)
    let dout = Array.mapi (fun i p -> if i = label then p -. 1.0 else p) probs in
    ignore (List.fold_left (fun acc layer -> layer.Layer.backward acc) dout (List.rev t.layers));
    loss

  let apply_update t ~lr = List.iter (fun layer -> layer.Layer.update ~lr) t.layers

  type progress = { epoch : int; mean_loss : float }

  let fit t ~rng ~xs ~labels ?(epochs = 30) ?(batch = 16) ?(lr = 0.01) ?on_epoch () =
    let n = Array.length xs in
    if n = 0 || n <> Array.length labels then invalid_arg "Network.fit: bad inputs";
    let order = Array.init n (fun i -> i) in
    for epoch = 1 to epochs do
      Rng.shuffle rng order;
      let total_loss = ref 0.0 in
      let in_batch = ref 0 in
      Array.iter
        (fun i ->
          total_loss := !total_loss +. train_sample t ~x:xs.(i) ~label:labels.(i);
          incr in_batch;
          if !in_batch >= batch then begin
            apply_update t ~lr:(lr /. float_of_int !in_batch);
            in_batch := 0
          end)
        order;
      if !in_batch > 0 then apply_update t ~lr:(lr /. float_of_int !in_batch);
      match on_epoch with
      | Some f -> f { epoch; mean_loss = !total_loss /. float_of_int n }
      | None -> ()
    done

  let accuracy t ~xs ~labels =
    let hits = ref 0 in
    Array.iteri (fun i x -> if predict t x = labels.(i) then incr hits) xs;
    float_of_int !hits /. float_of_int (Int.max 1 (Array.length xs))
end
