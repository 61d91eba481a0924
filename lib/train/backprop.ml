type grads = { dw : Linalg.Mat.t array; db : Linalg.Vec.t array }

let zero_like net =
  let n = Nn.Network.num_layers net in
  {
    dw =
      Array.init n (fun i ->
          let l = Nn.Network.layer net i in
          Linalg.Mat.zeros (Nn.Layer.output_dim l) (Nn.Layer.input_dim l));
    db =
      Array.init n (fun i ->
          Linalg.Vec.zeros (Nn.Layer.output_dim (Nn.Network.layer net i)));
  }

let accumulate acc g =
  Array.iteri (fun i m -> Linalg.Mat.add_in_place acc.dw.(i) m) g.dw;
  Array.iteri (fun i v -> Linalg.Vec.axpy 1.0 v acc.db.(i)) g.db

let scale_array s (a : float array) =
  for k = 0 to Array.length a - 1 do
    a.(k) <- s *. a.(k)
  done

let scale_in_place g s =
  Array.iter (fun m -> scale_array s (Linalg.Mat.data m)) g.dw;
  Array.iter (scale_array s) g.db

let global_norm g =
  let acc = ref 0.0 in
  Array.iter (fun m -> acc := !acc +. (Linalg.Mat.frobenius m ** 2.0)) g.dw;
  Array.iter (fun v -> acc := !acc +. Linalg.Vec.dot v v) g.db;
  sqrt !acc

let gradient ?hint net ~loss ~x ~target =
  let n = Nn.Network.num_layers net in
  let trace = Nn.Network.forward_trace net x in
  let output = trace.Nn.Network.post.(n - 1) in
  let value, dout = Loss.value_and_grad loss ~prediction:output ~target in
  let value, dout =
    match hint with
    | None -> (value, dout)
    | Some h ->
        let pv, pg = Hint.penalty_and_grad h ~input:x ~prediction:output in
        (value +. pv, Linalg.Vec.add dout pg)
  in
  let dw = Array.make n (Linalg.Mat.zeros 0 0) in
  let db = Array.make n [||] in
  (* delta starts as dL/d(post) of the output layer and is converted to
     dL/d(pre) layer by layer while walking backwards. *)
  let delta = ref dout in
  for i = n - 1 downto 0 do
    let l = Nn.Network.layer net i in
    let act_grad =
      Nn.Activation.derivative_vec l.Nn.Layer.activation trace.Nn.Network.pre.(i)
    in
    let dpre = Linalg.Vec.mul !delta act_grad in
    let input = if i = 0 then x else trace.Nn.Network.post.(i - 1) in
    dw.(i) <- Linalg.Mat.outer dpre input;
    db.(i) <- dpre;
    if i > 0 then delta := Linalg.Mat.mul_vec_transpose l.Nn.Layer.weights dpre
  done;
  (value, { dw; db })

let gradient_batch ?hint net ~loss ~xs ~targets =
  let bn = Array.length xs in
  if bn <> Array.length targets then
    invalid_arg "Backprop.gradient_batch: inputs/targets length mismatch";
  if bn = 0 then (0.0, zero_like net)
  else begin
    let n = Nn.Network.num_layers net in
    let x = Linalg.Mat.of_cols ~rows:(Nn.Network.input_dim net) xs in
    let tr = Nn.Network.forward_trace_batch net x in
    let out = tr.Nn.Network.posts.(n - 1) in
    (* Per-sample loss heads stay scalar (the loss is cheap relative to
       the matrix work); their gradients are packed back into a batch
       matrix for the backward sweep. *)
    let total = ref 0.0 in
    let douts =
      Array.init bn (fun j ->
          let prediction = Linalg.Mat.col out j in
          let value, dout =
            Loss.value_and_grad loss ~prediction ~target:targets.(j)
          in
          let value, dout =
            match hint with
            | None -> (value, dout)
            | Some h ->
                let pv, pg = Hint.penalty_and_grad h ~input:xs.(j) ~prediction in
                (value +. pv, Linalg.Vec.add dout pg)
          in
          total := !total +. value;
          dout)
    in
    let dw = Array.make n (Linalg.Mat.zeros 0 0) in
    let db = Array.make n [||] in
    (* Same backward recurrence as [gradient], one matrix per step:
       dW = Dpre Xᵀ and Wᵀ Dpre accumulate over samples / rows in the
       same ascending order as the per-sample outer/mul_vec_transpose
       path, so the summed batch gradient is bit-equal to folding
       [gradient] over the samples with [accumulate]. *)
    let delta =
      ref (Linalg.Mat.of_cols ~rows:(Nn.Network.output_dim net) douts)
    in
    for i = n - 1 downto 0 do
      let l = Nn.Network.layer net i in
      Nn.Activation.scale_by_derivative_in_place l.Nn.Layer.activation
        ~pre:tr.Nn.Network.pres.(i) ~delta:!delta;
      let input = if i = 0 then x else tr.Nn.Network.posts.(i - 1) in
      dw.(i) <- Linalg.Mat.mul !delta (Linalg.Mat.transpose input);
      db.(i) <- Linalg.Mat.row_sums !delta;
      if i > 0 then
        delta := Linalg.Mat.mul (Linalg.Mat.transpose l.Nn.Layer.weights) !delta
    done;
    (!total, { dw; db })
  end

let numeric_gradient net ~loss ~x ~target ~layer ~row ~col ~eps =
  let l = Nn.Network.layer net layer in
  let read, write =
    if col >= 0 then
      ( (fun () -> Linalg.Mat.get l.Nn.Layer.weights row col),
        fun v -> Linalg.Mat.set l.Nn.Layer.weights row col v )
    else
      ( (fun () -> Linalg.Vec.get l.Nn.Layer.bias row),
        fun v -> Linalg.Vec.set l.Nn.Layer.bias row v )
  in
  let original = read () in
  let eval v =
    write v;
    let out = Nn.Network.forward net x in
    Loss.value loss ~prediction:out ~target
  in
  let up = eval (original +. eps) in
  let down = eval (original -. eps) in
  write original;
  (up -. down) /. (2.0 *. eps)
