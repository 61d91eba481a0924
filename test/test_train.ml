(* {1 Backprop vs finite differences} *)

let check_all_gradients net loss x target tolerance =
  let _, grads = Train.Backprop.gradient net ~loss ~x ~target in
  for li = 0 to Nn.Network.num_layers net - 1 do
    let layer = Nn.Network.layer net li in
    for r = 0 to Nn.Layer.output_dim layer - 1 do
      for c = -1 to Nn.Layer.input_dim layer - 1 do
        let analytic =
          if c >= 0 then Linalg.Mat.get grads.Train.Backprop.dw.(li) r c
          else grads.Train.Backprop.db.(li).(r)
        in
        let numeric =
          Train.Backprop.numeric_gradient net ~loss ~x ~target ~layer:li ~row:r
            ~col:c ~eps:1e-5
        in
        if Float.abs (numeric -. analytic) > tolerance *. (1.0 +. Float.abs numeric)
        then
          Alcotest.failf "layer %d (%d,%d): analytic %g vs numeric %g" li r c
            analytic numeric
      done
    done
  done

let test_backprop_mse_tanh () =
  let rng = Linalg.Rng.create 1 in
  let net =
    Nn.Network.create ~rng ~hidden_activation:Nn.Activation.Tanh [ 3; 5; 2 ]
  in
  check_all_gradients net Train.Loss.Mse [| 0.2; -0.4; 0.7 |] [| 0.5; -0.1 |] 1e-4

let test_backprop_mse_sigmoid () =
  let rng = Linalg.Rng.create 2 in
  let net =
    Nn.Network.create ~rng ~hidden_activation:Nn.Activation.Sigmoid [ 4; 6; 3 ]
  in
  check_all_gradients net Train.Loss.Mse [| 0.1; 0.2; 0.3; -0.5 |]
    [| 0.0; 1.0; -1.0 |] 1e-4

let test_backprop_mdn () =
  let rng = Linalg.Rng.create 3 in
  let net =
    Nn.Network.create ~rng ~hidden_activation:Nn.Activation.Tanh [ 3; 6; 10 ]
  in
  check_all_gradients net
    (Train.Loss.Mdn { components = 2 })
    [| 0.3; -0.1; 0.6 |] [| 0.8; -0.4 |] 1e-3

let prop_backprop_relu_random =
  (* ReLU gradients are exact except on the measure-zero kink; finite
     differences agree away from it. *)
  QCheck.Test.make ~name:"relu backprop matches finite diff" ~count:25
    (QCheck.make QCheck.Gen.(int_range 0 10000))
    (fun seed ->
      let rng = Linalg.Rng.create seed in
      let net = Nn.Network.create ~rng [ 3; 4; 4; 2 ] in
      let x = Array.init 3 (fun _ -> Linalg.Rng.uniform rng (-1.0) 1.0) in
      let target = Array.init 2 (fun _ -> Linalg.Rng.uniform rng (-1.0) 1.0) in
      let trace = Nn.Network.forward_trace net x in
      let near_kink =
        Array.exists
          (fun pre -> Array.exists (fun z -> Float.abs z < 1e-3) pre)
          trace.Nn.Network.pre
      in
      if near_kink then true
      else begin
      let _, grads = Train.Backprop.gradient net ~loss:Train.Loss.Mse ~x ~target in
      let ok = ref true in
      for li = 0 to Nn.Network.num_layers net - 1 do
        let layer = Nn.Network.layer net li in
        for r = 0 to Nn.Layer.output_dim layer - 1 do
          let analytic = grads.Train.Backprop.db.(li).(r) in
          let numeric =
            Train.Backprop.numeric_gradient net ~loss:Train.Loss.Mse ~x ~target
              ~layer:li ~row:r ~col:(-1) ~eps:1e-6
          in
          if Float.abs (numeric -. analytic) > 1e-3 *. (1.0 +. Float.abs numeric)
          then ok := false
        done
      done;
      !ok
      end)

(* {1 Grads plumbing} *)

let test_grads_accumulate_scale_norm () =
  let rng = Linalg.Rng.create 4 in
  let net = Nn.Network.create ~rng [ 2; 3; 1 ] in
  let x = [| 0.5; -0.5 |] and target = [| 0.3 |] in
  let _, g1 = Train.Backprop.gradient net ~loss:Train.Loss.Mse ~x ~target in
  let acc = Train.Backprop.zero_like net in
  Train.Backprop.accumulate acc g1;
  Train.Backprop.accumulate acc g1;
  Train.Backprop.scale_in_place acc 0.5;
  (* acc should now equal g1 *)
  Alcotest.(check (float 1e-9)) "accumulate+scale = identity"
    (Train.Backprop.global_norm g1)
    (Train.Backprop.global_norm acc);
  Alcotest.(check (float 1e-12)) "zero grads have zero norm" 0.0
    (Train.Backprop.global_norm (Train.Backprop.zero_like net))

(* {1 Optimizers} *)

let fit_line optimizer epochs =
  (* Learn y = 2x - 1 with a linear network. *)
  let rng = Linalg.Rng.create 5 in
  let net =
    Nn.Network.create ~rng ~hidden_activation:Nn.Activation.Identity [ 1; 1 ]
  in
  let samples =
    Array.init 64 (fun i ->
        let x = (float_of_int i /. 32.0) -. 1.0 in
        ([| x |], [| (2.0 *. x) -. 1.0 |]))
  in
  let config =
    {
      (Train.Trainer.default ()) with
      Train.Trainer.epochs;
      batch_size = 8;
      optimizer;
      clip_norm = None;
    }
  in
  let history = Train.Trainer.fit config net samples () in
  (net, history, samples)

let test_sgd_learns_line () =
  let net, history, samples = fit_line (Train.Optimizer.sgd ~momentum:0.9 0.05) 200 in
  let final = Train.Trainer.mean_loss Train.Loss.Mse net samples in
  Alcotest.(check bool) "loss small" true (final < 1e-3);
  Alcotest.(check bool) "loss decreased" true
    (history.Train.Trainer.train_loss.(0) > final)

let test_adam_learns_line () =
  let net, _, samples = fit_line (Train.Optimizer.adam 0.05) 200 in
  let final = Train.Trainer.mean_loss Train.Loss.Mse net samples in
  Alcotest.(check bool) "loss small" true (final < 1e-3)

let test_adam_beats_initial_on_nonlinear () =
  let rng = Linalg.Rng.create 6 in
  let net = Nn.Network.create ~rng [ 2; 8; 8; 1 ] in
  let data_rng = Linalg.Rng.create 7 in
  let samples =
    Array.init 256 (fun _ ->
        let a = Linalg.Rng.uniform data_rng (-1.0) 1.0 in
        let b = Linalg.Rng.uniform data_rng (-1.0) 1.0 in
        ([| a; b |], [| a *. b |]))
  in
  let before = Train.Trainer.mean_loss Train.Loss.Mse net samples in
  let config =
    { (Train.Trainer.default ()) with Train.Trainer.epochs = 60; batch_size = 32 }
  in
  let history = Train.Trainer.fit config net samples () in
  let after = Train.Trainer.mean_loss Train.Loss.Mse net samples in
  Alcotest.(check bool) "improved 10x" true (after < before /. 10.0);
  Alcotest.(check int) "history length" 60
    (Array.length history.Train.Trainer.train_loss)

(* {1 Trainer mechanics} *)

let test_trainer_rejects_empty () =
  let rng = Linalg.Rng.create 8 in
  let net = Nn.Network.create ~rng [ 1; 1 ] in
  Alcotest.check_raises "empty" (Invalid_argument "Trainer.fit: empty training set")
    (fun () -> ignore (Train.Trainer.fit (Train.Trainer.default ()) net [||] ()))

let test_early_stopping () =
  let rng = Linalg.Rng.create 9 in
  let net = Nn.Network.create ~rng [ 1; 4; 1 ] in
  let samples = Array.init 16 (fun i -> ([| float_of_int i /. 16.0 |], [| 0.5 |])) in
  (* Validation the model cannot fit: its loss stops improving quickly. *)
  let noise = Linalg.Rng.create 99 in
  let validation =
    Array.init 16 (fun _ ->
        ([| Linalg.Rng.uniform noise (-1.0) 1.0 |],
         [| Linalg.Rng.uniform noise (-5.0) 5.0 |]))
  in
  let config =
    {
      (Train.Trainer.default ()) with
      Train.Trainer.epochs = 500;
      early_stopping_patience = Some 3;
    }
  in
  let history = Train.Trainer.fit config net samples ~validation () in
  Alcotest.(check bool) "stopped before 500" true
    (history.Train.Trainer.epochs_run < 500);
  Alcotest.(check int) "val history matches epochs"
    history.Train.Trainer.epochs_run
    (Array.length history.Train.Trainer.val_loss)

let test_mdn_training_improves_nll () =
  let rng = Linalg.Rng.create 10 in
  let components = 2 in
  let net =
    Nn.Network.create ~rng [ 2; 8; Nn.Gmm.output_dim ~components ]
  in
  let data_rng = Linalg.Rng.create 11 in
  let samples =
    Array.init 200 (fun _ ->
        let x = Linalg.Rng.uniform data_rng (-1.0) 1.0 in
        let y = Linalg.Rng.uniform data_rng (-1.0) 1.0 in
        (* Deterministic action depending on inputs. *)
        ([| x; y |], [| 0.8 *. x; -0.5 *. y |]))
  in
  let loss = Train.Loss.Mdn { components } in
  let before = Train.Trainer.mean_loss loss net samples in
  let config =
    { (Train.Trainer.default ~loss ()) with Train.Trainer.epochs = 40 }
  in
  ignore (Train.Trainer.fit config net samples ());
  let after = Train.Trainer.mean_loss loss net samples in
  Alcotest.(check bool) "NLL decreased" true (after < before -. 0.3)

(* {1 Safety hints (Sec. IV(iii))} *)

let hint_for_tests =
  {
    Train.Hint.weight = 2.0;
    limit = 0.5;
    gate_feature = 0;
    outputs = [ 1 ];
  }

let test_hint_gate_off () =
  let v, g =
    Train.Hint.penalty_and_grad hint_for_tests ~input:[| 0.0; 0.0 |]
      ~prediction:[| 0.0; 5.0 |]
  in
  Alcotest.(check (float 0.0)) "no penalty when gate off" 0.0 v;
  Alcotest.(check (float 0.0)) "no gradient" 0.0 g.(1)

let test_hint_gate_on () =
  let v, g =
    Train.Hint.penalty_and_grad hint_for_tests ~input:[| 1.0; 0.0 |]
      ~prediction:[| 0.0; 1.5 |]
  in
  (* excess 1.0 -> penalty 2*1 = 2, grad 2*2*1 = 4 *)
  Alcotest.(check (float 1e-9)) "penalty" 2.0 v;
  Alcotest.(check (float 1e-9)) "gradient" 4.0 g.(1);
  Alcotest.(check (float 0.0)) "other outputs untouched" 0.0 g.(0)

let test_hint_below_limit_free () =
  let v, _ =
    Train.Hint.penalty_and_grad hint_for_tests ~input:[| 1.0; 0.0 |]
      ~prediction:[| 0.0; 0.4 |]
  in
  Alcotest.(check (float 0.0)) "no penalty below limit" 0.0 v

let test_hint_left_safety_layout () =
  let h = Train.Hint.left_safety ~components:3 () in
  Alcotest.(check int) "gates on left presence"
    (Highway.Features.orientation_base Highway.Orientation.Left
     + Highway.Features.presence_offset)
    h.Train.Hint.gate_feature;
  Alcotest.(check (list int)) "limits the lateral means"
    [ Nn.Gmm.mu_lat_index ~components:3 0;
      Nn.Gmm.mu_lat_index ~components:3 1;
      Nn.Gmm.mu_lat_index ~components:3 2 ]
    h.Train.Hint.outputs

let test_hint_training_suppresses_output () =
  (* Data says "output 5 when gated"; the hint says "stay below 0.5 when
     gated". Hinted training must land well below unhinted training. *)
  let make_samples () =
    Array.init 64 (fun i ->
        let gate = if i mod 2 = 0 then 1.0 else 0.0 in
        ([| gate; 0.3 |], [| (if gate = 1.0 then 5.0 else 0.2); 0.0 |]))
  in
  let train hint =
    let rng = Linalg.Rng.create 21 in
    let net = Nn.Network.create ~rng [ 2; 8; 2 ] in
    let config =
      {
        (Train.Trainer.default ()) with
        Train.Trainer.epochs = 250;
        optimizer = Train.Optimizer.adam 0.01;
        hint;
      }
    in
    ignore (Train.Trainer.fit config net (make_samples ()) ());
    (Nn.Network.forward net [| 1.0; 0.3 |]).(0)
  in
  let plain = train None in
  let hinted =
    train
      (Some { Train.Hint.weight = 10.0; limit = 0.5; gate_feature = 0; outputs = [ 0 ] })
  in
  Alcotest.(check bool) "plain tracks the data" true (plain > 3.0);
  Alcotest.(check bool) "hint suppresses the unsafe output" true (hinted < plain /. 2.0)

let test_loss_names () =
  Alcotest.(check string) "mse" "mse" (Train.Loss.name Train.Loss.Mse);
  Alcotest.(check string) "mdn" "mdn-3"
    (Train.Loss.name (Train.Loss.Mdn { components = 3 }))

let test_loss_mse_known () =
  let v, g =
    Train.Loss.value_and_grad Train.Loss.Mse ~prediction:[| 1.0; 2.0 |]
      ~target:[| 0.0; 0.0 |]
  in
  Alcotest.(check (float 1e-9)) "value" 2.5 v;
  Alcotest.(check (float 1e-9)) "grad 0" 1.0 g.(0);
  Alcotest.(check (float 1e-9)) "grad 1" 2.0 g.(1)

let test_loss_dimension_checks () =
  Alcotest.(check bool) "mse mismatch" true
    (try
       ignore
         (Train.Loss.value_and_grad Train.Loss.Mse ~prediction:[| 1.0 |]
            ~target:[| 1.0; 2.0 |]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "mdn target dim" true
    (try
       ignore
         (Train.Loss.value_and_grad
            (Train.Loss.Mdn { components = 1 })
            ~prediction:(Array.make 5 0.0) ~target:[| 1.0 |]);
       false
     with Invalid_argument _ -> true)

(* {1 Batched gradients} *)

let grads_bit_equal a b =
  Array.for_all2 (Linalg.Mat.approx_equal ~eps:0.0) a.Train.Backprop.dw
    b.Train.Backprop.dw
  && Array.for_all2 (Linalg.Vec.approx_equal ~eps:0.0) a.Train.Backprop.db
       b.Train.Backprop.db

(* The batched sweep accumulates over samples in ascending order, so it
   must reproduce the fold of per-sample [gradient] + [accumulate] to
   the last bit — the trainer's minibatch loop depends on this to keep
   training runs reproducible across the batched conversion. *)
let test_gradient_batch_matches_fold () =
  List.iter
    (fun (loss, output_dim, target_dim) ->
      let rng = Linalg.Rng.create (97 + output_dim) in
      let net =
        Nn.Network.create ~rng ~hidden_activation:Nn.Activation.Tanh
          [ 6; 9; output_dim ]
      in
      let n = 11 in
      let xs =
        Array.init n (fun _ ->
            Array.init 6 (fun _ -> Linalg.Rng.uniform rng (-1.0) 1.0))
      in
      let targets =
        Array.init n (fun _ ->
            Array.init target_dim (fun _ -> Linalg.Rng.uniform rng (-1.0) 1.0))
      in
      let batch_loss, batch_grads =
        Train.Backprop.gradient_batch net ~loss ~xs ~targets
      in
      let folded = Train.Backprop.zero_like net in
      let folded_loss = ref 0.0 in
      Array.iteri
        (fun i x ->
          let l, g =
            Train.Backprop.gradient net ~loss ~x ~target:targets.(i)
          in
          folded_loss := !folded_loss +. l;
          Train.Backprop.accumulate folded g)
        xs;
      Alcotest.(check (float 0.0))
        (Train.Loss.name loss ^ " summed loss")
        !folded_loss batch_loss;
      Alcotest.(check bool)
        (Train.Loss.name loss ^ " summed grads bit-equal")
        true
        (grads_bit_equal folded batch_grads))
    [ (Train.Loss.Mse, 2, 2); (Train.Loss.Mdn { components = 2 }, 10, 2) ]

let test_gradient_batch_empty () =
  let rng = Linalg.Rng.create 12 in
  let net = Nn.Network.create ~rng [ 3; 4; 2 ] in
  let loss, grads =
    Train.Backprop.gradient_batch net ~loss:Train.Loss.Mse ~xs:[||] ~targets:[||]
  in
  Alcotest.(check (float 0.0)) "zero loss" 0.0 loss;
  Alcotest.(check bool) "zero grads" true
    (grads_bit_equal grads (Train.Backprop.zero_like net))

(* {1 Reference optimiser step}

   The optimiser step written per weight (one closure call per
   parameter), gradient scaling into fresh arrays, and the fold-based
   norm. The flat loops must reproduce them bit for bit: the
   benchmark's pinned models are trained through them. *)

module Ref = struct
  type state = {
    m : Train.Backprop.grads;
    v : Train.Backprop.grads;
    mutable step_count : int;
  }

  let init net =
    {
      m = Train.Backprop.zero_like net;
      v = Train.Backprop.zero_like net;
      step_count = 0;
    }

  let update_layer_weights net i f =
    let l = Nn.Network.layer net i in
    let w = l.Nn.Layer.weights and b = l.Nn.Layer.bias in
    for r = 0 to Linalg.Mat.rows w - 1 do
      for c = 0 to Linalg.Mat.cols w - 1 do
        Linalg.Mat.set w r c (f `Weight i r c (Linalg.Mat.get w r c))
      done;
      Linalg.Vec.set b r (f `Bias i r (-1) (Linalg.Vec.get b r))
    done

  let step t state net (grads : Train.Backprop.grads) =
    state.step_count <- state.step_count + 1;
    let read (g : Train.Backprop.grads) kind i r c =
      match kind with
      | `Weight -> Linalg.Mat.get g.Train.Backprop.dw.(i) r c
      | `Bias -> Linalg.Vec.get g.Train.Backprop.db.(i) r
    in
    let write (g : Train.Backprop.grads) kind i r c value =
      match kind with
      | `Weight -> Linalg.Mat.set g.Train.Backprop.dw.(i) r c value
      | `Bias -> Linalg.Vec.set g.Train.Backprop.db.(i) r value
    in
    match t with
    | Train.Optimizer.Sgd { lr; momentum } ->
        let f kind i r c current =
          let g = read grads kind i r c in
          let vel = (momentum *. read state.m kind i r c) -. (lr *. g) in
          write state.m kind i r c vel;
          current +. vel
        in
        for i = 0 to Nn.Network.num_layers net - 1 do
          update_layer_weights net i f
        done
    | Train.Optimizer.Adam { lr; beta1; beta2; eps } ->
        let tstep = float_of_int state.step_count in
        let bc1 = 1.0 -. (beta1 ** tstep) and bc2 = 1.0 -. (beta2 ** tstep) in
        let f kind i r c current =
          let g = read grads kind i r c in
          let m' = (beta1 *. read state.m kind i r c) +. ((1.0 -. beta1) *. g) in
          let v' =
            (beta2 *. read state.v kind i r c) +. ((1.0 -. beta2) *. g *. g)
          in
          write state.m kind i r c m';
          write state.v kind i r c v';
          let mhat = m' /. bc1 and vhat = v' /. bc2 in
          current -. (lr *. mhat /. (sqrt vhat +. eps))
        in
        for i = 0 to Nn.Network.num_layers net - 1 do
          update_layer_weights net i f
        done

  let scale_in_place (g : Train.Backprop.grads) s =
    Array.iteri
      (fun i m ->
        let scaled = Linalg.Mat.scale s m in
        g.Train.Backprop.dw.(i) <- scaled)
      g.Train.Backprop.dw;
    Array.iteri
      (fun i v -> g.Train.Backprop.db.(i) <- Linalg.Vec.scale s v)
      g.Train.Backprop.db

  let frobenius m =
    sqrt
      (Array.fold_left (fun acc x -> acc +. (x *. x)) 0.0 (Linalg.Mat.data m))

  let global_norm (g : Train.Backprop.grads) =
    let acc = ref 0.0 in
    Array.iter
      (fun m -> acc := !acc +. (frobenius m ** 2.0))
      g.Train.Backprop.dw;
    Array.iter
      (fun v -> acc := !acc +. Linalg.Vec.dot v v)
      g.Train.Backprop.db;
    sqrt !acc
end

let floats_bit_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
       a b

let grads_bits_equal (a : Train.Backprop.grads) (b : Train.Backprop.grads) =
  Array.for_all2
    (fun x y -> floats_bit_equal (Linalg.Mat.data x) (Linalg.Mat.data y))
    a.Train.Backprop.dw b.Train.Backprop.dw
  && Array.for_all2 floats_bit_equal a.Train.Backprop.db b.Train.Backprop.db

let nets_bit_equal a b =
  List.for_all
    (fun i ->
      let la = Nn.Network.layer a i and lb = Nn.Network.layer b i in
      floats_bit_equal
        (Linalg.Mat.data la.Nn.Layer.weights)
        (Linalg.Mat.data lb.Nn.Layer.weights)
      && floats_bit_equal la.Nn.Layer.bias lb.Nn.Layer.bias)
    (List.init (Nn.Network.num_layers a) Fun.id)

let copy_grads (g : Train.Backprop.grads) =
  {
    Train.Backprop.dw = Array.map Linalg.Mat.copy g.Train.Backprop.dw;
    db = Array.map Array.copy g.Train.Backprop.db;
  }

(* Gradient entries drawn to reach the arithmetic's edges: zeros of both
   signs, +-1e300 (whose squares overflow), subnormals, and ordinary
   values. *)
let random_grads rng net =
  let entry () =
    match Linalg.Rng.int rng 8 with
    | 0 -> 0.0
    | 1 -> -0.0
    | 2 -> 1e300
    | 3 -> -1e300
    | 4 -> Float.ldexp (Linalg.Rng.uniform rng (-1.0) 1.0) (-1030)
    | 5 -> Linalg.Rng.uniform rng (-1e6) 1e6
    | _ -> Linalg.Rng.uniform rng (-1.0) 1.0
  in
  let g = Train.Backprop.zero_like net in
  Array.iter
    (fun m ->
      let d = Linalg.Mat.data m in
      Array.iteri (fun k _ -> d.(k) <- entry ()) d)
    g.Train.Backprop.dw;
  Array.iter
    (fun v -> Array.iteri (fun k _ -> v.(k) <- entry ()) v)
    g.Train.Backprop.db;
  g

let prop_optimizer_matches_reference =
  QCheck.Test.make ~name:"optimizer step matches the per-weight reference"
    ~count:60
    (QCheck.make QCheck.Gen.(int_range 0 1_000_000))
    (fun seed ->
      let rng = Linalg.Rng.create seed in
      let dims = List.init (2 + Linalg.Rng.int rng 3) (fun _ -> 1 + Linalg.Rng.int rng 6) in
      let net = Nn.Network.create ~rng dims in
      List.for_all
        (fun optimizer ->
          let net = Nn.Network.copy net and oracle = Nn.Network.copy net in
          let state = Train.Optimizer.init optimizer net in
          let ref_state = Ref.init oracle in
          List.for_all
            (fun _ ->
              let g = random_grads rng net in
              let s = Linalg.Rng.uniform rng (-2.0) 2.0 in
              let scaled = copy_grads g and ref_scaled = copy_grads g in
              Train.Backprop.scale_in_place scaled s;
              Ref.scale_in_place ref_scaled s;
              Train.Optimizer.step optimizer state net g;
              Ref.step optimizer ref_state oracle g;
              grads_bits_equal scaled ref_scaled
              && Int64.bits_of_float (Train.Backprop.global_norm g)
                 = Int64.bits_of_float (Ref.global_norm g)
              && nets_bit_equal net oracle
              && grads_bits_equal state.Train.Optimizer.m ref_state.Ref.m
              && grads_bits_equal state.Train.Optimizer.v ref_state.Ref.v)
            (List.init 20 Fun.id))
        [
          Train.Optimizer.adam (Linalg.Rng.uniform rng 1e-4 0.1);
          Train.Optimizer.sgd
            ~momentum:(Linalg.Rng.uniform rng 0.0 0.99)
            (Linalg.Rng.uniform rng 1e-4 0.1);
        ])

(* The pinned I4x10 of the benchmark (bench/record/models.ml): the
   seed-7 corpus recorded under [Risky 0.25], sanitized, and fitted for
   15 MDN epochs. Its content hash covers every weight's bits, so a
   change to recording or training that is meant to be faster, not
   different, must leave it as it is. *)
let test_pinned_weights_golden () =
  let samples =
    Highway.Recorder.record ~rng:(Linalg.Rng.create 7)
      ~style:(Highway.Policy.Risky 0.25) ~n_samples:1500 ()
  in
  let clean = fst (Sanitizer.sanitize (Dataset.of_samples samples)) in
  let components = 3 and width = 10 in
  let net =
    Nn.Network.i4xn
      ~rng:(Linalg.Rng.create (7 + 1000 + width))
      ~output_dim:(Nn.Gmm.output_dim ~components)
      width
  in
  let config =
    {
      (Train.Trainer.default ~loss:(Train.Loss.Mdn { components }) ()) with
      Train.Trainer.epochs = 15;
      seed = 7;
    }
  in
  ignore (Train.Trainer.fit config net (Dataset.pairs clean) ());
  Alcotest.(check string) "content hash" "2f60a8eb5f3bb6c8" (Nn.Io.content_hash net)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run "train"
    [
      ( "backprop",
        [
          quick "mse tanh" test_backprop_mse_tanh;
          quick "mse sigmoid" test_backprop_mse_sigmoid;
          quick "mdn" test_backprop_mdn;
          quick "grads plumbing" test_grads_accumulate_scale_norm;
          quick "batched = folded" test_gradient_batch_matches_fold;
          quick "empty batch" test_gradient_batch_empty;
        ] );
      ( "optimizer",
        [
          slow "sgd learns line" test_sgd_learns_line;
          slow "adam learns line" test_adam_learns_line;
          slow "adam nonlinear" test_adam_beats_initial_on_nonlinear;
        ] );
      ( "trainer",
        [
          quick "rejects empty" test_trainer_rejects_empty;
          slow "early stopping" test_early_stopping;
          slow "mdn improves" test_mdn_training_improves_nll;
          quick "pinned weights" test_pinned_weights_golden;
        ] );
      ( "loss",
        [
          quick "names" test_loss_names;
          quick "mse known" test_loss_mse_known;
          quick "dimension checks" test_loss_dimension_checks;
        ] );
      ( "hint",
        [
          quick "gate off" test_hint_gate_off;
          quick "gate on" test_hint_gate_on;
          quick "below limit" test_hint_below_limit_free;
          quick "left safety layout" test_hint_left_safety_layout;
          slow "training suppresses output" test_hint_training_suppresses_output;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_backprop_relu_random; prop_optimizer_matches_reference ] );
    ]
