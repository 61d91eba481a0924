let vec = Alcotest.testable Linalg.Vec.pp (Linalg.Vec.approx_equal ~eps:1e-9)

(* {1 Activation} *)

let test_activation_values () =
  Alcotest.(check (float 0.0)) "relu neg" 0.0 (Nn.Activation.apply Nn.Activation.Relu (-2.0));
  Alcotest.(check (float 0.0)) "relu pos" 2.0 (Nn.Activation.apply Nn.Activation.Relu 2.0);
  Alcotest.(check (float 1e-12)) "tanh" (tanh 0.5) (Nn.Activation.apply Nn.Activation.Tanh 0.5);
  Alcotest.(check (float 1e-12)) "sigmoid 0" 0.5 (Nn.Activation.apply Nn.Activation.Sigmoid 0.0);
  Alcotest.(check (float 0.0)) "identity" 3.7 (Nn.Activation.apply Nn.Activation.Identity 3.7)

let test_activation_derivatives_match_finite_diff () =
  let eps = 1e-6 in
  List.iter
    (fun act ->
      List.iter
        (fun x ->
          let d = Nn.Activation.derivative act x in
          let fd =
            (Nn.Activation.apply act (x +. eps) -. Nn.Activation.apply act (x -. eps))
            /. (2.0 *. eps)
          in
          Alcotest.(check (float 1e-4))
            (Printf.sprintf "%s'(%g)" (Nn.Activation.name act) x)
            fd d)
        [ -1.5; -0.3; 0.4; 2.0 ])
    [ Nn.Activation.Tanh; Nn.Activation.Sigmoid; Nn.Activation.Identity ]

let test_activation_names_roundtrip () =
  List.iter
    (fun act ->
      Alcotest.(check bool) "roundtrip" true
        (Nn.Activation.of_name (Nn.Activation.name act) = act))
    [ Nn.Activation.Relu; Nn.Activation.Tanh; Nn.Activation.Sigmoid; Nn.Activation.Identity ]

let test_activation_unknown_name () =
  Alcotest.check_raises "unknown"
    (Invalid_argument "Activation.of_name: unknown activation swish") (fun () ->
      ignore (Nn.Activation.of_name "swish"))

let test_activation_classification () =
  Alcotest.(check bool) "relu pwl" true (Nn.Activation.is_piecewise_linear Nn.Activation.Relu);
  Alcotest.(check bool) "tanh not pwl" false (Nn.Activation.is_piecewise_linear Nn.Activation.Tanh);
  Alcotest.(check int) "relu branches" 1 (Nn.Activation.branches_per_neuron Nn.Activation.Relu);
  Alcotest.(check int) "tanh branches" 0 (Nn.Activation.branches_per_neuron Nn.Activation.Tanh)

(* {1 Layer / Network} *)

let test_layer_forward_known () =
  let w = Linalg.Mat.of_rows [| [| 1.0; -1.0 |]; [| 2.0; 0.0 |] |] in
  let layer = Nn.Layer.make w [| 0.5; -3.0 |] Nn.Activation.Relu in
  let out = Nn.Layer.forward layer [| 1.0; 2.0 |] in
  (* pre = (1-2+0.5, 2-3) = (-0.5, -1) -> relu -> (0, 0) *)
  Alcotest.check vec "relu clamps" [| 0.0; 0.0 |] out;
  let pre = Nn.Layer.pre_activation layer [| 1.0; 2.0 |] in
  Alcotest.check vec "pre" [| -0.5; -1.0 |] pre

let test_layer_dim_validation () =
  Alcotest.check_raises "bias mismatch"
    (Invalid_argument "Layer.make: weight rows must match bias dimension")
    (fun () ->
      ignore (Nn.Layer.make (Linalg.Mat.zeros 2 3) [| 0.0 |] Nn.Activation.Relu))

let test_network_dims () =
  let rng = Linalg.Rng.create 1 in
  let net = Nn.Network.create ~rng [ 4; 8; 3 ] in
  Alcotest.(check int) "input" 4 (Nn.Network.input_dim net);
  Alcotest.(check int) "output" 3 (Nn.Network.output_dim net);
  Alcotest.(check int) "layers" 2 (Nn.Network.num_layers net);
  Alcotest.(check int) "hidden neurons" 8 (Nn.Network.num_hidden_neurons net);
  Alcotest.(check int) "params" ((4 * 8) + 8 + (8 * 3) + 3) (Nn.Network.num_params net);
  Alcotest.(check (list int)) "architecture" [ 4; 8; 3 ] (Nn.Network.architecture net)

let test_network_layer_mismatch () =
  let l1 = Nn.Layer.make (Linalg.Mat.zeros 3 2) (Linalg.Vec.zeros 3) Nn.Activation.Relu in
  let l2 = Nn.Layer.make (Linalg.Mat.zeros 1 4) (Linalg.Vec.zeros 1) Nn.Activation.Identity in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Nn.Network.make [| l1; l2 |]);
       false
     with Invalid_argument _ -> true)

let test_forward_trace_consistency () =
  let rng = Linalg.Rng.create 2 in
  let net = Nn.Network.create ~rng [ 3; 5; 5; 2 ] in
  let x = [| 0.3; -0.2; 0.9 |] in
  let trace = Nn.Network.forward_trace net x in
  let out = Nn.Network.forward net x in
  let n = Nn.Network.num_layers net in
  Alcotest.check vec "last post = forward" out trace.Nn.Network.post.(n - 1);
  for i = 0 to n - 1 do
    let act = (Nn.Network.layer net i).Nn.Layer.activation in
    Alcotest.check vec
      (Printf.sprintf "post = act(pre) at layer %d" i)
      (Nn.Activation.apply_vec act trace.Nn.Network.pre.(i))
      trace.Nn.Network.post.(i)
  done

let test_i4xn_shape () =
  let rng = Linalg.Rng.create 3 in
  let net = Nn.Network.i4xn ~rng 20 in
  Alcotest.(check (list int)) "architecture" [ 84; 20; 20; 20; 20; 15 ]
    (Nn.Network.architecture net);
  Alcotest.(check bool) "describe mentions I4x20" true
    (String.length (Nn.Network.describe net) > 0
     && String.sub (Nn.Network.describe net) 0 5 = "I4x20")

(* Regression: [describe] used to report "identity" for every 1-layer
   network because the layer-count match treated 0 and 1 alike. *)
let test_describe_single_layer () =
  let rng = Linalg.Rng.create 6 in
  let weights = Linalg.Mat.init 2 3 (fun _ _ -> Linalg.Rng.uniform rng (-1.0) 1.0) in
  let net =
    Nn.Network.make [| Nn.Layer.make weights [| 0.1; -0.2 |] Nn.Activation.Relu |]
  in
  let d = Nn.Network.describe net in
  let mentions s =
    let re = Str.regexp_string s in
    try
      ignore (Str.search_forward re d 0);
      true
    with Not_found -> false
  in
  Alcotest.(check bool) (d ^ " mentions relu") true (mentions "relu");
  Alcotest.(check bool) (d ^ " not mislabelled identity") false
    (mentions "identity")

(* {1 Batched inference} *)

let batch_of rng net n =
  let input_dim = List.hd (Nn.Network.architecture net) in
  Array.init n (fun _ ->
      Array.init input_dim (fun _ -> Linalg.Rng.uniform rng (-2.0) 2.0))

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

(* Batched forward must be bit-equal to the scalar path, per column, for
   every activation at every bench width (the ISSUE's parity matrix). *)
let test_forward_batch_parity_matrix () =
  List.iter
    (fun act ->
      List.iter
        (fun width ->
          let rng = Linalg.Rng.create (width + (17 * Hashtbl.hash act)) in
          let net =
            Nn.Network.create ~rng ~hidden_activation:act
              [ 84; width; width; width; width; 15 ]
          in
          let inputs = batch_of rng net 13 in
          let y =
            Nn.Network.forward_batch net (Linalg.Mat.of_cols ~rows:84 inputs)
          in
          Array.iteri
            (fun j x ->
              let scalar = Nn.Network.forward net x in
              let batched = Linalg.Mat.col y j in
              if not (Linalg.Vec.approx_equal ~eps:0.0 scalar batched) then
                Alcotest.failf "%s width %d column %d: batched <> scalar"
                  (Nn.Activation.name act) width j)
            inputs)
        [ 10; 20; 50 ])
    [
      Nn.Activation.Relu;
      Nn.Activation.Tanh;
      Nn.Activation.Sigmoid;
      Nn.Activation.Identity;
    ]

let test_forward_batch_edges () =
  let rng = Linalg.Rng.create 8 in
  let net = Nn.Network.create ~rng [ 4; 6; 3 ] in
  let empty = Nn.Network.forward_batch net (Linalg.Mat.of_cols ~rows:4 [||]) in
  Alcotest.(check int) "empty batch keeps output rows" 3 (Linalg.Mat.rows empty);
  Alcotest.(check int) "empty batch has no columns" 0 (Linalg.Mat.cols empty);
  let x = [| 0.3; -0.8; 1.2; 0.0 |] in
  let one = Nn.Network.forward_batch net (Linalg.Mat.of_cols ~rows:4 [| x |]) in
  Alcotest.check vec "single column = scalar forward"
    (Nn.Network.forward net x) (Linalg.Mat.col one 0);
  Alcotest.(check bool) "wrong input dim rejected" true
    (match Nn.Network.forward_batch net (Linalg.Mat.zeros 5 2) with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* One wrong-length input sends the whole set through the scalar
   forward: its own result is the exception, the rest are unaffected. *)
let test_forward_each_edges () =
  let rng = Linalg.Rng.create 8 in
  let net = Nn.Network.create ~rng [ 4; 6; 3 ] in
  Alcotest.(check int) "empty in, empty out" 0
    (Array.length (Nn.Network.forward_each net [||]));
  let inputs = batch_of rng net 5 in
  inputs.(2) <- [| 0.1; 0.2 |];
  let each = Nn.Network.forward_each net inputs in
  Array.iteri
    (fun i r ->
      match (i, r) with
      | 2, Error (Invalid_argument _) -> ()
      | 2, _ -> Alcotest.fail "wrong-arity input: expected Error"
      | _, Ok out ->
          if not (bits_equal (Nn.Network.forward net inputs.(i)) out) then
            Alcotest.failf "input %d differs from the scalar forward" i
      | _, Error e ->
          Alcotest.failf "input %d raised %s" i (Printexc.to_string e))
    each

let test_forward_trace_batch_parity () =
  let rng = Linalg.Rng.create 9 in
  let net = Nn.Network.create ~rng [ 5; 7; 7; 4 ] in
  let inputs = batch_of rng net 6 in
  let bt = Nn.Network.forward_trace_batch net (Linalg.Mat.of_cols ~rows:5 inputs) in
  Array.iteri
    (fun j x ->
      let t = Nn.Network.forward_trace net x in
      Array.iteri
        (fun li pre ->
          if not (Linalg.Vec.approx_equal ~eps:0.0 pre
                    (Linalg.Mat.col bt.Nn.Network.pres.(li) j))
          then Alcotest.failf "column %d layer %d: pre-activations differ" j li;
          if not (Linalg.Vec.approx_equal ~eps:0.0 t.Nn.Network.post.(li)
                    (Linalg.Mat.col bt.Nn.Network.posts.(li) j))
          then Alcotest.failf "column %d layer %d: activations differ" j li)
        t.Nn.Network.pre)
    inputs

(* Both batched paths against the scalar forward: [forward_batch]'s
   columns, and [forward_each]'s results for no input, one, one chunk
   short of full, a full chunk, one input into a second chunk, and a
   partial third chunk. *)
let prop_forward_batch_matches_scalar =
  let c = Nn.Network.chunk_width in
  QCheck.Test.make ~name:"forward_batch = per-column forward (bit-exact)"
    ~count:50
    QCheck.(triple (int_range 1 12) (int_range 1 12) (int_range 0 10000))
    (fun (input_dim, hidden, seed) ->
      let rng = Linalg.Rng.create seed in
      let acts =
        [|
          Nn.Activation.Relu; Nn.Activation.Tanh; Nn.Activation.Sigmoid;
          Nn.Activation.Identity;
        |]
      in
      let net =
        Nn.Network.create ~rng
          ~hidden_activation:acts.(seed mod Array.length acts)
          [ input_dim; hidden; 3 ]
      in
      let all =
        Array.init ((2 * c) + 3) (fun _ ->
            Array.init input_dim (fun _ -> Linalg.Rng.uniform rng (-5.0) 5.0))
      in
      List.for_all
        (fun n ->
          let inputs = Array.sub all 0 n in
          let y =
            Nn.Network.forward_batch net
              (Linalg.Mat.of_cols ~rows:input_dim inputs)
          in
          let expected = Array.map (Nn.Network.forward net) inputs in
          let each = Nn.Network.forward_each net inputs in
          Linalg.Mat.cols y = n
          && Array.for_all
               (fun j -> bits_equal expected.(j) (Linalg.Mat.col y j))
               (Array.init n Fun.id)
          && Array.length each = n
          && Array.for_all2
               (fun e r ->
                 match r with Ok out -> bits_equal e out | Error _ -> false)
               expected each)
        [ 0; 1; c - 1; c; c + 1; (2 * c) + 3 ])

let test_create_validation () =
  let rng = Linalg.Rng.create 4 in
  Alcotest.(check bool) "needs two dims" true
    (try
       ignore (Nn.Network.create ~rng [ 5 ]);
       false
     with Invalid_argument _ -> true)

let test_copy_independent () =
  let rng = Linalg.Rng.create 5 in
  let net = Nn.Network.create ~rng [ 2; 3; 1 ] in
  let copy = Nn.Network.copy net in
  let x = [| 0.5; -0.5 |] in
  let before = Nn.Network.forward net x in
  Linalg.Mat.set (Nn.Network.layer copy 0).Nn.Layer.weights 0 0 99.0;
  let after = Nn.Network.forward net x in
  Alcotest.check vec "original untouched" before after

(* {1 Gmm} *)

let decode3 v = Nn.Gmm.decode ~components:3 v

let test_gmm_output_dim () =
  Alcotest.(check int) "5K" 15 (Nn.Gmm.output_dim ~components:3);
  Alcotest.(check int) "K=1" 5 (Nn.Gmm.output_dim ~components:1)

let test_gmm_weights_sum_to_one () =
  let rng = Linalg.Rng.create 6 in
  for _ = 1 to 20 do
    let v = Array.init 15 (fun _ -> Linalg.Rng.uniform rng (-2.0) 2.0) in
    let g = decode3 v in
    let total = Array.fold_left (fun acc c -> acc +. c.Nn.Gmm.weight) 0.0 g in
    Alcotest.(check (float 1e-9)) "sum 1" 1.0 total
  done

let test_gmm_decode_layout () =
  let v = Array.make 15 0.0 in
  v.(Nn.Gmm.mu_lat_index ~components:3 1) <- 2.5;
  v.(Nn.Gmm.mu_lon_index ~components:3 2) <- -1.5;
  let g = decode3 v in
  Alcotest.(check (float 0.0)) "mu_lat k=1" 2.5 g.(1).Nn.Gmm.mu_lat;
  Alcotest.(check (float 0.0)) "mu_lon k=2" (-1.5) g.(2).Nn.Gmm.mu_lon;
  Alcotest.(check (float 1e-9)) "equal logits -> 1/3" (1.0 /. 3.0) g.(0).Nn.Gmm.weight

let test_gmm_mean_and_max () =
  let v = Array.make 15 0.0 in
  v.(0) <- 20.0;
  v.(Nn.Gmm.mu_lat_index ~components:3 0) <- 1.0;
  v.(Nn.Gmm.mu_lat_index ~components:3 1) <- 3.0;
  let g = decode3 v in
  let lat, _ = Nn.Gmm.mean g in
  Alcotest.(check (float 1e-6)) "mean dominated by comp 0" 1.0 lat;
  Alcotest.(check (float 0.0)) "max component mean" 3.0 (Nn.Gmm.max_component_mu_lat g);
  Alcotest.(check bool) "max bounds mean" true (Nn.Gmm.max_component_mu_lat g >= lat)

let test_gmm_responsibilities_sum () =
  let rng = Linalg.Rng.create 7 in
  for _ = 1 to 10 do
    let v = Array.init 15 (fun _ -> Linalg.Rng.uniform rng (-1.0) 1.0) in
    let g = decode3 v in
    let r = Nn.Gmm.responsibilities g ~lat:0.3 ~lon:(-0.5) in
    Alcotest.(check (float 1e-9)) "sum 1" 1.0 (Array.fold_left ( +. ) 0.0 r)
  done

let test_gmm_density_integrates () =
  let v = Array.make 15 0.0 in
  let g = decode3 v in
  let step = 0.1 and range = 10.0 in
  let total = ref 0.0 in
  let n = int_of_float (2.0 *. range /. step) in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let lat = -.range +. (float_of_int i *. step) in
      let lon = -.range +. (float_of_int j *. step) in
      total := !total +. (Nn.Gmm.density g ~lat ~lon *. step *. step)
    done
  done;
  Alcotest.(check (float 0.02)) "integral" 1.0 !total

let test_gmm_sample_within_reason () =
  let v = Array.make 15 0.0 in
  v.(Nn.Gmm.mu_lat_index ~components:3 0) <- 2.0;
  v.(Nn.Gmm.mu_lat_index ~components:3 1) <- 2.0;
  v.(Nn.Gmm.mu_lat_index ~components:3 2) <- 2.0;
  let g = decode3 v in
  let rng = Linalg.Rng.create 8 in
  let lats = Array.init 2000 (fun _ -> fst (Nn.Gmm.sample g rng)) in
  Alcotest.(check bool) "sample mean near 2" true
    (Float.abs (Linalg.Stats.mean lats -. 2.0) < 0.1)

let test_gmm_log_likelihood_matches_density () =
  let rng = Linalg.Rng.create 9 in
  let v = Array.init 15 (fun _ -> Linalg.Rng.uniform rng (-1.0) 1.0) in
  let g = decode3 v in
  Alcotest.(check (float 1e-9)) "exp(ll) = density"
    (Nn.Gmm.density g ~lat:0.2 ~lon:0.7)
    (exp (Nn.Gmm.log_likelihood g ~lat:0.2 ~lon:0.7))

(* The decode-free readers against decoding first, bit for bit, on
   outputs salted with what breaks a softmax or a weighted sum: NaN,
   infinities, logits far apart enough to underflow [exp], means whose
   products overflow, signed zeros. A NaN result must be NaN on both
   sides; its payload is not compared (see [Nn.Gmm]). *)
let prop_gmm_mean_of_output_bit_identical =
  let special =
    [|
      Float.nan; Float.infinity; Float.neg_infinity; 1e308; -1e308; 800.0;
      -800.0; 0.0; -0.0;
    |]
  in
  QCheck.Test.make ~name:"decode-free mean/max = decode, then read (bit-exact)"
    ~count:1000
    QCheck.(triple (int_range 1 4) (int_range 0 4) (int_range 0 100000))
    (fun (components, salt, seed) ->
      let rng = Linalg.Rng.create seed in
      let v =
        Array.init (Nn.Gmm.output_dim ~components) (fun _ ->
            if Linalg.Rng.int rng 4 < salt then
              special.(Linalg.Rng.int rng (Array.length special))
            else Linalg.Rng.uniform rng (-5.0) 5.0)
      in
      let same x y =
        Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
        || (Float.is_nan x && Float.is_nan y)
      in
      (* A plain array softmax, the reference for [decode]'s weights. *)
      let logits = Array.sub v 0 components in
      let m = Array.fold_left Float.max neg_infinity logits in
      let e = Array.map (fun x -> exp (x -. m)) logits in
      let s = Array.fold_left ( +. ) 0.0 e in
      let weights = Array.map (fun x -> x /. s) e in
      let mixture = Nn.Gmm.decode ~components v in
      let lat, lon = Nn.Gmm.mean mixture in
      let lat', lon' = Nn.Gmm.mean_of_output ~components v in
      Array.for_all2 (fun w c -> same w c.Nn.Gmm.weight) weights mixture
      && same lat lat' && same lon lon'
      && same
           (Nn.Gmm.max_component_mu_lat mixture)
           (Nn.Gmm.max_mu_lat_of_output ~components v))

let test_gmm_readers_reject_wrong_length () =
  let message f =
    match f () with
    | exception Invalid_argument m -> m
    | _ -> Alcotest.fail "wrong-length output accepted"
  in
  List.iter
    (fun len ->
      let v = Array.make len 0.0 in
      let expected = message (fun () -> ignore (decode3 v)) in
      Alcotest.(check string)
        (Printf.sprintf "mean_of_output, length %d" len)
        expected
        (message (fun () -> ignore (Nn.Gmm.mean_of_output ~components:3 v)));
      Alcotest.(check string)
        (Printf.sprintf "max_mu_lat_of_output, length %d" len)
        expected
        (message (fun () ->
             ignore (Nn.Gmm.max_mu_lat_of_output ~components:3 v))))
    [ 0; 14; 16 ]

let prop_gmm_grad_matches_finite_diff =
  QCheck.Test.make ~name:"MDN gradient matches finite differences" ~count:50
    (QCheck.make
       QCheck.Gen.(
         triple
           (list_size (return 10) (float_range (-1.5) 1.5))
           (float_range (-2.0) 2.0) (float_range (-2.0) 2.0)))
    (fun (vs, lat, lon) ->
      let components = 2 in
      let v = Array.of_list vs in
      let _, grad = Nn.Gmm.nll_and_grad ~components v ~lat ~lon in
      let eps = 1e-5 in
      let ok = ref true in
      Array.iteri
        (fun i _ ->
          let shifted delta =
            let v' = Array.copy v in
            v'.(i) <- v'.(i) +. delta;
            fst (Nn.Gmm.nll_and_grad ~components v' ~lat ~lon)
          in
          let fd = (shifted eps -. shifted (-.eps)) /. (2.0 *. eps) in
          if Float.abs (fd -. grad.(i)) > 1e-3 *. (1.0 +. Float.abs fd) then
            ok := false)
        v;
      !ok)

(* {1 Quantize} *)

let test_quantize_grid_and_error () =
  let rng = Linalg.Rng.create 20 in
  let net = Nn.Network.create ~rng [ 4; 6; 3 ] in
  let q, report = Nn.Quantize.quantize ~bits:8 net in
  Alcotest.(check int) "bits" 8 report.Nn.Quantize.bits;
  Alcotest.(check int) "scale per layer" 2 (Array.length report.Nn.Quantize.scales);
  (* Every quantized parameter is an integer multiple of its layer scale. *)
  for i = 0 to Nn.Network.num_layers q - 1 do
    let l = Nn.Network.layer q i in
    let scale = report.Nn.Quantize.scales.(i) in
    let on_grid x =
      let ratio = x /. scale in
      Float.abs (ratio -. Float.round ratio) < 1e-6
    in
    for r = 0 to Nn.Layer.output_dim l - 1 do
      Alcotest.(check bool) "bias on grid" true (on_grid l.Nn.Layer.bias.(r));
      for c = 0 to Nn.Layer.input_dim l - 1 do
        Alcotest.(check bool) "weight on grid" true
          (on_grid (Linalg.Mat.get l.Nn.Layer.weights r c))
      done
    done;
    (* Error bounded by half a step. *)
    Alcotest.(check bool) "error bounded" true
      (report.Nn.Quantize.max_weight_error <= (scale /. 2.0) +. 1e-9
       || report.Nn.Quantize.max_weight_error
          <= Array.fold_left Float.max 0.0 report.Nn.Quantize.scales /. 2.0 +. 1e-9)
  done

let test_quantize_more_bits_more_fidelity () =
  let rng = Linalg.Rng.create 21 in
  let net = Nn.Network.create ~rng [ 5; 10; 4 ] in
  let probe = Linalg.Rng.create 22 in
  let dev bits =
    let q, _ = Nn.Quantize.quantize ~bits net in
    Nn.Quantize.output_deviation ~rng:(Linalg.Rng.copy probe) ~samples:200
      ~radius:1.0 net q
  in
  let coarse = dev 3 and fine = dev 12 in
  Alcotest.(check bool) "12-bit beats 3-bit" true (fine < coarse);
  Alcotest.(check bool) "12-bit is close" true (fine < 0.05)

let test_quantize_original_untouched () =
  let rng = Linalg.Rng.create 23 in
  let net = Nn.Network.create ~rng [ 3; 4; 2 ] in
  let x = [| 0.2; -0.1; 0.4 |] in
  let before = Nn.Network.forward net x in
  let _ = Nn.Quantize.quantize ~bits:4 net in
  Alcotest.check vec "unchanged" before (Nn.Network.forward net x)

let test_quantize_validation () =
  let rng = Linalg.Rng.create 24 in
  let net = Nn.Network.create ~rng [ 2; 2; 1 ] in
  Alcotest.(check bool) "bits >= 2" true
    (try
       ignore (Nn.Quantize.quantize ~bits:1 net);
       false
     with Invalid_argument _ -> true)

(* {1 Io} *)

let test_io_roundtrip_exact () =
  let rng = Linalg.Rng.create 10 in
  let net = Nn.Network.create ~rng [ 5; 7; 3 ] in
  let net' = Nn.Io.of_string (Nn.Io.to_string net) in
  Alcotest.(check (list int)) "architecture" (Nn.Network.architecture net)
    (Nn.Network.architecture net');
  let x = Array.init 5 (fun _ -> Linalg.Rng.uniform rng (-1.0) 1.0) in
  Alcotest.check vec "identical forward" (Nn.Network.forward net x)
    (Nn.Network.forward net' x)

let test_io_save_load_file () =
  let rng = Linalg.Rng.create 11 in
  let net = Nn.Network.create ~rng [ 3; 4; 2 ] in
  let path = Filename.temp_file "depnn" ".net" in
  Nn.Io.save path net;
  let net' = Nn.Io.load path in
  Sys.remove path;
  let x = [| 0.1; 0.2; 0.3 |] in
  Alcotest.check vec "file roundtrip" (Nn.Network.forward net x)
    (Nn.Network.forward net' x)

let io_error s =
  match Nn.Io.of_string_result s with
  | Ok _ -> None
  | Error e -> Some e

let test_io_rejects_garbage () =
  let is_syntax = function Some (Nn.Io.Syntax _) -> true | _ -> false in
  Alcotest.(check bool) "bad magic" true (is_syntax (io_error "not a network"));
  Alcotest.(check bool) "truncated" true
    (is_syntax (io_error "depnn-network v1\nlayers 2\nlayer 2 2 relu\n"));
  (* Six lines declaring more layers than they hold: the count must be
     refused before it sizes anything. 4611686018427387903 is past any
     array's length limit, and 400000000 layers would take 3.2 GB. *)
  List.iter
    (fun count ->
      Alcotest.(check bool) ("layers " ^ count) true
        (is_syntax
           (io_error
              ("depnn-network v1\nlayers " ^ count
             ^ "\nlayer 2 2 relu\n0.5 0.5\n1 0\n0 1\n"))))
    [ "4611686018427387903"; "400000000" ];
  Alcotest.(check bool) "of_string raises typed exception" true
    (try
       ignore (Nn.Io.of_string "not a network");
       false
     with Nn.Io.Invalid_network (Nn.Io.Syntax _) -> true)

let test_io_rejects_non_finite () =
  let text =
    "depnn-network v1\nlayers 1\nlayer 2 2 relu\n0.5 nan\n1 0\n0 1\n"
  in
  (match io_error text with
   | Some (Nn.Io.Non_finite { layer = 0; what }) ->
       Alcotest.(check bool) "names the bias" true
         (String.length what > 0)
   | _ -> Alcotest.fail "NaN bias not rejected as Non_finite");
  let text =
    "depnn-network v1\nlayers 1\nlayer 2 2 relu\n0.5 0.5\n1 inf\n0 1\n"
  in
  match io_error text with
  | Some (Nn.Io.Non_finite { layer = 0; _ }) -> ()
  | _ -> Alcotest.fail "Inf weight not rejected as Non_finite"

let test_io_rejects_dimension_mismatch () =
  (* Bias row one short for the declared output dimension. *)
  let text = "depnn-network v1\nlayers 1\nlayer 2 2 relu\n0.5\n1 0\n0 1\n" in
  (match io_error text with
   | Some (Nn.Io.Dimension_mismatch _) -> ()
   | _ -> Alcotest.fail "short bias not rejected as Dimension_mismatch");
  (* Consecutive layer dims disagree (2 outputs feeding a 3-input layer). *)
  let text =
    "depnn-network v1\nlayers 2\nlayer 2 2 relu\n0 0\n1 0\n0 1\n\
     layer 1 3 relu\n0\n1 1 1\n"
  in
  match io_error text with
  | Some (Nn.Io.Dimension_mismatch _) -> ()
  | _ -> Alcotest.fail "layer-dim mismatch not rejected as Dimension_mismatch"

let prop_io_roundtrip_random =
  QCheck.Test.make ~name:"io roundtrip preserves forward" ~count:30
    (QCheck.make QCheck.Gen.(pair (int_range 1 4) (int_range 1 6)))
    (fun (depth, width) ->
      let rng = Linalg.Rng.create (depth + (10 * width)) in
      let dims = (3 :: List.init depth (fun _ -> width)) @ [ 2 ] in
      let net = Nn.Network.create ~rng dims in
      let net' = Nn.Io.of_string (Nn.Io.to_string net) in
      let x = Array.init 3 (fun _ -> Linalg.Rng.uniform rng (-1.0) 1.0) in
      Linalg.Vec.approx_equal ~eps:0.0 (Nn.Network.forward net x)
        (Nn.Network.forward net' x))

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "nn"
    [
      ( "activation",
        [
          quick "values" test_activation_values;
          quick "derivatives" test_activation_derivatives_match_finite_diff;
          quick "names" test_activation_names_roundtrip;
          quick "unknown name" test_activation_unknown_name;
          quick "classification" test_activation_classification;
        ] );
      ( "network",
        [
          quick "layer forward" test_layer_forward_known;
          quick "layer validation" test_layer_dim_validation;
          quick "dims" test_network_dims;
          quick "layer mismatch" test_network_layer_mismatch;
          quick "trace consistency" test_forward_trace_consistency;
          quick "i4xn" test_i4xn_shape;
          quick "describe single layer" test_describe_single_layer;
          quick "create validation" test_create_validation;
          quick "copy independent" test_copy_independent;
        ] );
      ( "batched",
        [
          quick "parity matrix" test_forward_batch_parity_matrix;
          quick "edge cases" test_forward_batch_edges;
          quick "forward_each edges" test_forward_each_edges;
          quick "trace parity" test_forward_trace_batch_parity;
        ] );
      ( "gmm",
        [
          quick "output dim" test_gmm_output_dim;
          quick "weights sum" test_gmm_weights_sum_to_one;
          quick "layout" test_gmm_decode_layout;
          quick "mean/max" test_gmm_mean_and_max;
          quick "responsibilities" test_gmm_responsibilities_sum;
          quick "density integrates" test_gmm_density_integrates;
          quick "sampling" test_gmm_sample_within_reason;
          quick "log likelihood" test_gmm_log_likelihood_matches_density;
          quick "readers reject wrong length"
            test_gmm_readers_reject_wrong_length;
        ] );
      ( "quantize",
        [
          quick "grid and error" test_quantize_grid_and_error;
          quick "fidelity vs bits" test_quantize_more_bits_more_fidelity;
          quick "original untouched" test_quantize_original_untouched;
          quick "validation" test_quantize_validation;
        ] );
      ( "io",
        [
          quick "roundtrip" test_io_roundtrip_exact;
          quick "file" test_io_save_load_file;
          quick "garbage" test_io_rejects_garbage;
          quick "non-finite" test_io_rejects_non_finite;
          quick "dimension mismatch" test_io_rejects_dimension_mismatch;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_gmm_grad_matches_finite_diff;
            prop_gmm_mean_of_output_bit_identical;
            prop_io_roundtrip_random;
            prop_forward_batch_matches_scalar;
          ] );
    ]
