let small_net seed dims =
  let rng = Linalg.Rng.create seed in
  Nn.Network.create ~rng dims

let box dim radius = Array.make dim (Interval.make (-.radius) radius)

(* {1 Bounds propagation} *)

let test_bounds_dimensions () =
  let net = small_net 1 [ 3; 5; 2 ] in
  let b = Encoding.Bounds.propagate net (box 3 1.0) in
  Alcotest.(check int) "layers" 2 (Array.length b.Encoding.Bounds.pre);
  Alcotest.(check int) "layer 0 width" 5 (Array.length b.Encoding.Bounds.pre.(0));
  Alcotest.(check int) "layer 1 width" 2 (Array.length b.Encoding.Bounds.pre.(1))

let test_bounds_dim_mismatch () =
  let net = small_net 1 [ 3; 5; 2 ] in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Encoding.Bounds.propagate net (box 4 1.0));
       false
     with Invalid_argument _ -> true)

let prop_bounds_sound =
  QCheck.Test.make ~name:"propagated bounds contain sampled traces" ~count:40
    (QCheck.make QCheck.Gen.(int_range 0 100000))
    (fun seed ->
      let net = small_net seed [ 4; 6; 6; 3 ] in
      let b0 = box 4 0.8 in
      let bounds = Encoding.Bounds.propagate net b0 in
      let rng = Linalg.Rng.create (seed + 1) in
      let ok = ref true in
      for _ = 1 to 30 do
        let x = Interval.Box.sample b0 rng in
        let trace = Nn.Network.forward_trace net x in
        for li = 0 to Nn.Network.num_layers net - 1 do
          Array.iteri
            (fun r z ->
              let iv = bounds.Encoding.Bounds.pre.(li).(r) in
              if z < iv.Interval.lo -. 1e-7 || z > iv.Interval.hi +. 1e-7 then
                ok := false)
            trace.Nn.Network.pre.(li);
          Array.iteri
            (fun r a ->
              let iv = bounds.Encoding.Bounds.post.(li).(r) in
              if a < iv.Interval.lo -. 1e-7 || a > iv.Interval.hi +. 1e-7 then
                ok := false)
            trace.Nn.Network.post.(li)
        done
      done;
      !ok)

(* The naive global big-M of the paper's ablation: bounds propagated
   from a wide box around the one asked about. *)
let test_coarse_is_wider () =
  let net = small_net 2 [ 3; 6; 2 ] in
  let tight = Encoding.Bounds.propagate net (box 3 0.2) in
  let loose = Encoding.Bounds.propagate net (box 3 1.0) in
  for li = 0 to 1 do
    Array.iteri
      (fun r iv ->
        Alcotest.(check bool)
          (Printf.sprintf "layer %d neuron %d" li r)
          true
          (Interval.subset iv loose.Encoding.Bounds.pre.(li).(r)))
      tight.Encoding.Bounds.pre.(li)
  done

let test_relu_stability () =
  Alcotest.(check bool) "active" true
    (Encoding.Bounds.relu_stability (Interval.make 0.1 2.0)
     = Encoding.Bounds.Stable_active);
  Alcotest.(check bool) "inactive" true
    (Encoding.Bounds.relu_stability (Interval.make (-2.0) (-0.1))
     = Encoding.Bounds.Stable_inactive);
  Alcotest.(check bool) "unstable" true
    (Encoding.Bounds.relu_stability (Interval.make (-1.0) 1.0)
     = Encoding.Bounds.Unstable)

(* {1 Encoder} *)

let test_encoder_stats_consistent () =
  let net = small_net 3 [ 4; 8; 8; 2 ] in
  let enc = Encoding.Encoder.encode net (box 4 0.5) in
  let s = enc.Encoding.Encoder.stats in
  Alcotest.(check int) "all hidden neurons accounted" 16
    (s.Encoding.Encoder.stable_active + s.Encoding.Encoder.stable_inactive
     + s.Encoding.Encoder.unstable);
  Alcotest.(check int) "one binary per unstable neuron"
    s.Encoding.Encoder.unstable
    (List.length enc.Encoding.Encoder.binaries);
  Alcotest.(check int) "binaries = integer vars"
    (Milp.Model.num_integer_vars enc.Encoding.Encoder.model)
    s.Encoding.Encoder.unstable

let test_encoder_rejects_tanh () =
  let rng = Linalg.Rng.create 4 in
  let net =
    Nn.Network.create ~rng ~hidden_activation:Nn.Activation.Tanh [ 3; 4; 2 ]
  in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Encoding.Encoder.encode net (box 3 0.5));
       false
     with Invalid_argument _ -> true)

let test_encoder_rejects_dim_mismatch () =
  let net = small_net 5 [ 3; 4; 2 ] in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Encoding.Encoder.encode net (box 2 0.5));
       false
     with Invalid_argument _ -> true)

let prop_encoder_faithful =
  QCheck.Test.make ~name:"forward traces satisfy the encoding" ~count:25
    (QCheck.make QCheck.Gen.(int_range 0 100000))
    (fun seed ->
      let net = small_net seed [ 3; 5; 5; 2 ] in
      let b0 = box 3 0.6 in
      let enc = Encoding.Encoder.encode net b0 in
      let rng = Linalg.Rng.create (seed + 17) in
      List.for_all
        (fun _ ->
          Encoding.Encoder.check_faithful enc net (Interval.Box.sample b0 rng))
        (List.init 15 Fun.id))

let milp_max enc k =
  let r =
    Milp.Solver.solve
      ~objective:(Encoding.Encoder.output_objective enc k)
      enc.Encoding.Encoder.model
  in
  match (r.Milp.Solver.outcome, r.Milp.Solver.incumbent) with
  | Milp.Solver.Optimal, Some (_, v) -> v
  | _ -> Alcotest.fail "MILP did not solve to optimality"

let test_point_box_equals_forward () =
  (* A zero-width box: the exact maximum is the forward value. *)
  let net = small_net 7 [ 3; 6; 6; 2 ] in
  let x = [| 0.3; -0.2; 0.5 |] in
  let b0 = Array.map Interval.point x in
  let enc = Encoding.Encoder.encode net b0 in
  let out = Nn.Network.forward net x in
  Alcotest.(check (float 1e-5)) "output 0" out.(0) (milp_max enc 0);
  Alcotest.(check (float 1e-5)) "output 1" out.(1) (milp_max enc 1)

let test_milp_max_dominates_sampling () =
  let net = small_net 8 [ 4; 8; 8; 3 ] in
  let b0 = box 4 0.5 in
  let enc = Encoding.Encoder.encode net b0 in
  let exact = milp_max enc 1 in
  let rng = Linalg.Rng.create 9 in
  let sampled = ref neg_infinity in
  for _ = 1 to 20000 do
    let x = Interval.Box.sample b0 rng in
    let o = Nn.Network.forward net x in
    if o.(1) > !sampled then sampled := o.(1)
  done;
  Alcotest.(check bool) "sampled <= exact" true (!sampled <= exact +. 1e-5);
  Alcotest.(check bool) "sampling comes close" true
    (!sampled >= exact -. 0.5)

let test_identity_network_exact () =
  (* A purely linear network: the maximum is the interval bound, no
     binaries involved. *)
  let rng = Linalg.Rng.create 10 in
  let net =
    Nn.Network.create ~rng ~hidden_activation:Nn.Activation.Identity
      [ 3; 4; 2 ]
  in
  let b0 = box 3 1.0 in
  let enc = Encoding.Encoder.encode net b0 in
  Alcotest.(check int) "no binaries" 0 (List.length enc.Encoding.Encoder.binaries);
  let bounds = Encoding.Bounds.propagate net b0 in
  let exact = milp_max enc 0 in
  (* Interval propagation over a composition is an over-approximation
     (dependency problem); the MILP maximum is exact and must sit below
     it but above any sampled value. *)
  Alcotest.(check bool) "max below interval bound" true
    (exact <= bounds.Encoding.Bounds.pre.(1).(0).Interval.hi +. 1e-6);
  let rng = Linalg.Rng.create 1234 in
  for _ = 1 to 5000 do
    let x = Interval.Box.sample b0 rng in
    let o = Nn.Network.forward net x in
    if o.(0) > exact +. 1e-5 then Alcotest.fail "sampling beat linear max"
  done

let test_input_point_extraction () =
  let net = small_net 11 [ 3; 4; 2 ] in
  let b0 = box 3 0.4 in
  let enc = Encoding.Encoder.encode net b0 in
  let r =
    Milp.Solver.solve
      ~objective:(Encoding.Encoder.output_objective enc 0)
      enc.Encoding.Encoder.model
  in
  match r.Milp.Solver.incumbent with
  | Some (point, v) ->
      let x = Encoding.Encoder.input_point enc point in
      Alcotest.(check int) "input dim" 3 (Array.length x);
      Alcotest.(check bool) "inside box" true (Interval.Box.contains b0 x);
      let out = Nn.Network.forward net x in
      Alcotest.(check (float 1e-4)) "solution replays on network" v out.(0)
  | None -> Alcotest.fail "no incumbent"

let test_layer_order_priority () =
  let net = small_net 12 [ 4; 8; 8; 2 ] in
  let enc = Encoding.Encoder.encode net (box 4 0.8) in
  let priority = Encoding.Encoder.layer_order_priority enc in
  List.iter
    (fun (v, layer, _) ->
      Alcotest.(check int) "priority equals layer" layer (priority v))
    enc.Encoding.Encoder.binaries

let test_coarse_mode_same_optimum () =
  (* Loose big-M constants must not change the optimum, only the
     relaxation tightness: the encoding of a wide box, its inputs
     narrowed to the box asked about. *)
  let net = small_net 13 [ 3; 5; 2 ] in
  let b0 = box 3 0.3 in
  let tight = Encoding.Encoder.encode net b0 in
  let loose = Encoding.Encoder.encode net (box 3 1.0) in
  Array.iteri
    (fun i v ->
      Lp.Problem.set_bounds
        (Milp.Model.lp loose.Encoding.Encoder.model)
        v ~lo:b0.(i).Interval.lo ~hi:b0.(i).Interval.hi)
    loose.Encoding.Encoder.input_vars;
  Alcotest.(check (float 1e-4)) "same optimum" (milp_max tight 0) (milp_max loose 0);
  Alcotest.(check bool) "coarse has at least as many binaries" true
    (List.length loose.Encoding.Encoder.binaries
     >= List.length tight.Encoding.Encoder.binaries)

let test_symbolic_mode_same_optimum () =
  (* Tighter big-M constants must not change the optimum. *)
  let net = small_net 20 [ 3; 6; 6; 2 ] in
  let b0 = box 3 0.5 in
  let interval = Encoding.Encoder.encode ~tighten_rounds:0 net b0 in
  let symbolic =
    Encoding.Encoder.encode ~bound_mode:Encoding.Encoder.Symbolic_bounds
      ~tighten_rounds:0 net b0
  in
  Alcotest.(check (float 1e-4)) "same optimum" (milp_max interval 0)
    (milp_max symbolic 0);
  Alcotest.(check bool) "symbolic has at most as many binaries" true
    (List.length symbolic.Encoding.Encoder.binaries
    <= List.length interval.Encoding.Encoder.binaries)

let test_symbolic_fewer_unstable_on_smoke_model () =
  (* Acceptance criterion: on the smoke model the symbolic analysis
     must remove binaries outright — strictly fewer unstable neurons
     than interval propagation, with no OBBT helping either side.
     Freshly initialised nets have zero-mean pre-activations, so even
     much tighter bounds still straddle 0; shift the second hidden
     layer's biases to the nonzero operating points a trained
     predictor exhibits, where tightness converts into stability. *)
  let rng = Linalg.Rng.create 21 in
  let net =
    Nn.Network.create ~rng [ 6; 10; 10; Nn.Gmm.output_dim ~components:2 ]
  in
  let l1 = Nn.Network.layer net 1 in
  Array.iteri
    (fun r _ ->
      l1.Nn.Layer.bias.(r) <-
        (l1.Nn.Layer.bias.(r) +. if r mod 2 = 0 then 2.5 else -2.5))
    l1.Nn.Layer.bias;
  let b0 = Array.make 6 (Interval.make (-0.4) 0.4) in
  let interval = Encoding.Encoder.encode ~tighten_rounds:0 net b0 in
  let symbolic =
    Encoding.Encoder.encode ~bound_mode:Encoding.Encoder.Symbolic_bounds
      ~tighten_rounds:0 net b0
  in
  Alcotest.(check bool)
    (Printf.sprintf "strictly fewer binaries (%d < %d)"
       symbolic.Encoding.Encoder.stats.Encoding.Encoder.unstable
       interval.Encoding.Encoder.stats.Encoding.Encoder.unstable)
    true
    (symbolic.Encoding.Encoder.stats.Encoding.Encoder.unstable
    < interval.Encoding.Encoder.stats.Encoding.Encoder.unstable)

let prop_encoder_faithful_symbolic =
  QCheck.Test.make ~name:"forward traces satisfy the symbolic encoding"
    ~count:25
    (QCheck.make QCheck.Gen.(int_range 0 100000))
    (fun seed ->
      let net = small_net seed [ 3; 5; 5; 2 ] in
      let b0 = box 3 0.6 in
      let enc =
        Encoding.Encoder.encode ~bound_mode:Encoding.Encoder.Symbolic_bounds
          net b0
      in
      let rng = Linalg.Rng.create (seed + 23) in
      List.for_all
        (fun _ ->
          Encoding.Encoder.check_faithful enc net (Interval.Box.sample b0 rng))
        (List.init 15 Fun.id))

let test_symbolic_node_bound_caps_root () =
  (* With no binaries fixed, the callback must return the plain
     symbolic output bound — a sound cap on the root relaxation. *)
  let net = small_net 22 [ 4; 8; 8; 2 ] in
  let b0 = box 4 0.5 in
  let enc =
    Encoding.Encoder.encode ~bound_mode:Encoding.Encoder.Symbolic_bounds
      ~tighten_rounds:0 net b0
  in
  let nb = Encoding.Encoder.symbolic_node_bound enc net b0 ~output:0 in
  (match nb [] with
   | Some root ->
       let exact = milp_max enc 0 in
       Alcotest.(check bool) "root cap above exact max" true (root >= exact -. 1e-6)
   | None -> Alcotest.fail "expected a root bound");
  (* Fixing a binary both ways: each subtree bound stays above what the
     subtree can actually achieve, and at least one side retains the
     global optimum. *)
  match enc.Encoding.Encoder.binaries with
  | [] -> ()
  | (v, _, _) :: _ ->
      let exact = milp_max enc 0 in
      let bound_of fix =
        match nb [ fix ] with
        | Some b -> b
        | None -> neg_infinity
      in
      let b0' = bound_of (v, 0.0, 0.0) and b1 = bound_of (v, 1.0, 1.0) in
      Alcotest.(check bool) "one side keeps the optimum" true
        (Float.max b0' b1 >= exact -. 1e-6)

let test_obbt_preserves_optimum () =
  (* OBBT must not change the exact maximum, only shrink the encoding. *)
  let net = small_net 14 [ 4; 8; 8; 3 ] in
  let b0 = box 4 0.5 in
  let plain = Encoding.Encoder.encode net b0 in
  let tightened = Encoding.Encoder.encode ~tighten_rounds:1 net b0 in
  Alcotest.(check bool) "no more binaries after OBBT" true
    (List.length tightened.Encoding.Encoder.binaries
     <= List.length plain.Encoding.Encoder.binaries);
  Alcotest.(check (float 1e-4)) "same optimum" (milp_max plain 0)
    (milp_max tightened 0)

let test_obbt_bounds_sound () =
  let net = small_net 15 [ 3; 6; 6; 2 ] in
  let b0 = box 3 0.5 in
  let enc = Encoding.Encoder.encode ~tighten_rounds:2 net b0 in
  let rng = Linalg.Rng.create 16 in
  for _ = 1 to 40 do
    let x = Interval.Box.sample b0 rng in
    let trace = Nn.Network.forward_trace net x in
    for li = 0 to Nn.Network.num_layers net - 1 do
      Array.iteri
        (fun r z ->
          let iv = enc.Encoding.Encoder.bounds.Encoding.Bounds.pre.(li).(r) in
          if z < iv.Interval.lo -. 1e-5 || z > iv.Interval.hi +. 1e-5 then
            Alcotest.failf "OBBT bound unsound at layer %d neuron %d: %g not in [%g, %g]"
              li r z iv.Interval.lo iv.Interval.hi)
        trace.Nn.Network.pre.(li)
    done
  done;
  (* Faithfulness must survive the rebuild. *)
  for _ = 1 to 10 do
    let x = Interval.Box.sample b0 rng in
    Alcotest.(check bool) "faithful after OBBT" true
      (Encoding.Encoder.check_faithful enc net x)
  done

let test_obbt_zero_budget_counts_skips () =
  (* An exhausted budget must be visible in the stats — every probe
     skipped, none reported as an LP failure — and must leave the
     interval bounds untouched relative to a plain encoding. *)
  let net = small_net 17 [ 4; 8; 8; 2 ] in
  let b0 = box 4 0.5 in
  let plain = Encoding.Encoder.encode net b0 in
  let starved =
    Encoding.Encoder.encode ~tighten_rounds:1 ~tighten_budget:0.0 net b0
  in
  let ob = starved.Encoding.Encoder.obbt in
  Alcotest.(check bool) "probes counted" true (ob.Encoding.Encoder.probes > 0);
  Alcotest.(check int) "all skipped, not failed" 0 ob.Encoding.Encoder.failed;
  Alcotest.(check int) "skips = probes" ob.Encoding.Encoder.probes
    ob.Encoding.Encoder.skipped_budget;
  Alcotest.(check int) "nothing refined" 0 ob.Encoding.Encoder.refined;
  Alcotest.(check int) "binaries unchanged"
    (List.length plain.Encoding.Encoder.binaries)
    (List.length starved.Encoding.Encoder.binaries);
  (* A plain encoding reports the zero stats. *)
  let z = plain.Encoding.Encoder.obbt in
  Alcotest.(check int) "no probes without rounds" 0 z.Encoding.Encoder.probes

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run "encoding"
    [
      ( "bounds",
        [
          quick "dimensions" test_bounds_dimensions;
          quick "dim mismatch" test_bounds_dim_mismatch;
          quick "coarse wider" test_coarse_is_wider;
          quick "relu stability" test_relu_stability;
        ] );
      ( "encoder",
        [
          quick "stats consistent" test_encoder_stats_consistent;
          quick "rejects tanh" test_encoder_rejects_tanh;
          quick "rejects dim mismatch" test_encoder_rejects_dim_mismatch;
          quick "point box = forward" test_point_box_equals_forward;
          slow "max dominates sampling" test_milp_max_dominates_sampling;
          quick "identity network" test_identity_network_exact;
          quick "input point" test_input_point_extraction;
          quick "layer priority" test_layer_order_priority;
          slow "coarse same optimum" test_coarse_mode_same_optimum;
          slow "symbolic same optimum" test_symbolic_mode_same_optimum;
          quick "symbolic fewer unstable (smoke model)"
            test_symbolic_fewer_unstable_on_smoke_model;
          slow "symbolic node bound" test_symbolic_node_bound_caps_root;
          slow "OBBT preserves optimum" test_obbt_preserves_optimum;
          slow "OBBT bounds sound" test_obbt_bounds_sound;
          quick "OBBT zero budget skips" test_obbt_zero_budget_counts_skips;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_bounds_sound; prop_encoder_faithful;
            prop_encoder_faithful_symbolic;
          ] );
    ]
