let small_net seed dims =
  let rng = Linalg.Rng.create seed in
  Nn.Network.create ~rng dims

let box dim radius = Array.make dim (Interval.make (-.radius) radius)

(* A miniature "predictor": 6 inputs, 2 hidden layers, GMM head with 2
   components (10 outputs). Fast enough to verify exactly in tests. *)
let mini_predictor seed =
  small_net seed [ 6; 8; 8; Nn.Gmm.output_dim ~components:2 ]

(* {1 Scenario} *)

let test_scenario_vehicle_on_left_pins_presence () =
  let sbox = Verify.Scenario.vehicle_on_left () in
  Alcotest.(check int) "dimension" 84 (Array.length sbox);
  let left = Highway.Features.orientation_base Highway.Orientation.Left in
  let presence = sbox.(left + Highway.Features.presence_offset) in
  Alcotest.(check (float 0.0)) "presence pinned to 1" 1.0 presence.Interval.lo;
  Alcotest.(check (float 0.0)) "presence pinned to 1 (hi)" 1.0 presence.Interval.hi;
  (* Not in the leftmost lane. *)
  let leftmost = sbox.(Highway.Features.road_is_leftmost) in
  Alcotest.(check (float 0.0)) "not leftmost" 0.0 leftmost.Interval.hi

let test_scenario_inside_domain () =
  List.iter
    (fun sbox ->
      Array.iteri
        (fun i iv ->
          Alcotest.(check bool)
            (Printf.sprintf "feature %d inside domain" i)
            true
            (Interval.subset iv Highway.Features.domain.(i)))
        sbox)
    [ Verify.Scenario.vehicle_on_left (); Verify.Scenario.free_left () ]

let test_scenario_free_left_empty () =
  let sbox = Verify.Scenario.free_left () in
  let left = Highway.Features.orientation_base Highway.Orientation.Left in
  let presence = sbox.(left + Highway.Features.presence_offset) in
  Alcotest.(check (float 0.0)) "presence pinned to 0" 0.0 presence.Interval.hi

let test_scenario_slack_monotone () =
  let narrow = Verify.Scenario.vehicle_on_left ~slack:0.01 () in
  let wide = Verify.Scenario.vehicle_on_left ~slack:0.2 () in
  let total_width b =
    Array.fold_left (fun acc iv -> acc +. Interval.width iv) 0.0 b
  in
  Alcotest.(check bool) "wider slack, wider box" true
    (total_width wide > total_width narrow)

let test_scenario_concretize () =
  let sbox = Verify.Scenario.vehicle_on_left () in
  let point = Interval.Box.center sbox in
  let described = Verify.Scenario.concretize sbox point in
  Alcotest.(check bool) "describes pinned features" true
    (List.length described > 0);
  Alcotest.(check bool) "includes left presence" true
    (List.mem_assoc "left.present" described)

(* {1 Driver} *)

let test_maximize_output_optimal_and_sound () =
  let net = small_net 31 [ 4; 6; 6; 3 ] in
  let b0 = box 4 0.5 in
  let r = Verify.Driver.maximize_output ~output:2 net b0 in
  Alcotest.(check bool) "optimal" true r.Verify.Driver.optimal;
  match r.Verify.Driver.value with
  | None -> Alcotest.fail "expected a value"
  | Some v ->
      Alcotest.(check (float 1e-5)) "value = upper bound" v
        r.Verify.Driver.upper_bound;
      let rng = Linalg.Rng.create 32 in
      let sampled, _ =
        Verify.Driver.sampled_max_lateral_velocity ~rng ~samples:1 ~components:1
          net b0
      in
      ignore sampled;
      for _ = 1 to 5000 do
        let x = Interval.Box.sample b0 rng in
        let o = Nn.Network.forward net x in
        if o.(2) > v +. 1e-5 then Alcotest.fail "sampling beat the verifier"
      done

let test_witness_replays () =
  let net = small_net 33 [ 4; 6; 6; 3 ] in
  let b0 = box 4 0.5 in
  let r = Verify.Driver.maximize_output ~output:0 net b0 in
  match r.Verify.Driver.witness with
  | None -> Alcotest.fail "expected witness"
  | Some w ->
      Alcotest.(check bool) "witness in box" true
        (Interval.Box.contains b0 w.Verify.Driver.input);
      let out = Nn.Network.forward net w.Verify.Driver.input in
      Alcotest.(check (float 1e-6)) "outputs replay" out.(0)
        w.Verify.Driver.achieved;
      (match r.Verify.Driver.value with
       | Some v ->
           Alcotest.(check (float 1e-4)) "achieved matches milp" v
             w.Verify.Driver.achieved
       | None -> Alcotest.fail "value missing")

let test_max_lateral_velocity_components () =
  let net = mini_predictor 34 in
  let b0 = box 6 0.4 in
  let r = Verify.Driver.max_lateral_velocity ~components:2 net b0 in
  Alcotest.(check bool) "optimal" true r.Verify.Driver.optimal;
  match r.Verify.Driver.value with
  | None -> Alcotest.fail "expected value"
  | Some v ->
      (* Exhaustive sampling of the mixture component means must stay
         below the verified maximum. *)
      let rng = Linalg.Rng.create 35 in
      let sampled, _ =
        Verify.Driver.sampled_max_lateral_velocity ~rng ~samples:5000
          ~components:2 net b0
      in
      Alcotest.(check bool) "sampled <= verified" true (sampled <= v +. 1e-5);
      Alcotest.(check bool) "verified is reachable-ish" true
        (sampled >= v -. 1.0)

let test_sampled_max_bounded_by_upper () =
  let net = mini_predictor 36 in
  let b0 = box 6 0.3 in
  let r = Verify.Driver.max_lateral_velocity ~components:2 net b0 in
  let rng = Linalg.Rng.create 37 in
  let sampled, input =
    Verify.Driver.sampled_max_lateral_velocity ~rng ~samples:2000 ~components:2
      net b0
  in
  Alcotest.(check bool) "within bound" true
    (sampled <= r.Verify.Driver.upper_bound +. 1e-5);
  Alcotest.(check bool) "witness input in box" true
    (Interval.Box.contains b0 input)

let test_prove_trivial_threshold () =
  let net = mini_predictor 38 in
  let b0 = box 6 0.3 in
  (* First compute the exact max, then ask to prove a bound above it. *)
  let r = Verify.Driver.max_lateral_velocity ~components:2 net b0 in
  let v = Option.get r.Verify.Driver.value in
  let proof =
    Verify.Driver.prove_lateral_velocity_le ~components:2
      ~threshold:(v +. 0.5) net b0
  in
  (match proof.Verify.Driver.proof with
   | Verify.Driver.Proved -> ()
   | Verify.Driver.Disproved _ -> Alcotest.fail "threshold above max disproved?"
   | Verify.Driver.Unknown _ -> Alcotest.fail "should have concluded");
  Alcotest.(check bool) "nodes counted" true (proof.Verify.Driver.proof_nodes >= 0)

let test_prove_violated_threshold_gives_witness () =
  let net = mini_predictor 39 in
  let b0 = box 6 0.3 in
  let r = Verify.Driver.max_lateral_velocity ~components:2 net b0 in
  let v = Option.get r.Verify.Driver.value in
  let proof =
    Verify.Driver.prove_lateral_velocity_le ~components:2
      ~threshold:(v -. 0.2) net b0
  in
  match proof.Verify.Driver.proof with
  | Verify.Driver.Disproved w ->
      Alcotest.(check bool) "witness beats threshold" true
        (w.Verify.Driver.achieved > v -. 0.2);
      Alcotest.(check bool) "witness in box" true
        (Interval.Box.contains b0 w.Verify.Driver.input)
  | Verify.Driver.Proved -> Alcotest.fail "impossible: threshold below max proved"
  | Verify.Driver.Unknown _ -> Alcotest.fail "should have found a violation"

let test_proof_cheaper_than_max () =
  (* The paper's observation: deciding "lat <= loose bound" explores
     fewer nodes than computing the exact maximum. *)
  let net = mini_predictor 40 in
  let b0 = box 6 0.5 in
  let r = Verify.Driver.max_lateral_velocity ~components:2 net b0 in
  let v = Option.get r.Verify.Driver.value in
  let proof =
    Verify.Driver.prove_lateral_velocity_le ~components:2
      ~threshold:(v +. 2.0) net b0
  in
  Alcotest.(check bool) "proved" true
    (proof.Verify.Driver.proof = Verify.Driver.Proved);
  Alcotest.(check bool) "fewer or equal nodes" true
    (proof.Verify.Driver.proof_nodes <= r.Verify.Driver.nodes)

(* The acceptance test for the dual-simplex warm start: on the smoke
   verification model the warm-started B&B must report the same outcome,
   best bound and incumbent objective as the cold solver, while spending
   strictly fewer total LP iterations. Run at the solver level (one
   encoding, per-query objectives) so iteration counts are exactly
   comparable. *)
let test_warm_start_fewer_iterations_same_answer () =
  let net = mini_predictor 47 in
  let b0 = box 6 0.4 in
  let enc = Encoding.Encoder.encode net b0 in
  let priority = Encoding.Encoder.layer_order_priority enc in
  let solve ~warm k =
    Milp.Solver.solve ~warm
      ~branch_rule:(Milp.Solver.Priority priority)
      ~objective:(Encoding.Encoder.output_objective enc k)
      enc.Encoding.Encoder.model
  in
  let warm_total = ref 0 and cold_total = ref 0 in
  List.iter
    (fun k ->
      let w = solve ~warm:true k and c = solve ~warm:false k in
      Alcotest.(check bool)
        (Printf.sprintf "output %d: same outcome" k)
        true
        (w.Milp.Solver.outcome = c.Milp.Solver.outcome);
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "output %d: same best bound" k)
        c.Milp.Solver.best_bound w.Milp.Solver.best_bound;
      (match (w.Milp.Solver.incumbent, c.Milp.Solver.incumbent) with
       | Some (_, a), Some (_, b) ->
           Alcotest.(check (float 1e-6))
             (Printf.sprintf "output %d: same incumbent objective" k)
             b a
       | None, None -> ()
       | _ -> Alcotest.fail "incumbent presence differs warm vs cold");
      warm_total := !warm_total + w.Milp.Solver.lp_iterations;
      cold_total := !cold_total + c.Milp.Solver.lp_iterations)
    (List.init 2 (fun k -> Nn.Gmm.mu_lat_index ~components:2 k));
  Alcotest.(check bool)
    (Printf.sprintf "strictly fewer lp iterations (warm %d < cold %d)"
       !warm_total !cold_total)
    true
    (!warm_total < !cold_total)

(* Regression for the 1.5x budget over-spend: OBBT used to get
   0.5 * time_limit on top of the full time_limit granted to the output
   queries. The call must finish within the limit plus one node's
   slack. A wide network on a wide box guarantees both OBBT and the
   searches would gladly eat far more than the budget. On two cores the
   two component queries fan out, each under a share computed as it is
   claimed: the budget must hold there too. *)
let test_finite_time_limit_respected_globally cores () =
  let net = small_net 48 [ 8; 48; 48; Nn.Gmm.output_dim ~components:2 ] in
  let b0 = box 8 1.0 in
  let time_limit = 4.0 in
  let t0 = Unix.gettimeofday () in
  let r =
    Verify.Driver.max_lateral_velocity ~time_limit ~tighten_rounds:2 ~cores
      ~components:2 net b0
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  (* The old scheme would legally spend 1.5x + slack; require well under
     that, with slack for one node and the final witness replay. *)
  Alcotest.(check bool)
    (Printf.sprintf "elapsed %.2fs within budget %.2fs (+slack)" elapsed
       time_limit)
    true
    (elapsed < (time_limit *. 1.25) +. 1.0);
  Alcotest.(check bool) "flagged or solved" true
    (r.Verify.Driver.timed_out || r.Verify.Driver.optimal)

(* The immutable-encoding fix is what makes per-component fan-out safe:
   solve every component query concurrently over ONE shared encoding
   and check the fan-out agrees with the sequential answers. *)
let test_component_queries_fan_out () =
  let net = mini_predictor 49 in
  let b0 = box 6 0.35 in
  let enc = Encoding.Encoder.encode net b0 in
  let outputs =
    Array.init 2 (fun k -> Nn.Gmm.mu_lat_index ~components:2 k)
  in
  let solve_query k =
    Milp.Solver.solve
      ~objective:(Encoding.Encoder.output_objective enc k)
      enc.Encoding.Encoder.model
  in
  let sequential = Array.map solve_query outputs in
  (* Fan the queries out across domains, all reading the same enc. *)
  let fanned =
    Milp.Parallel.map ~cores:2 ~init:(fun () -> ()) (fun () k -> solve_query k)
      outputs
  in
  Array.iteri
    (fun i seq ->
      let par = fanned.(i) in
      Alcotest.(check bool)
        (Printf.sprintf "query %d same outcome" i)
        true
        (seq.Milp.Solver.outcome = par.Milp.Solver.outcome);
      match (seq.Milp.Solver.incumbent, par.Milp.Solver.incumbent) with
      | Some (_, a), Some (_, b) ->
          Alcotest.(check (float 1e-6))
            (Printf.sprintf "query %d same objective" i)
            a b
      | None, None -> ()
      | _ -> Alcotest.fail "incumbent presence differs")
    sequential

(* Verdicts must not depend on the bound analysis behind the encoding:
   tighter big-Ms shrink the search, never the feasible set. *)
let test_bound_modes_agree () =
  let net = mini_predictor 50 in
  let b0 = box 6 0.35 in
  let run bound_mode =
    Verify.Driver.max_lateral_velocity ~bound_mode ~tighten_rounds:0
      ~components:2 net b0
  in
  let interval = run Encoding.Encoder.Interval_bounds in
  let symbolic = run Encoding.Encoder.Symbolic_bounds in
  Alcotest.(check bool) "interval optimal" true interval.Verify.Driver.optimal;
  Alcotest.(check bool) "symbolic optimal" true symbolic.Verify.Driver.optimal;
  Alcotest.(check (float 1e-4)) "same maximum"
    (Option.get interval.Verify.Driver.value)
    (Option.get symbolic.Verify.Driver.value);
  Alcotest.(check int) "per-component timings reported" 2
    (Array.length symbolic.Verify.Driver.component_elapsed);
  (* Each of the 16 hidden ReLUs is stable or a binary in either mode. *)
  List.iter
    (fun (r : Verify.Driver.max_result) ->
      let st = r.Verify.Driver.encoder_stats in
      Alcotest.(check int) "stats classify every hidden neuron" 16
        Encoding.Encoder.(st.stable_active + st.stable_inactive + st.unstable))
    [ interval; symbolic ]

(* The incomplete pre-pass alone must prove a Table-II-style decision
   query — zero branch & bound nodes — when the threshold sits between
   the symbolic and interval output bounds, i.e. exactly where only the
   tighter analysis discharges the property. *)
let test_prepass_proves_with_zero_nodes () =
  let net = mini_predictor 51 in
  let b0 = box 6 0.35 in
  let upper_of bounds k =
    let post = bounds.Encoding.Bounds.post in
    post.(Array.length post - 1).(Nn.Gmm.mu_lat_index ~components:2 k)
      .Interval.hi
  in
  let interval_b = Encoding.Bounds.propagate net b0 in
  let symbolic_b =
    let s = Absint.Symbolic.propagate net b0 in
    { Encoding.Bounds.pre = s.Absint.Symbolic.pre; post = s.Absint.Symbolic.post }
  in
  let max_over bounds =
    Float.max (upper_of bounds 0) (upper_of bounds 1)
  in
  let sym_u = max_over symbolic_b and int_u = max_over interval_b in
  Alcotest.(check bool)
    (Printf.sprintf "symbolic output bound strictly tighter (%.4f < %.4f)"
       sym_u int_u)
    true (sym_u < int_u);
  let threshold = 0.5 *. (sym_u +. int_u) in
  let proof =
    Verify.Driver.prove_lateral_velocity_le
      ~bound_mode:Encoding.Encoder.Symbolic_bounds ~tighten_rounds:0
      ~components:2 ~threshold net b0
  in
  Alcotest.(check bool) "proved" true
    (proof.Verify.Driver.proof = Verify.Driver.Proved);
  Alcotest.(check int) "zero search nodes" 0 proof.Verify.Driver.proof_nodes;
  Alcotest.(check int) "every component presolved" 2
    proof.Verify.Driver.presolved;
  (* The same threshold under interval bounds cannot be discharged by
     the pre-pass (it may still be proved — by actual search). *)
  let interval_proof =
    Verify.Driver.prove_lateral_velocity_le
      ~bound_mode:Encoding.Encoder.Interval_bounds ~tighten_rounds:0
      ~components:2 ~threshold net b0
  in
  Alcotest.(check bool) "interval pre-pass cannot discharge all" true
    (interval_proof.Verify.Driver.presolved < 2);
  Alcotest.(check bool) "verdicts agree" true
    (interval_proof.Verify.Driver.proof = Verify.Driver.Proved)

(* Per-component parallel path: same verdict and value as sequential,
   one timing slot per component. *)
let test_parallel_components_agree () =
  let net = mini_predictor 52 in
  let b0 = box 6 0.35 in
  let seq = Verify.Driver.max_lateral_velocity ~components:2 net b0 in
  let par = Verify.Driver.max_lateral_velocity ~cores:2 ~components:2 net b0 in
  Alcotest.(check bool) "sequential optimal" true seq.Verify.Driver.optimal;
  Alcotest.(check bool) "parallel optimal" true par.Verify.Driver.optimal;
  Alcotest.(check (float 1e-5)) "same maximum"
    (Option.get seq.Verify.Driver.value)
    (Option.get par.Verify.Driver.value);
  Alcotest.(check int) "one timing per component" 2
    (Array.length par.Verify.Driver.component_elapsed);
  Array.iteri
    (fun i t ->
      Alcotest.(check bool)
        (Printf.sprintf "component %d timing sane" i)
        true
        (t >= 0.0 && t <= par.Verify.Driver.elapsed +. 1e-6))
    par.Verify.Driver.component_elapsed

let test_time_limit_respected () =
  let net = small_net 41 [ 8; 16; 16; 16; 4 ] in
  let b0 = box 8 1.0 in
  let t0 = Unix.gettimeofday () in
  let r = Verify.Driver.maximize_output ~time_limit:1.0 ~output:0 net b0 in
  let elapsed = Unix.gettimeofday () -. t0 in
  (* Allow generous slack for the encoding and final LP solve. *)
  Alcotest.(check bool) "returns promptly" true (elapsed < 20.0);
  Alcotest.(check bool) "flagged or solved" true
    (r.Verify.Driver.timed_out || r.Verify.Driver.optimal)

(* With a zero time budget the driver can do no branching at all.  It
   must still flag the timeout, report an upper bound that soundly
   covers anything sampling can find, and never fabricate a witness it
   cannot replay through the real network. *)
let prop_zero_time_limit_honest =
  QCheck.Test.make ~name:"zero time limit: flagged, sound, honest" ~count:10
    (QCheck.make QCheck.Gen.(pair (int_range 0 999) (int_range 2 5)))
    (fun (seed, width) ->
      let net =
        small_net seed [ 6; width; width; Nn.Gmm.output_dim ~components:2 ]
      in
      let b0 = box 6 0.3 in
      let r =
        Verify.Driver.max_lateral_velocity ~time_limit:0.0 ~components:2 net b0
      in
      let rng = Linalg.Rng.create (seed + 1) in
      let sampled, _ =
        Verify.Driver.sampled_max_lateral_velocity ~rng ~samples:300
          ~components:2 net b0
      in
      r.Verify.Driver.timed_out
      && (not r.Verify.Driver.optimal)
      && sampled <= r.Verify.Driver.upper_bound +. 1e-5
      && (match r.Verify.Driver.witness with
         | None -> true
         | Some w ->
             Interval.Box.contains b0 w.Verify.Driver.input
             && Linalg.Vec.approx_equal ~eps:1e-6
                  (Nn.Network.forward net w.Verify.Driver.input)
                  w.Verify.Driver.outputs))

(* {2 Exact maximum by activation patterns}

   A reference that uses no branch and bound, for ReLU nets with at most
   10 hidden neurons. Fixing every hidden neuron's phase makes the net
   affine on the inputs that realise the pattern: active means a = z
   with z >= 0, inactive means z <= 0 and a = 0. Each pattern is one LP
   over the input box, with one row per hidden neuron for its phase and
   the output's affine form as objective; the sparse core solves it. The
   best pattern's optimum is the maximum, and a forward pass at its
   point must reproduce it. *)
let pattern_max net box ~output =
  let n_layers = Nn.Network.num_layers net in
  let hidden = Nn.Network.num_hidden_neurons net in
  if hidden > 10 then invalid_arg "pattern_max: more than 10 hidden ReLUs";
  let d = Array.length box in
  let best = ref None in
  for pattern = 0 to (1 lsl hidden) - 1 do
    let p = Lp.Problem.create () in
    let xs =
      Array.map
        (fun iv ->
          Lp.Problem.add_var p ~lo:iv.Interval.lo ~hi:iv.Interval.hi ~obj:0.0
            ())
        box
    in
    let terms c = Array.to_list (Array.mapi (fun j cj -> (xs.(j), cj)) c) in
    (* Each neuron's value as an affine form (c, k) = c·x + k. *)
    let forms =
      ref
        (Array.init d (fun i ->
             (Array.init d (fun j -> if i = j then 1.0 else 0.0), 0.0)))
    in
    let bit = ref 0 in
    for l = 0 to n_layers - 1 do
      let layer = Nn.Network.layer net l in
      let pre =
        Array.init (Nn.Layer.output_dim layer) (fun r ->
            let c = Array.make d 0.0 and k = ref layer.Nn.Layer.bias.(r) in
            Array.iteri
              (fun col (fc, fk) ->
                let w = Linalg.Mat.get layer.Nn.Layer.weights r col in
                Array.iteri (fun j v -> c.(j) <- c.(j) +. (w *. v)) fc;
                k := !k +. (w *. fk))
              !forms;
            (c, !k))
      in
      forms :=
        if l = n_layers - 1 then pre
        else
          Array.map
            (fun (c, k) ->
              let active = pattern land (1 lsl !bit) <> 0 in
              incr bit;
              Lp.Problem.add_constraint p (terms c)
                (if active then Lp.Problem.Ge else Lp.Problem.Le)
                (-.k);
              if active then (c, k) else (Array.make d 0.0, 0.0))
            pre
    done;
    let c, k = !forms.(output) in
    Lp.Problem.set_objective p (terms c);
    let s = Lp.Simplex.solve p in
    match s.Lp.Simplex.status with
    | Lp.Simplex.Infeasible -> ()
    | Lp.Simplex.Iteration_limit ->
        failwith (Printf.sprintf "pattern %d: LP left unconcluded" pattern)
    | Lp.Simplex.Optimal -> (
        let v = s.Lp.Simplex.objective +. k in
        match !best with
        | Some (bv, _) when bv >= v -> ()
        | _ -> best := Some (v, s.Lp.Simplex.x))
  done;
  match !best with
  | None -> failwith "no activation pattern is feasible"
  | Some (v, x) ->
      let reached = (Nn.Network.forward net x).(output) in
      if Float.abs (reached -. v) > 1e-6 *. (1.0 +. Float.abs v) then
        failwith
          (Printf.sprintf "forward pass gives %.9g at the best point, not %.9g"
             reached v);
      v

(* Every max-query configuration agrees with the pattern oracle on
   random 3-5-5-2 nets and boxes: the bound never falls below the
   maximum, and an answer called exact is the maximum. *)
let prop_max_query_matches_pattern_oracle =
  QCheck.Test.make ~name:"max query agrees with the activation-pattern oracle"
    ~count:40
    (QCheck.make QCheck.Gen.(pair (int_range 0 100_000) (int_range 0 1)))
    (fun (seed, output) ->
      let net = small_net seed [ 3; 5; 5; 2 ] in
      let rng = Linalg.Rng.create (seed + 1) in
      let box =
        Array.init 3 (fun _ ->
            let c = Linalg.Rng.uniform rng (-1.0) 1.0
            and r = Linalg.Rng.uniform rng 0.05 1.0 in
            Interval.make (c -. r) (c +. r))
      in
      let exact = pattern_max net box ~output in
      let tol = 1e-5 *. (1.0 +. Float.abs exact) in
      List.iter
        (fun (bound_mode, mode) ->
          List.iter
            (fun tighten_rounds ->
              List.iter
                (fun cores ->
                  let r =
                    Verify.Driver.maximize_output ~time_limit:20.0 ~bound_mode
                      ~tighten_rounds ~cores ~output net box
                  in
                  let config =
                    Printf.sprintf "seed %d output %d, %s, %d rounds, %d cores"
                      seed output mode tighten_rounds cores
                  in
                  if r.Verify.Driver.upper_bound < exact -. tol then
                    QCheck.Test.fail_reportf
                      "%s: bound %.9g below the maximum %.9g" config r.Verify.Driver.upper_bound exact;
                  match r.Verify.Driver.value with
                  | Some v when r.Verify.Driver.optimal
                                && Float.abs (v -. exact) > tol ->
                      QCheck.Test.fail_reportf
                        "%s: exact answer %.9g, maximum %.9g" config v exact
                  | _ -> ())
                [ 1; 2 ])
            [ 0; 1 ])
        [ (Encoding.Encoder.Interval_bounds, "interval");
          (Encoding.Encoder.Symbolic_bounds, "symbolic") ];
      true)

(* Badly scaled nets: 84-8-8 ReLU nets with a three-component GMM head
   and every weight matrix scaled by 10^4 to 10^8. Their LPs are hard
   enough that the sparse LP core leaves many unconcluded, and an answer
   built on an LP conclusion nobody checked can be wrong here. The
   threshold is half the box centre's component-0 output, and the centre
   or one of 64 samples goes above it on some component, so any Proved
   is wrong. A max query's upper bound must cover those points, and an
   exact maximum must not be beaten by any of them. Every failing net
   is reported at once. *)
let test_scaled_nets_no_wrong_verdict () =
  let components = Scaled_nets.components in
  let box = Scaled_nets.box () in
  let centre = Interval.Box.center box in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  for seed = 1 to 4 do
    for exponent = 4 to 8 do
      let net = Scaled_nets.net ~seed ~exponent in
      let name = Printf.sprintf "seed %d x1e%d" seed exponent in
      let lateral x =
        let out = Nn.Network.forward net x in
        List.fold_left
          (fun acc k -> Float.max acc out.(Nn.Gmm.mu_lat_index ~components k))
          neg_infinity
          (List.init components Fun.id)
      in
      let sampled, _ =
        Verify.Driver.sampled_max_lateral_velocity
          ~rng:(Linalg.Rng.create seed) ~samples:64 ~components net box
      in
      let reached = Float.max (lateral centre) sampled in
      let tol = 1e-9 *. Float.abs reached in
      let r =
        Verify.Driver.max_lateral_velocity ~time_limit:1.0 ~components net box
      in
      if r.Verify.Driver.upper_bound < reached -. tol then
        fail "%s: max query bound %g below the reached %g" name
          r.Verify.Driver.upper_bound reached;
      (match r.Verify.Driver.value with
       | Some v when r.Verify.Driver.optimal && v < reached -. tol ->
           fail "%s: exact maximum %g beaten by %g" name v reached
       | _ -> ());
      let threshold = Scaled_nets.threshold net in
      if not (reached > threshold) then
        fail "%s: no known point refutes the threshold" name;
      let p =
        Verify.Driver.prove_lateral_velocity_le ~time_limit:1.0 ~components
          ~threshold net box
      in
      match p.Verify.Driver.proof with
      | Verify.Driver.Proved ->
          fail "%s: proved a threshold a known point refutes" name
      | Verify.Driver.Disproved w ->
          if
            not
              (Interval.Box.contains box w.Verify.Driver.input
              && w.Verify.Driver.achieved > threshold)
          then fail "%s: disproof does not replay" name
      | Verify.Driver.Unknown _ -> ()
    done
  done;
  match List.rev !failures with
  | [] -> ()
  | fs ->
      Alcotest.failf "%d wrong answers:\n%s" (List.length fs)
        (String.concat "\n" fs)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run "verify"
    [
      ( "scenario",
        [
          quick "pins presence" test_scenario_vehicle_on_left_pins_presence;
          quick "inside domain" test_scenario_inside_domain;
          quick "free left" test_scenario_free_left_empty;
          quick "slack monotone" test_scenario_slack_monotone;
          quick "concretize" test_scenario_concretize;
        ] );
      ( "driver",
        [
          slow "maximize sound" test_maximize_output_optimal_and_sound;
          slow "witness replays" test_witness_replays;
          slow "components" test_max_lateral_velocity_components;
          slow "sampled bounded" test_sampled_max_bounded_by_upper;
          slow "prove trivial" test_prove_trivial_threshold;
          slow "prove violated" test_prove_violated_threshold_gives_witness;
          slow "proof cheaper" test_proof_cheaper_than_max;
          slow "time limit" test_time_limit_respected;
          slow "warm start acceptance" test_warm_start_fewer_iterations_same_answer;
          slow "finite budget global"
            (test_finite_time_limit_respected_globally 1);
          slow "finite budget global, 2 cores"
            (test_finite_time_limit_respected_globally 2);
          slow "component fan-out" test_component_queries_fan_out;
          slow "bound modes agree" test_bound_modes_agree;
          slow "pre-pass proves, zero nodes" test_prepass_proves_with_zero_nodes;
          slow "parallel components agree" test_parallel_components_agree;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_zero_time_limit_honest;
            prop_max_query_matches_pattern_oracle ]
        @ [ slow "scaled nets: no wrong verdict" test_scaled_nets_no_wrong_verdict ]
      );
    ]
