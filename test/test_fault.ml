(* Fault models and the injection campaign: determinism, non-mutation,
   stuck-at semantics, and the campaign's detection invariants. *)

let components = 3

let make_net seed width =
  let rng = Linalg.Rng.create seed in
  Nn.Network.i4xn ~rng ~output_dim:(Nn.Gmm.output_dim ~components) width

let scenes seed n =
  let rng = Linalg.Rng.create seed in
  Array.init n (fun _ -> Array.init 84 (fun _ -> Linalg.Rng.uniform rng (-1.0) 1.0))

let test_flip_bit_involutive () =
  List.iter
    (fun bit ->
      List.iter
        (fun x ->
          let flipped = Fault.Model.flip_bit ~bit x in
          Alcotest.(check bool)
            (Printf.sprintf "flip bit %d of %g changes it" bit x)
            true
            (Int64.bits_of_float flipped <> Int64.bits_of_float x);
          Alcotest.(check bool)
            (Printf.sprintf "double flip bit %d of %g restores" bit x)
            true
            (Fault.Model.flip_bit ~bit flipped = x
            || Float.is_nan (Fault.Model.flip_bit ~bit flipped) && Float.is_nan x))
        [ 0.15; -2.5; 0.0; 1e10 ])
    [ 0; 31; 51; 52; 62; 63 ]

let test_inject_does_not_mutate () =
  let net = make_net 3 6 in
  let x = (scenes 4 1).(0) in
  let before = Nn.Network.forward net x in
  let faults =
    [
      Fault.Model.Weight_bit_flip { layer = 0; row = 0; col = 0; bit = 62 };
      Fault.Model.Bias_bit_flip { layer = 1; row = 2; bit = 40 };
      Fault.Model.Stuck_neuron
        { layer = 2; neuron = 1; mode = Fault.Model.Stuck_saturation };
      Fault.Model.Weight_drift { seed = 11; sigma = 0.3 };
    ]
  in
  List.iter (fun f -> ignore (Fault.Model.inject f net)) faults;
  let after = Nn.Network.forward net x in
  Alcotest.(check bool) "original network untouched" true
    (Linalg.Vec.approx_equal ~eps:0.0 before after)

let test_stuck_neuron_semantics () =
  let net = make_net 5 6 in
  let zeroed =
    Fault.Model.inject
      (Fault.Model.Stuck_neuron { layer = 1; neuron = 2; mode = Fault.Model.Stuck_zero })
      net
  in
  let l = Nn.Network.layer zeroed 1 in
  for c = 0 to Nn.Layer.input_dim l - 1 do
    Alcotest.(check (float 0.0)) "weight row zeroed" 0.0
      (Linalg.Mat.get l.Nn.Layer.weights 2 c)
  done;
  Alcotest.(check (float 0.0)) "bias zero" 0.0 l.Nn.Layer.bias.(2);
  let saturated =
    Fault.Model.inject
      (Fault.Model.Stuck_neuron
         { layer = 1; neuron = 2; mode = Fault.Model.Stuck_saturation })
      net
  in
  let l = Nn.Network.layer saturated 1 in
  Alcotest.(check (float 0.0)) "bias at saturation level"
    Fault.Model.saturation_level l.Nn.Layer.bias.(2)

let test_sample_deterministic () =
  let net = make_net 7 8 in
  let draw seed =
    let rng = Linalg.Rng.create seed in
    List.init 30 (fun _ -> Fault.Model.sample ~rng net)
  in
  Alcotest.(check bool) "same seed, same faults" true (draw 42 = draw 42);
  Alcotest.(check bool) "different seeds differ" true (draw 42 <> draw 43)

let test_sensor_dropout () =
  let ch = Fault.Model.input_channel (Fault.Model.Sensor_dropout { feature = 3 }) in
  let v = Array.init 84 (fun i -> float_of_int i +. 1.0) in
  let c = Fault.Model.corrupt ch v in
  Alcotest.(check (float 0.0)) "feature dropped" 0.0 c.(3);
  Alcotest.(check (float 0.0)) "others intact" 5.0 c.(4);
  Alcotest.(check (float 0.0)) "input not mutated" 4.0 v.(3)

let test_sensor_freeze () =
  let ch = Fault.Model.input_channel (Fault.Model.Sensor_freeze { feature = 0 }) in
  let at value =
    let v = Array.make 84 0.0 in
    v.(0) <- value;
    (Fault.Model.corrupt ch v).(0)
  in
  Alcotest.(check (float 0.0)) "first value passes" 1.5 (at 1.5);
  Alcotest.(check (float 0.0)) "later values frozen" 1.5 (at 9.0);
  Alcotest.(check (float 0.0)) "still frozen" 1.5 (at (-4.0))

let test_stale_hold () =
  let ch =
    Fault.Model.input_channel (Fault.Model.Stale_hold { feature = 0; lag = 2 })
  in
  let at value =
    let v = Array.make 84 0.0 in
    v.(0) <- value;
    (Fault.Model.corrupt ch v).(0)
  in
  (* While the delay line fills, the oldest value is held; afterwards
     values arrive exactly [lag] samples late. *)
  Alcotest.(check (float 0.0)) "t=0 sees oldest" 1.0 (at 1.0);
  Alcotest.(check (float 0.0)) "t=1 still oldest" 1.0 (at 2.0);
  Alcotest.(check (float 0.0)) "t=2 lagged by 2" 1.0 (at 3.0);
  Alcotest.(check (float 0.0)) "t=3 lagged by 2" 2.0 (at 4.0)

let campaign ?faults ?(trials = 40) seed =
  let net = make_net 9 8 in
  let scenes = scenes 10 25 in
  let envelope = Guard.envelope ~components ~lat_limit:1.0 () in
  let rng = Linalg.Rng.create seed in
  Fault.Campaign.run ~rng ~envelope ?faults ~scenes ~trials net

(* A campaign of tens of milliseconds, as the CI smoke runs, still shows
   its time in the header. *)
let test_campaign_render_header () =
  let r = { (campaign ~trials:3 21) with Fault.Campaign.elapsed = 0.04 } in
  let header = List.hd (String.split_on_char '\n' (Fault.Campaign.render r)) in
  Alcotest.(check string) "header" "fault campaign: 3 trials x 25 scenes (40 ms)"
    header

let test_campaign_reproducible () =
  let a = campaign 21 and b = campaign 21 in
  Alcotest.(check int) "detected" a.Fault.Campaign.detected b.Fault.Campaign.detected;
  Alcotest.(check int) "nan" a.Fault.Campaign.nan_trials b.Fault.Campaign.nan_trials;
  Alcotest.(check int) "violations" a.Fault.Campaign.violation_trials
    b.Fault.Campaign.violation_trials;
  Alcotest.(check int) "silent" a.Fault.Campaign.silent b.Fault.Campaign.silent;
  Alcotest.(check int) "fallbacks" a.Fault.Campaign.total_fallbacks
    b.Fault.Campaign.total_fallbacks;
  Alcotest.(check bool) "same faults" true
    (Array.for_all2
       (fun (x : Fault.Campaign.trial) (y : Fault.Campaign.trial) ->
         x.Fault.Campaign.fault = y.Fault.Campaign.fault)
       a.Fault.Campaign.trials b.Fault.Campaign.trials)

let test_campaign_invariants () =
  let r = campaign 22 in
  let n = Array.length r.Fault.Campaign.trials in
  Alcotest.(check int) "trial count" 40 n;
  Alcotest.(check int) "no escaped exceptions" 0
    r.Fault.Campaign.escaped_exceptions;
  Alcotest.(check int) "every nan fault detected" r.Fault.Campaign.nan_trials
    r.Fault.Campaign.nan_detected;
  Alcotest.(check int) "every violation detected"
    r.Fault.Campaign.violation_trials r.Fault.Campaign.violations_detected;
  Alcotest.(check int) "detected/silent/benign partition" n
    (r.Fault.Campaign.detected + r.Fault.Campaign.silent
   + r.Fault.Campaign.benign)

let test_campaign_pinned_nan_fault () =
  (* find_nan_fault locates a single bit flip that drives the unguarded
     path non-finite; the campaign must classify and detect it. *)
  let net = make_net 9 8 in
  let sc = scenes 10 25 in
  match Fault.Campaign.find_nan_fault ~components ~scenes:sc net with
  | None -> Alcotest.fail "no NaN-producing bit flip found on I4x8"
  | Some f ->
      let r = campaign ~faults:[ f ] ~trials:1 23 in
      Alcotest.(check bool) "nan trial recorded" true
        (r.Fault.Campaign.nan_trials >= 1);
      Alcotest.(check int) "all nan faults detected"
        r.Fault.Campaign.nan_trials r.Fault.Campaign.nan_detected;
      Alcotest.(check int) "nothing escaped" 0
        r.Fault.Campaign.escaped_exceptions

let test_campaign_parallel_matches_sequential () =
  (* Faults are sampled up front and trials are independent, so the
     work-stealing replay must reproduce the sequential tallies
     exactly. *)
  let net = make_net 9 8 in
  let sc = scenes 10 15 in
  let envelope = Guard.envelope ~components ~lat_limit:1.0 () in
  let go cores =
    let rng = Linalg.Rng.create 31 in
    Fault.Campaign.run ~rng ~envelope ~cores ~scenes:sc ~trials:20 net
  in
  let a = go 1 and b = go 3 in
  Alcotest.(check int) "no failed workers" 0 b.Fault.Campaign.failed_workers;
  Alcotest.(check int) "detected" a.Fault.Campaign.detected
    b.Fault.Campaign.detected;
  Alcotest.(check int) "nan" a.Fault.Campaign.nan_trials
    b.Fault.Campaign.nan_trials;
  Alcotest.(check int) "silent" a.Fault.Campaign.silent b.Fault.Campaign.silent;
  Alcotest.(check int) "benign" a.Fault.Campaign.benign b.Fault.Campaign.benign;
  Alcotest.(check int) "fallbacks" a.Fault.Campaign.total_fallbacks
    b.Fault.Campaign.total_fallbacks;
  Alcotest.(check bool) "same fault list" true
    (Array.for_all2
       (fun (x : Fault.Campaign.trial) (y : Fault.Campaign.trial) ->
         x.Fault.Campaign.fault = y.Fault.Campaign.fault)
       a.Fault.Campaign.trials b.Fault.Campaign.trials)

let test_campaign_requeues_dead_worker () =
  (* A worker domain dies mid-campaign (the progress callback detonates
     exactly once, inside whichever worker claims it first); the trial
     it was running must be re-queued and finished by the parent, so the
     tallies still match a clean sequential run. *)
  let net = make_net 9 8 in
  let sc = scenes 10 15 in
  let envelope = Guard.envelope ~components ~lat_limit:1.0 () in
  let baseline =
    let rng = Linalg.Rng.create 31 in
    Fault.Campaign.run ~rng ~envelope ~scenes:sc ~trials:20 net
  in
  let bomb = Atomic.make true in
  let progress _ _ =
    if Atomic.compare_and_set bomb true false then failwith "injected crash"
  in
  let r =
    let rng = Linalg.Rng.create 31 in
    Fault.Campaign.run ~rng ~envelope ~progress ~cores:2 ~scenes:sc ~trials:20
      net
  in
  Alcotest.(check int) "one worker died" 1 r.Fault.Campaign.failed_workers;
  Alcotest.(check int) "no trial dropped" 20
    (Array.length r.Fault.Campaign.trials);
  Alcotest.(check int) "detected matches clean run"
    baseline.Fault.Campaign.detected r.Fault.Campaign.detected;
  Alcotest.(check int) "nan matches clean run"
    baseline.Fault.Campaign.nan_trials r.Fault.Campaign.nan_trials;
  Alcotest.(check int) "silent matches clean run"
    baseline.Fault.Campaign.silent r.Fault.Campaign.silent;
  Alcotest.(check int) "fallbacks match clean run"
    baseline.Fault.Campaign.total_fallbacks r.Fault.Campaign.total_fallbacks

let test_campaign_reverify_sound () =
  (* Tiny network so the MILP re-verification stays fast: the empirical
     maximum over the replayed scenes must sit below the formal bound. *)
  let net = make_net 13 3 in
  let sc = scenes 14 8 in
  let envelope = Guard.envelope ~components ~lat_limit:1.0 () in
  let rng = Linalg.Rng.create 15 in
  let r =
    Fault.Campaign.run ~rng ~envelope ~reverify:1 ~reverify_time_limit:10.0
      ~scenes:sc ~trials:12 net
  in
  List.iter
    (fun rv ->
      Alcotest.(check bool)
        (Printf.sprintf "sound: %s" (Fault.Model.describe rv.Fault.Campaign.rv_fault))
        true rv.Fault.Campaign.rv_sound)
    r.Fault.Campaign.reverified

(* Ten scenes of the network's input length and one of 40 features,
   which no forward pass accepts. *)
let mixed_scenes () = Array.append (scenes 10 10) [| Array.make 40 0.25 |]

let test_campaign_reverify_short_scene () =
  (* The short scene must not size or break the re-verified box. A
     time-limited search still returns a sound upper bound. *)
  let net = make_net 9 8 in
  let envelope = Guard.envelope ~components ~lat_limit:1.0 () in
  let rng = Linalg.Rng.create 15 in
  let flip =
    Fault.Model.Network_fault
      (Fault.Model.Bias_bit_flip { layer = 1; row = 2; bit = 52 })
  in
  let r =
    Fault.Campaign.run ~rng ~envelope ~reverify:1 ~reverify_time_limit:1.0
      ~faults:[ flip ] ~scenes:(mixed_scenes ()) ~trials:0 net
  in
  match r.Fault.Campaign.reverified with
  | [ rv ] ->
      Alcotest.(check bool) "re-verification sound" true
        rv.Fault.Campaign.rv_sound
  | l ->
      Alcotest.failf "expected one re-verification, got %d" (List.length l)

let test_nan_fault_ignores_short_scene () =
  (* A scene no forward accepts reads as non-finite under every flip;
     the flip returned must be non-finite on a scene that fits. *)
  let net = make_net 9 8 in
  let sc = mixed_scenes () in
  let non_finite faulted s =
    match
      Guard.read ~components
        (match Nn.Network.forward faulted s with
         | out -> Ok out
         | exception e -> Error e)
    with
    | Guard.Finite _ -> false
    | Guard.Raised _ | Guard.Non_finite _ -> true
  in
  match Fault.Campaign.find_nan_fault ~components ~scenes:sc net with
  | None -> ()
  | Some (Fault.Model.Input_fault _) -> Alcotest.fail "not a network fault"
  | Some (Fault.Model.Network_fault nf) ->
      let faulted = Fault.Model.inject nf net in
      Alcotest.(check bool)
        (Printf.sprintf "%s is non-finite on a full-length scene"
           (Fault.Model.describe (Fault.Model.Network_fault nf)))
        true
        (Array.exists
           (fun s ->
             Array.length s = Nn.Network.input_dim net && non_finite faulted s)
           sc)

(* {1 Scalar oracle}

   An independent rebuild of one campaign trial, one scene at a time:
   the scalar forward, the full mixture decode and [mean] for the
   unguarded verdict and the clean reference, and a fresh guard's
   [predict] for the guarded one. Stateful input channels see the
   scenes once each, in order, as the campaign's do. *)
let oracle_trial ~envelope ~scenes net fault : Fault.Campaign.trial =
  let components = envelope.Guard.components in
  let decoded out =
    match Nn.Gmm.decode ~components out with
    | exception _ -> None
    | mixture -> Some (mixture, Nn.Gmm.mean mixture)
  in
  let reference scene =
    match Nn.Network.forward net scene with
    | exception _ -> 0.0
    | out -> (
        match decoded out with
        | Some (_, (lat, _)) when Float.is_finite lat -> lat
        | _ -> 0.0)
  in
  (* [None]: the actuator would receive NaN/Inf; otherwise the worst
     component lateral mean. *)
  let unguarded faulted input =
    match Nn.Network.forward faulted input with
    | exception _ -> None
    | out when Array.exists (fun x -> not (Float.is_finite x)) out -> None
    | out -> (
        match decoded out with
        | Some (mixture, (lat, lon))
          when Float.is_finite lat && Float.is_finite lon ->
            Some (Nn.Gmm.max_component_mu_lat mixture)
        | _ -> None)
  in
  let faulted, channel =
    match fault with
    | Fault.Model.Network_fault nf -> (Fault.Model.inject nf net, None)
    | Fault.Model.Input_fault f -> (net, Some (Fault.Model.input_channel f))
  in
  let guard = Guard.make ~envelope faulted in
  let detected = ref false and escaped = ref false in
  let nan_raw = ref false and nan_all_tripped = ref true in
  let violation_raw = ref false and violation_all_flagged = ref true in
  let max_deviation = ref 0.0 in
  Array.iter
    (fun scene ->
      let input =
        match channel with
        | Some ch -> Fault.Model.corrupt ch scene
        | None -> scene
      in
      let raw = unguarded faulted input in
      match Guard.predict guard input with
      | exception _ -> escaped := true
      | (glat, _), state ->
          if state <> Guard.Nominal then detected := true;
          (match raw with
           | None ->
               nan_raw := true;
               if state <> Guard.Fallback then nan_all_tripped := false
           | Some worst ->
               if worst > envelope.Guard.lat_limit then begin
                 violation_raw := true;
                 if state = Guard.Nominal then violation_all_flagged := false
               end);
          let dev = Float.abs (glat -. reference scene) in
          if Float.is_finite dev && dev > !max_deviation then
            max_deviation := dev)
    scenes;
  {
    Fault.Campaign.fault;
    detected = !detected;
    nan_raw = !nan_raw;
    nan_detected = !nan_raw && !nan_all_tripped;
    violation_raw = !violation_raw;
    violation_detected = !violation_raw && !violation_all_flagged;
    (* 0.05 m/s: the campaign's default [silent_tolerance]. *)
    silent = (not !detected) && !max_deviation > 0.05;
    max_deviation = !max_deviation;
    fallbacks = (Guard.diagnostics guard).Guard.fallbacks;
    escaped_exception = !escaped;
  }

let check_trial_bits tag (expected : Fault.Campaign.trial)
    (got : Fault.Campaign.trial) =
  let flag name f =
    Alcotest.(check bool) (tag ^ ": " ^ name) (f expected) (f got)
  in
  Alcotest.(check bool) (tag ^ ": fault") true
    (expected.Fault.Campaign.fault = got.Fault.Campaign.fault);
  flag "detected" (fun t -> t.Fault.Campaign.detected);
  flag "nan_raw" (fun t -> t.Fault.Campaign.nan_raw);
  flag "nan_detected" (fun t -> t.Fault.Campaign.nan_detected);
  flag "violation_raw" (fun t -> t.Fault.Campaign.violation_raw);
  flag "violation_detected" (fun t -> t.Fault.Campaign.violation_detected);
  flag "silent" (fun t -> t.Fault.Campaign.silent);
  flag "escaped_exception" (fun t -> t.Fault.Campaign.escaped_exception);
  Alcotest.(check int64) (tag ^ ": max_deviation bits")
    (Int64.bits_of_float expected.Fault.Campaign.max_deviation)
    (Int64.bits_of_float got.Fault.Campaign.max_deviation);
  Alcotest.(check int) (tag ^ ": fallbacks") expected.Fault.Campaign.fallbacks
    got.Fault.Campaign.fallbacks

(* Random I4xN predictors, scene sets of up to three chunks with
   exact-zero features (some features read 0.0 in every scene, so their
   dropout changes nothing) and sampled trials: every trial of the
   campaign equals its scalar rebuild, bit for bit. *)
let prop_campaign_matches_oracle =
  QCheck.Test.make ~count:40 ~name:"campaign trials equal the scalar oracle"
    (QCheck.make QCheck.Gen.(int_range 0 100_000))
    (fun seed ->
      let rng = Linalg.Rng.create seed in
      let net = make_net (seed + 1) (3 + Linalg.Rng.int rng 8) in
      let zeroed = Array.init 84 (fun _ -> Linalg.Rng.int rng 8 = 0) in
      let scenes =
        Array.init
          (1 + Linalg.Rng.int rng ((2 * Nn.Network.chunk_width) + 3))
          (fun _ ->
            Array.init 84 (fun f ->
                if zeroed.(f) || Linalg.Rng.int rng 8 = 0 then 0.0
                else Linalg.Rng.uniform rng (-1.0) 1.0))
      in
      let envelope =
        Guard.envelope ~components
          ~lat_limit:(Linalg.Rng.uniform rng 0.0 2.0)
          ()
      in
      let r =
        Fault.Campaign.run ~rng:(Linalg.Rng.split rng) ~envelope ~scenes
          ~trials:(1 + Linalg.Rng.int rng 20)
          net
      in
      Array.iteri
        (fun i (got : Fault.Campaign.trial) ->
          check_trial_bits
            (Printf.sprintf "seed %d, trial %d (%s)" seed i
               (Fault.Model.describe got.Fault.Campaign.fault))
            (oracle_trial ~envelope ~scenes net got.Fault.Campaign.fault)
            got)
        r.Fault.Campaign.trials;
      true)

(* Every fault kind explicitly (the stateful freeze and stale-hold
   channels included), the pinned NaN flip, and sampled trials, on the
   clean scenes and on a set with one truncated scene (which the
   campaign cannot pack into a batch), on one and two cores, for one
   scene, one chunk short of full, a full chunk, one scene into a
   second chunk and a partial third chunk. The list also holds the
   cases an incremental replay treats specially: single-site faults in
   the output layer's logit and log-sigma rows, a one-ulp (bit 0)
   weight flip, faults that change more than a chunk of scenes (a
   first-layer flip, a feature dropout), and two faults that change no
   scene at all, a stuck-at-zero neuron that is already dead on every
   scene and the dropout of a feature that reads 0.0 in every scene. *)
let test_campaign_scalar_oracle () =
  let net = make_net 9 8 in
  (* A ReLU no scene activates, for the stuck-at-zero fault below. *)
  (Nn.Network.layer net 2).Nn.Layer.bias.(5) <- -100.0;
  let zero_feature = 11 and dropped_feature = 7 in
  let c = Nn.Network.chunk_width in
  let all =
    Array.map
      (fun s ->
        let s = Array.copy s in
        s.(zero_feature) <- 0.0;
        s)
      (scenes 10 ((2 * c) + 3))
  in
  Alcotest.(check bool) "the dropout changes more than a chunk of scenes" true
    (Array.fold_left
       (fun n s -> if s.(dropped_feature) <> 0.0 then n + 1 else n)
       0 all
     > c);
  (* Just above the clean network's worst component lateral mean, so
     the clean predictor runs nominal and only faults trip the guard. *)
  let clean_worst =
    Array.fold_left
      (fun acc s ->
        Float.max acc
          (Nn.Gmm.max_component_mu_lat
             (Nn.Gmm.decode ~components (Nn.Network.forward net s))))
      neg_infinity all
  in
  let envelope =
    Guard.envelope ~components ~lat_limit:(clean_worst +. 0.01) ()
  in
  (* Non-finite on the first scene, so on every prefix of the set. *)
  let nan_fault =
    match
      Fault.Campaign.find_nan_fault ~components ~scenes:[| all.(0) |] net
    with
    | Some f -> f
    | None -> Alcotest.fail "no NaN-producing bit flip found on I4x8"
  in
  let mu_lat0 = Nn.Gmm.mu_lat_index ~components 0 in
  let logit1 = Nn.Gmm.logit_index ~components 1 in
  let log_sigma_lat0 = Nn.Gmm.log_sigma_lat_index ~components 0 in
  let log_sigma_lon2 = Nn.Gmm.log_sigma_lon_index ~components 2 in
  (* A hidden ReLU neuron whose clean activation is +0.0 on every
     scene: stuck at zero, it changes nothing. *)
  let dead_neuron =
    let traces = Array.map (Nn.Network.forward_trace net) all in
    let dead layer neuron =
      Array.for_all
        (fun t ->
          Int64.bits_of_float t.Nn.Network.post.(layer).(neuron) = 0L)
        traces
    in
    let found = ref None in
    for layer = Nn.Network.num_layers net - 2 downto 0 do
      for neuron = Nn.Layer.output_dim (Nn.Network.layer net layer) - 1
          downto 0 do
        if dead layer neuron then found := Some (layer, neuron)
      done
    done;
    match !found with
    | Some (layer, neuron) ->
        Fault.Model.(
          Network_fault (Stuck_neuron { layer; neuron; mode = Stuck_zero }))
    | None -> Alcotest.fail "no neuron of I4x8 is dead on every scene"
  in
  let faults =
    Fault.Model.
      [
        Network_fault
          (Weight_bit_flip { layer = 4; row = logit1; col = 5; bit = 62 });
        Network_fault
          (Bias_bit_flip { layer = 4; row = log_sigma_lat0; bit = 61 });
        Network_fault
          (Stuck_neuron
             { layer = 4; neuron = log_sigma_lon2; mode = Stuck_saturation });
        Network_fault
          (Stuck_neuron { layer = 4; neuron = logit1; mode = Stuck_zero });
        Network_fault (Weight_bit_flip { layer = 1; row = 4; col = 3; bit = 0 });
        dead_neuron;
        Input_fault (Sensor_dropout { feature = zero_feature });
        Network_fault
          (Weight_bit_flip { layer = 0; row = 3; col = 10; bit = 62 });
        Network_fault
          (Weight_bit_flip { layer = 4; row = mu_lat0; col = 2; bit = 61 });
        Network_fault (Bias_bit_flip { layer = 4; row = mu_lat0; bit = 62 });
        Network_fault (Bias_bit_flip { layer = 2; row = 0; bit = 52 });
        Network_fault
          (Stuck_neuron { layer = 1; neuron = 2; mode = Stuck_saturation });
        Network_fault
          (Stuck_neuron { layer = 3; neuron = 0; mode = Stuck_zero });
        Network_fault (Weight_drift { seed = 5; sigma = 0.3 });
        Input_fault (Sensor_dropout { feature = dropped_feature });
        Input_fault (Sensor_freeze { feature = 0 });
        Input_fault (Stale_hold { feature = 1; lag = 3 });
        nan_fault;
      ]
  in
  List.iter
    (fun n ->
      let clean = Array.sub all 0 n in
      let truncated = Array.append clean [| Array.sub all.(0) 0 40 |] in
      List.iter
        (fun (set, scenes, mixed) ->
          List.iter
            (fun cores ->
              let r =
                Fault.Campaign.run ~rng:(Linalg.Rng.create 41) ~envelope
                  ~cores ~faults ~scenes ~trials:10 net
              in
              let run = Printf.sprintf "%d %s, %d cores" n set cores in
              Alcotest.(check int) (run ^ ": trial count")
                (List.length faults + 10)
                (Array.length r.Fault.Campaign.trials);
              Array.iteri
                (fun i (got : Fault.Campaign.trial) ->
                  check_trial_bits
                    (Printf.sprintf "%s, trial %d (%s)" run i
                       (Fault.Model.describe got.Fault.Campaign.fault))
                    (oracle_trial ~envelope ~scenes net
                       got.Fault.Campaign.fault)
                    got)
                r.Fault.Campaign.trials;
              Alcotest.(check bool) (run ^ ": the pinned flip is a NaN trial")
                true
                r.Fault.Campaign.trials.(List.length faults - 1)
                  .Fault.Campaign.nan_raw;
              let some name f =
                Alcotest.(check bool) (run ^ ": some trial " ^ name) true
                  (Array.exists f r.Fault.Campaign.trials)
              in
              if mixed then begin
                some "violates" (fun t -> t.Fault.Campaign.violation_raw);
                some "is silent" (fun t -> t.Fault.Campaign.silent);
                some "is benign" (fun t ->
                    (not t.Fault.Campaign.detected)
                    && not t.Fault.Campaign.silent)
              end)
            [ 1; 2 ])
        (* The truncated scene trips the guard in every trial. *)
        [
          ("clean scenes", clean, n = (2 * c) + 3);
          ("clean scenes and a truncated one", truncated, false);
        ])
    [ 1; c - 1; c; c + 1; (2 * c) + 3 ]

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "fault"
    [
      ( "model",
        [
          quick "flip_bit involutive" test_flip_bit_involutive;
          quick "inject copies" test_inject_does_not_mutate;
          quick "stuck neuron" test_stuck_neuron_semantics;
          quick "sample deterministic" test_sample_deterministic;
        ] );
      ( "channel",
        [
          quick "dropout" test_sensor_dropout;
          quick "freeze" test_sensor_freeze;
          quick "stale hold" test_stale_hold;
        ] );
      ( "campaign",
        [
          quick "reproducible" test_campaign_reproducible;
          quick "render header" test_campaign_render_header;
          quick "invariants" test_campaign_invariants;
          quick "pinned nan fault" test_campaign_pinned_nan_fault;
          quick "parallel matches sequential"
            test_campaign_parallel_matches_sequential;
          quick "re-queues dead worker" test_campaign_requeues_dead_worker;
          quick "reverify sound" test_campaign_reverify_sound;
          quick "reverify short scene" test_campaign_reverify_short_scene;
          quick "nan fault ignores short scene"
            test_nan_fault_ignores_short_scene;
          quick "scalar oracle" test_campaign_scalar_oracle;
          QCheck_alcotest.to_alcotest prop_campaign_matches_oracle;
        ] );
    ]
