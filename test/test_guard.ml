(* Runtime safety monitor: typed degradation states, the never-raise /
   always-finite contract, and the envelope derivation from verification
   results. *)

let components = 1

(* A network that outputs the given 5-vector (logit, mu_lat, mu_lon,
   log_sigma_lat, log_sigma_lon) for every input: zero weights, the
   outputs as bias, identity activation. *)
let const_net outputs =
  let out_dim = Array.length outputs in
  Nn.Network.make
    [| Nn.Layer.make (Linalg.Mat.zeros out_dim 84) outputs Nn.Activation.Identity |]

let head ~lat ~lon = [| 0.0; lat; lon; 0.0; 0.0 |]

let input = Array.make 84 0.1

let env lat_limit = Guard.envelope ~components ~lat_limit ()

let test_nominal_passthrough () =
  let guard = Guard.make ~envelope:(env 1.0) (const_net (head ~lat:0.3 ~lon:0.1)) in
  let (lat, lon), state = Guard.predict guard input in
  Alcotest.(check bool) "nominal" true (state = Guard.Nominal);
  Alcotest.(check (float 1e-9)) "lat passthrough" 0.3 lat;
  Alcotest.(check (float 1e-9)) "lon passthrough" 0.1 lon;
  let d = Guard.diagnostics guard in
  Alcotest.(check int) "nominal counted" 1 d.Guard.nominal;
  Alcotest.(check int) "no fallbacks" 0 d.Guard.fallbacks

let test_clamp_band () =
  (* 1.5 m/s against a 1.0 limit with a 1.0 band: saturate, don't bail. *)
  let guard = Guard.make ~envelope:(env 1.0) (const_net (head ~lat:1.5 ~lon:0.2)) in
  let (lat, lon), state = Guard.predict guard input in
  Alcotest.(check bool) "clamped" true (state = Guard.Clamped);
  Alcotest.(check (float 1e-9)) "saturated to limit" 1.0 lat;
  Alcotest.(check (float 1e-9)) "lon untouched" 0.2 lon;
  let d = Guard.diagnostics guard in
  Alcotest.(check int) "envelope trip" 1 d.Guard.envelope_trips;
  Alcotest.(check int) "clamped counted" 1 d.Guard.clamped

let test_beyond_band_falls_back () =
  let guard = Guard.make ~envelope:(env 1.0) (const_net (head ~lat:5.0 ~lon:0.0)) in
  let (lat, lon), state = Guard.predict guard input in
  Alcotest.(check bool) "fallback" true (state = Guard.Fallback);
  Alcotest.(check bool) "finite" true (Float.is_finite lat && Float.is_finite lon);
  Alcotest.(check (float 1e-9)) "fallback holds the lane" 0.0 lat

let test_nan_output_falls_back () =
  let guard = Guard.make ~envelope:(env 1.0) (const_net (head ~lat:Float.nan ~lon:0.0)) in
  let (lat, lon), state = Guard.predict guard input in
  Alcotest.(check bool) "fallback" true (state = Guard.Fallback);
  Alcotest.(check bool) "finite despite NaN net" true
    (Float.is_finite lat && Float.is_finite lon);
  let d = Guard.diagnostics guard in
  Alcotest.(check int) "nan trip" 1 d.Guard.nan_trips;
  match d.Guard.last_trip with
  | Some (Guard.Non_finite_output _) -> ()
  | _ -> Alcotest.fail "expected Non_finite_output trip"

let test_out_of_range_falls_back () =
  (* 25 m/s is beyond the 20 m/s sanity range: corrupted, not clampable. *)
  let guard = Guard.make ~envelope:(env 1.0) (const_net (head ~lat:25.0 ~lon:0.0)) in
  let _, state = Guard.predict guard input in
  Alcotest.(check bool) "fallback" true (state = Guard.Fallback);
  match (Guard.diagnostics guard).Guard.last_trip with
  | Some (Guard.Output_out_of_range _) -> ()
  | _ -> Alcotest.fail "expected Output_out_of_range trip"

let test_fallback_is_fenced () =
  (* Even a fallback that raises cannot break the guard's contract. *)
  let guard =
    Guard.make ~envelope:(env 1.0)
      ~fallback:(fun _ -> failwith "fallback crashed")
      (const_net (head ~lat:Float.nan ~lon:0.0))
  in
  let (lat, lon), state = Guard.predict guard input in
  Alcotest.(check bool) "fallback state" true (state = Guard.Fallback);
  Alcotest.(check (float 1e-9)) "safe default lat" 0.0 lat;
  Alcotest.(check (float 1e-9)) "safe default lon" 0.0 lon

let test_counters_consistent () =
  let guard = Guard.make ~envelope:(env 1.0) (const_net (head ~lat:0.2 ~lon:0.0)) in
  for _ = 1 to 5 do
    ignore (Guard.predict guard input)
  done;
  let d = Guard.diagnostics guard in
  Alcotest.(check int) "partition"
    d.Guard.predictions
    (d.Guard.nominal + d.Guard.clamped + d.Guard.fallbacks);
  Guard.reset guard;
  let d = Guard.diagnostics guard in
  Alcotest.(check int) "reset" 0 d.Guard.predictions

let test_envelope_validation () =
  Alcotest.(check bool) "NaN limit rejected" true
    (try
       ignore (Guard.envelope ~components ~lat_limit:Float.nan ());
       false
     with Invalid_argument _ -> true)

let max_result ~upper_bound : Verify.Driver.max_result =
  {
    Verify.Driver.value = None;
    upper_bound;
    optimal = false;
    timed_out = true;
    witness = None;
    elapsed = 0.0;
    component_elapsed = [||];
    nodes = 0;
    lp_iterations = 0;
    encoder_stats =
      { Encoding.Encoder.stable_active = 0; stable_inactive = 0; unstable = 0;
        rows = 0; cols = 0; nnz = 0; density = 0.0 };
    obbt =
      { Encoding.Encoder.probes = 0; refined = 0; failed = 0;
        skipped_budget = 0 };
  }

let test_envelope_of_verification () =
  let e =
    Guard.envelope_of_verification ~components ~threshold:1.5
      (max_result ~upper_bound:0.8)
  in
  Alcotest.(check (float 1e-9)) "tight bound wins" 0.8 e.Guard.lat_limit;
  let e =
    Guard.envelope_of_verification ~components ~threshold:1.5
      (max_result ~upper_bound:7.0)
  in
  Alcotest.(check (float 1e-9)) "threshold caps loose bound" 1.5 e.Guard.lat_limit;
  let e =
    Guard.envelope_of_verification ~components (max_result ~upper_bound:infinity)
  in
  Alcotest.(check (float 1e-9)) "no finite bound: sanity limit" 20.0
    e.Guard.lat_limit

let test_idm_fallback_sanitizes () =
  let lat, lon = Guard.idm_fallback (Array.make 84 Float.nan) in
  Alcotest.(check bool) "finite on all-NaN input" true
    (Float.is_finite lat && Float.is_finite lon);
  Alcotest.(check (float 1e-9)) "no lateral motion" 0.0 lat;
  let lat2, lon2 = Guard.idm_fallback [||] in
  Alcotest.(check bool) "finite on empty input" true
    (Float.is_finite lat2 && Float.is_finite lon2)

(* The contract, property-style: whatever network and input (finite or
   not), predict never raises and returns finite actions. *)
let prop_never_raises_always_finite =
  QCheck.Test.make ~name:"guard never raises, always finite" ~count:100
    (QCheck.make
       QCheck.Gen.(triple (int_range 0 1000) (int_range 1 6) (int_range 0 3)))
    (fun (net_seed, width, poison) ->
      let rng = Linalg.Rng.create net_seed in
      let net =
        Nn.Network.create ~rng [ 84; width; Nn.Gmm.output_dim ~components ]
      in
      (* Poison some parameters to stress the non-finite paths. *)
      let l = Nn.Network.layer net 0 in
      (match poison with
       | 1 -> l.Nn.Layer.bias.(0) <- Float.nan
       | 2 -> l.Nn.Layer.bias.(0) <- Float.infinity
       | 3 -> Linalg.Mat.set l.Nn.Layer.weights 0 0 1e308
       | _ -> ());
      let guard = Guard.make ~envelope:(env 0.5) net in
      let x =
        Array.init 84 (fun i ->
            match (net_seed + i) mod 17 with
            | 0 -> Float.nan
            | 1 -> Float.infinity
            | _ -> Linalg.Rng.uniform rng (-2.0) 2.0)
      in
      match Guard.predict guard x with
      | (lat, lon), _ -> Float.is_finite lat && Float.is_finite lon
      | exception _ -> false)

(* A forward that raised, handed in as [Error]: the guard falls back
   and records the exception, exactly as [predict] does when its own
   forward raises. *)
let test_classify_forward_raised () =
  let guard = Guard.make ~envelope:(env 1.0) (const_net (head ~lat:0.3 ~lon:0.1)) in
  let (lat, lon), state =
    Guard.classify guard input (Guard.read ~components (Error (Failure "boom")))
  in
  Alcotest.(check bool) "fallback" true (state = Guard.Fallback);
  Alcotest.(check bool) "finite" true (Float.is_finite lat && Float.is_finite lon);
  let d = Guard.diagnostics guard in
  Alcotest.(check int) "counted" 1 d.Guard.predictions;
  Alcotest.(check int) "one exception trip" 1 d.Guard.exception_trips;
  Alcotest.(check int) "one fallback" 1 d.Guard.fallbacks;
  match d.Guard.last_trip with
  | Some (Guard.Forward_raised { exn }) ->
      Alcotest.(check string) "exception recorded"
        (Printexc.to_string (Failure "boom")) exn
  | _ -> Alcotest.fail "expected Forward_raised trip"

(* {1 Batched prediction} *)

(* [predict_batch] must be observationally identical to mapping
   [predict]: same actions, same states, same counters, same last trip —
   for one input, one chunk short of full, a full chunk, one input into
   a second chunk, and a partial third chunk. *)
let test_predict_batch_matches_scalar () =
  let components = 3 in
  let rng = Linalg.Rng.create 51 in
  let net =
    Nn.Network.i4xn ~rng ~output_dim:(Nn.Gmm.output_dim ~components) 8
  in
  let c = Nn.Network.chunk_width in
  let all =
    Array.init ((2 * c) + 3) (fun _ ->
        Array.init 84 (fun _ -> Linalg.Rng.uniform rng (-4.0) 4.0))
  in
  let envelope = Guard.envelope ~components ~lat_limit:0.4 () in
  List.iter
    (fun n ->
      let inputs = Array.sub all 0 n in
      let scalar_guard = Guard.make ~envelope net in
      let expected = Array.map (Guard.predict scalar_guard) inputs in
      let guard = Guard.make ~envelope net in
      let got = Guard.predict_batch guard inputs in
      let bits = Int64.bits_of_float in
      Array.iteri
        (fun i ((lat, lon), state) ->
          let (elat, elon), estate = expected.(i) in
          if
            not
              (bits lat = bits elat && bits lon = bits elon && state = estate)
          then
            Alcotest.failf "%d inputs, input %d: batched prediction differs"
              n i)
        got;
      Alcotest.(check bool)
        (Printf.sprintf "%d inputs: diagnostics identical" n)
        true
        (Guard.diagnostics guard = Guard.diagnostics scalar_guard))
    [ 1; c - 1; c; c + 1; (2 * c) + 3 ]

(* One poisoned sample must not leak into its batch neighbours. *)
let test_predict_batch_nan_isolated () =
  let guard = Guard.make ~envelope:(env 1.0) (const_net (head ~lat:0.3 ~lon:0.1)) in
  let poisoned = Array.make 84 Float.nan in
  let inputs = [| input; poisoned; input |] in
  let got = Guard.predict_batch guard inputs in
  let states = Array.map snd got in
  Alcotest.(check bool) "clean neighbours nominal" true
    (states.(0) = Guard.Nominal && states.(2) = Guard.Nominal);
  Alcotest.(check bool) "poisoned column falls back" true
    (states.(1) = Guard.Fallback);
  let (lat, lon), _ = got.(1) in
  Alcotest.(check bool) "fallback action finite" true
    (Float.is_finite lat && Float.is_finite lon)

let test_predict_batch_empty () =
  let guard = Guard.make ~envelope:(env 1.0) (const_net (head ~lat:0.3 ~lon:0.1)) in
  Alcotest.(check int) "empty input, empty output" 0
    (Array.length (Guard.predict_batch guard [||]));
  Alcotest.(check int) "no predictions counted" 0
    (Guard.diagnostics guard).Guard.predictions

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "guard"
    [
      ( "monitor",
        [
          quick "nominal passthrough" test_nominal_passthrough;
          quick "clamp band" test_clamp_band;
          quick "beyond band" test_beyond_band_falls_back;
          quick "nan output" test_nan_output_falls_back;
          quick "out of range" test_out_of_range_falls_back;
          quick "fenced fallback" test_fallback_is_fenced;
          quick "counters" test_counters_consistent;
          quick "classify forward raised" test_classify_forward_raised;
        ] );
      ( "envelope",
        [
          quick "validation" test_envelope_validation;
          quick "from verification" test_envelope_of_verification;
        ] );
      ("fallback", [ quick "idm sanitizes" test_idm_fallback_sanitizes ]);
      ( "batched",
        [
          quick "matches scalar" test_predict_batch_matches_scalar;
          quick "nan isolated" test_predict_batch_nan_isolated;
          quick "empty" test_predict_batch_empty;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_never_raises_always_finite ]
      );
    ]
