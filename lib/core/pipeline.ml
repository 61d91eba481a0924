let components = 3
let threshold = 1.5

type config = {
  seed : int;
  width : int;
  n_samples : int;
  risky_rate : float;
  epochs : int;
  scenario_slack : float;
  verify_time_limit : float;
  verify_cores : int;
}

let default_config ?(width = 10) ?(seed = 7) () =
  {
    seed;
    width;
    n_samples = 1500;
    risky_rate = 0.25;
    epochs = 30;
    scenario_slack = 0.03;
    verify_time_limit = 60.0;
    verify_cores = 1;
  }

type artifacts = {
  used : config;
  audit : Sanitizer.report;
  history : Train.Trainer.history;
  network : Nn.Network.t;
  traceability : Traceability.Analysis.t;
  mcdc : Coverage.Mcdc.analysis;
  mcdc_measured : Coverage.Mcdc.measured;
  scenario : Interval.Box.box;
  verification : Verify.Driver.max_result;
  proof : Verify.Driver.proof_result;
  guard_envelope : Guard.envelope;
  guard_check : Guard.diagnostics;
}

let run ?(progress = fun _ -> ()) config =
  let rng = Linalg.Rng.create config.seed in
  progress
    (Printf.sprintf "recording %d driving scenes (risky rate %.0f%%)"
       config.n_samples (100.0 *. config.risky_rate));
  let samples =
    Highway.Recorder.record ~rng
      ~style:(Highway.Policy.Risky config.risky_rate)
      ~n_samples:config.n_samples ()
  in
  let raw = Dataset.of_samples samples in
  progress "pillar C: sanitizing training data";
  let clean, audit = Sanitizer.sanitize raw in
  progress
    (Printf.sprintf "  %d/%d samples accepted" audit.Sanitizer.accepted
       audit.Sanitizer.total);
  let net =
    Nn.Network.i4xn ~rng:(Linalg.Rng.split rng)
      ~output_dim:(Nn.Gmm.output_dim ~components)
      config.width
  in
  progress
    (Printf.sprintf "training %s for %d epochs" (Nn.Network.describe net)
       config.epochs);
  let trainer_config =
    {
      (Train.Trainer.default ~loss:(Train.Loss.Mdn { components }) ())
      with
      Train.Trainer.epochs = config.epochs;
      seed = config.seed + 1;
    }
  in
  let history = Train.Trainer.fit trainer_config net (Dataset.pairs clean) () in
  progress "pillar A: neuron-to-feature traceability";
  let traceability =
    Traceability.Analysis.analyze ~feature_names:Highway.Features.names net
      clean.Dataset.inputs
  in
  let mcdc = Coverage.Mcdc.analyze net in
  let mcdc_measured = Coverage.Mcdc.measure net clean.Dataset.inputs in
  progress "pillar B: formal verification (vehicle-on-left scenario)";
  let scenario = Verify.Scenario.vehicle_on_left ~slack:config.scenario_slack () in
  let verification =
    Verify.Driver.max_lateral_velocity ~time_limit:config.verify_time_limit
      ~cores:config.verify_cores ~components net scenario
  in
  let proof =
    Verify.Driver.prove_lateral_velocity_le
      ~time_limit:config.verify_time_limit ~cores:config.verify_cores
      ~components ~threshold net scenario
  in
  progress "runtime guard: turning the proven bound into a monitor";
  let guard_envelope =
    Guard.envelope_of_verification ~components ~threshold verification
  in
  (* Sanity replay: the certified network on its own (sanitized) training
     scenes should stay almost entirely Nominal under the envelope the
     verifier just proved. This is the same guard the deployment path
     wraps around the predictor. *)
  let guard = Guard.make ~envelope:guard_envelope net in
  ignore (Guard.predict_batch guard clean.Dataset.inputs);
  let guard_check = Guard.diagnostics guard in
  progress
    (Printf.sprintf "  %d/%d scenes nominal under lat limit %.3f m/s"
       guard_check.Guard.nominal guard_check.Guard.predictions
       guard_envelope.Guard.lat_limit);
  {
    used = config;
    audit;
    history;
    network = net;
    traceability;
    mcdc;
    mcdc_measured;
    scenario;
    verification;
    proof;
    guard_envelope;
    guard_check;
  }

type verdict = {
  data_validated : bool;
  traceability_ok : bool;
  property_holds : bool option;
}

let certify a =
  let data_validated = a.audit.Sanitizer.accepted < a.audit.Sanitizer.total || a.used.risky_rate = 0.0 in
  let traceability_ok =
    Traceability.Analysis.traceable_fraction a.traceability >= 0.5
  in
  let property_holds =
    match a.proof.Verify.Driver.proof with
    | Verify.Driver.Proved -> Some true
    | Verify.Driver.Disproved _ -> Some false
    | Verify.Driver.Unknown _ -> (
        (* Fall back on the exact maximisation if it completed. *)
        match (a.verification.Verify.Driver.value, a.verification.Verify.Driver.optimal) with
        | Some v, true -> Some (v <= threshold)
        | (Some _ | None), _ -> None)
  in
  { data_validated; traceability_ok; property_holds }

let render_report a =
  let v = certify a in
  let evidence = function
    | Pillar.Implementation_understandability ->
        Some
          (Printf.sprintf
             "%.0f%% of live neurons traceable to features (|corr| >= 0.3) over %d probes"
             (100.0 *. Traceability.Analysis.traceable_fraction a.traceability)
             a.traceability.Traceability.Analysis.n_probes)
    | Pillar.Implementation_correctness ->
        let mcdc_note =
          Printf.sprintf
            "MC/DC infeasible: %d branches, 2^%d combinations; measured %.1f%% after %d tests"
            a.mcdc.Coverage.Mcdc.decisions a.mcdc.Coverage.Mcdc.decisions
            a.mcdc_measured.Coverage.Mcdc.mcdc_percent
            a.mcdc_measured.Coverage.Mcdc.tests
        in
        let formal_note =
          match (a.verification.Verify.Driver.value, v.property_holds) with
          | Some value, Some true ->
              Printf.sprintf
                "formal: max lateral velocity %.3f m/s <= %.1f m/s (PROVED)"
                value threshold
          | Some value, Some false ->
              Printf.sprintf
                "formal: max lateral velocity %.3f m/s exceeds %.1f m/s (UNSAFE)"
                value threshold
          | Some value, None ->
              Printf.sprintf
                "formal: best found %.3f m/s, bound %.3f (inconclusive)" value
                a.verification.Verify.Driver.upper_bound
          | None, _ -> "formal: verification did not finish"
        in
        Some (mcdc_note ^ "; " ^ formal_note)
    | Pillar.Specification_validity ->
        Some
          (Printf.sprintf
             "data audit: %d/%d samples accepted, %d rejected by rules"
             a.audit.Sanitizer.accepted a.audit.Sanitizer.total
             (List.length a.audit.Sanitizer.rejections))
  in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf (Pillar.render_table ~evidence ());
  Buffer.add_string buf "\n";
  Buffer.add_string buf (Sanitizer.render_report a.audit);
  Buffer.add_string buf "\n";
  Buffer.add_string buf
    (Printf.sprintf
       "runtime guard: lat limit %.3f m/s (proven bound capped at %.1f)\n"
       a.guard_envelope.Guard.lat_limit threshold);
  Buffer.add_string buf (Guard.render_diagnostics a.guard_check);
  Buffer.contents buf
