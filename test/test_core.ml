let tiny_config =
  {
    (Pipeline.default_config ~width:4 ~seed:11 ()) with
    Pipeline.n_samples = 200;
    epochs = 3;
    risky_rate = 0.5;
    scenario_slack = 0.01;
    verify_time_limit = 20.0;
  }

(* The pipeline is expensive; run it once and share the artifacts. *)
let artifacts = lazy (Pipeline.run tiny_config)

let test_pillar_table_contents () =
  let s = Pillar.render_table () in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("mentions " ^ needle) true
        (let re = Str.regexp_string needle in
         try
           ignore (Str.search_forward re s 0);
           true
         with Not_found -> false))
    [
      "Implementation understandability";
      "Implementation correctness";
      "Specification validity";
      "neuron-to-feature";
      "MC/DC";
      "formal analysis";
      "new type of specification";
    ]

let test_pillar_rows () =
  Alcotest.(check int) "three rows" 3 (List.length Pillar.all);
  List.iter
    (fun row ->
      Alcotest.(check bool) "has adaptations" true
        (List.length row.Pillar.adaptations > 0))
    Pillar.all

let test_pipeline_artifacts_shape () =
  let a = Lazy.force artifacts in
  Alcotest.(check int) "audit covers all samples" tiny_config.Pipeline.n_samples
    a.Pipeline.audit.Sanitizer.total;
  Alcotest.(check int) "network width" 4
    (Nn.Layer.output_dim (Nn.Network.layer a.Pipeline.network 0));
  Alcotest.(check int) "84 inputs" 84 (Nn.Network.input_dim a.Pipeline.network);
  Alcotest.(check int) "epochs ran" tiny_config.Pipeline.epochs
    a.Pipeline.history.Train.Trainer.epochs_run;
  Alcotest.(check int) "scenario dimension" 84 (Array.length a.Pipeline.scenario);
  Alcotest.(check int) "mcdc decisions" 16 a.Pipeline.mcdc.Coverage.Mcdc.decisions

let test_pipeline_sanitizer_caught_contamination () =
  let a = Lazy.force artifacts in
  (* risky_rate 0.5 over 200 dense-traffic samples: contamination is
     near-certain, and the audit must have rejected something. *)
  Alcotest.(check bool) "rejected some" true
    (a.Pipeline.audit.Sanitizer.accepted < a.Pipeline.audit.Sanitizer.total)

let test_pipeline_verification_ran () =
  let a = Lazy.force artifacts in
  let v = a.Pipeline.verification in
  Alcotest.(check bool) "produced value or timed out" true
    (v.Verify.Driver.value <> None || v.Verify.Driver.timed_out);
  Alcotest.(check bool) "nodes explored" true (v.Verify.Driver.nodes > 0)

let test_pipeline_certify_consistent () =
  let a = Lazy.force artifacts in
  let verdict = Pipeline.certify a in
  Alcotest.(check bool) "data validated" true verdict.Pipeline.data_validated;
  (match verdict.Pipeline.property_holds with
   | Some true ->
       (* If declared safe, the verified max must actually be below the
          threshold whenever available. *)
       (match a.Pipeline.verification.Verify.Driver.value with
        | Some v ->
            Alcotest.(check bool) "consistent with max" true
              (v <= Pipeline.threshold +. 1e-6)
        | None -> ())
   | Some false | None -> ())

let test_pipeline_report_renders () =
  let a = Lazy.force artifacts in
  let s = Pipeline.render_report a in
  Alcotest.(check bool) "contains table" true
    (let re = Str.regexp_string "Table I" in
     try
       ignore (Str.search_forward re s 0);
       true
     with Not_found -> false);
  Alcotest.(check bool) "contains audit" true
    (let re = Str.regexp_string "data audit" in
     try
       ignore (Str.search_forward re s 0);
       true
     with Not_found -> false)

let test_pipeline_deterministic_data () =
  (* Same seed, same audit result (data generation is deterministic). *)
  let rng1 = Linalg.Rng.create 123 and rng2 = Linalg.Rng.create 123 in
  let s1 = Highway.Recorder.record ~rng:rng1 ~n_samples:100 () in
  let s2 = Highway.Recorder.record ~rng:rng2 ~n_samples:100 () in
  Array.iteri
    (fun i a ->
      Alcotest.(check bool)
        (Printf.sprintf "sample %d identical" i)
        true
        (Linalg.Vec.approx_equal ~eps:0.0 a.Highway.Recorder.features
           s2.(i).Highway.Recorder.features))
    s1

let test_closed_loop_evaluation () =
  let a = Lazy.force artifacts in
  let r =
    Evaluation.drive ~steps:150 ~components:Pipeline.components
      a.Pipeline.network ()
  in
  Alcotest.(check int) "steps recorded" 150 r.Evaluation.steps;
  Alcotest.(check bool) "speed sane" true
    (r.Evaluation.mean_speed > 0.0 && r.Evaluation.mean_speed < 50.0);
  Alcotest.(check bool) "risky count bounded" true
    (r.Evaluation.risky_suggestions <= r.Evaluation.steps);
  Alcotest.(check bool) "render nonempty" true
    (String.length (Evaluation.render r) > 20)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run "core"
    [
      ( "pillar",
        [
          quick "table contents" test_pillar_table_contents;
          quick "rows" test_pillar_rows;
        ] );
      ( "pipeline",
        [
          slow "artifacts shape" test_pipeline_artifacts_shape;
          slow "sanitizer caught contamination" test_pipeline_sanitizer_caught_contamination;
          slow "verification ran" test_pipeline_verification_ran;
          slow "certify consistent" test_pipeline_certify_consistent;
          slow "report renders" test_pipeline_report_renders;
          quick "deterministic data" test_pipeline_deterministic_data;
          slow "closed-loop evaluation" test_closed_loop_evaluation;
        ] );
    ]
