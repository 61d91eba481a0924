(* The paper's case study end to end, at laptop scale: record highway
   driving with a (partly risky) expert, sanitize the log, train an
   I4x10 motion predictor with a Gaussian-mixture head, and formally
   verify the safety property "if there is a vehicle on the left, never
   suggest a large left lateral velocity".

   Run with: dune exec examples/motion_predictor.exe *)

let () =
  let config =
    {
      (Pipeline.default_config ~width:10 ())
      with
      Pipeline.n_samples = 1000;
      epochs = 20;
      verify_time_limit = 60.0;
    }
  in
  let artifacts = Pipeline.run ~progress:print_endline config in
  print_newline ();
  print_endline (Pipeline.render_report artifacts);

  let v = artifacts.Pipeline.verification in
  Printf.printf
    "verification detail: %d unstable neurons (binaries), %d nodes, %d simplex pivots, %.1fs\n"
    v.Verify.Driver.encoder_stats.Encoding.Encoder.unstable v.Verify.Driver.nodes
    v.Verify.Driver.lp_iterations v.Verify.Driver.elapsed;

  (* Replay the worst-case input through the network and show it. *)
  match v.Verify.Driver.witness with
  | Some w ->
      Printf.printf
        "\nworst case: GMM component %d suggests %.3f m/s lateral velocity\n"
        w.Verify.Driver.component w.Verify.Driver.achieved;
      let pinned = Verify.Scenario.concretize artifacts.Pipeline.scenario w.Verify.Driver.input in
      print_endline "scenario features at the worst case:";
      List.iter
        (fun (name, value) ->
          if String.length name >= 4 && String.sub name 0 4 = "left" then
            Printf.printf "  %-22s %.3f\n" name value)
        pinned
  | None -> ()
