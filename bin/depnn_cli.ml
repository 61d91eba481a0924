(* depnn: command-line front end.

   Subcommands mirror the methodology pipeline so each pillar can be run
   (and its artefact inspected) in isolation:

     depnn generate   --samples 2000 --risky 0.25 --out data.log
     depnn data-audit --samples 2000 --risky 0.25
     depnn train      --width 20 --epochs 20 --out predictor.net
     depnn verify     predictor.net --threshold 1.5 --time-limit 60
     depnn verify     predictor.net --certify certs/ --watchdog
     depnn verify     predictor.net --split auto --certify certs/
     depnn audit      predictor.net certs/
     depnn perturb    predictor.net --out perturbed.net
     depnn trace      predictor.net
     depnn simulate predictor.net
     depnn certify  --width 10
     depnn fault campaign --trials 50 --lat-limit 1.5 --smoke
     depnn guard    predictor.net --demo-fault
     depnn serve    predictor.net --socket depnn.sock --cache-dir cache/
     depnn client   verify --socket depnn.sock --threshold 1.5 *)

open Cmdliner

let seed_arg =
  Arg.(value & opt int 7 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let samples_arg =
  Arg.(value & opt int 1500 & info [ "samples" ] ~docv:"N" ~doc:"Scenes to record.")

let risky_arg =
  Arg.(
    value
    & opt float 0.25
    & info [ "risky" ] ~docv:"P"
        ~doc:"Blind-spot failure rate of the recording expert.")

let width_arg =
  Arg.(
    value & opt int 10
    & info [ "width" ] ~docv:"N" ~doc:"Hidden width of the I4xN architecture.")

let epochs_arg =
  Arg.(value & opt int 20 & info [ "epochs" ] ~docv:"N" ~doc:"Training epochs.")

let cores_arg =
  Arg.(
    value & opt int 1
    & info [ "cores" ] ~docv:"N"
        ~doc:
          "Worker domains for the MILP verifier (bound tightening and \
           branch & bound); 1 = sequential.")

let portfolio_conv =
  let parse s =
    match Milp.Parallel.portfolio_of_string s with
    | Some split -> Ok split
    | None ->
        Error
          (`Msg
             "expected D:P (divers:provers), two non-negative integers \
              with at least one worker in total")
  in
  let print ppf (d, p) = Format.fprintf ppf "%d:%d" d p in
  Arg.conv (parse, print)

let portfolio_arg =
  Arg.(
    value
    & opt (some portfolio_conv) None
    & info [ "portfolio" ] ~docv:"D:P"
        ~env:(Cmd.Env.info "DEPNN_PORTFOLIO")
        ~doc:
          "Diver:prover split for the branch & bound portfolio inside \
           each MILP query ($(b,D) depth-first diving domains hunting \
           incumbents, $(b,P) best-first proving domains driving the \
           bound). Overrides the split derived from $(b,--cores) and \
           disables the per-component query fan-out.")

(* A plain [Arg.int] would accept 0 or negative sizes and only blow up
   deep inside the replay; reject them at the usage level like the other
   suffixed options ($(b,--portfolio), $(b,--bound-mode)). *)
let batch_conv =
  let parse s =
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> Ok n
    | Some _ | None ->
        Error (`Msg "expected a positive integer (columns per batched forward)")
  in
  Arg.conv (parse, Format.pp_print_int)

let batch_arg =
  Arg.(
    value
    & opt batch_conv Guard.default_batch
    & info [ "batch" ] ~docv:"N"
        ~env:(Cmd.Env.info "DEPNN_BATCH")
        ~doc:
          "Scenes per cache-blocked batched forward pass in replay loops \
           (guard sanity check, fault campaign). Results are identical \
           for every batch size; only throughput changes.")

let components = 3

(* {1 LP core} *)

let lp_core_conv =
  let parse s =
    match Lp.Simplex.core_of_string s with
    | Some c -> Ok c
    | None -> Error (`Msg "expected 'sparse' or 'dense'")
  in
  let print ppf c = Format.pp_print_string ppf (Lp.Simplex.core_to_string c) in
  Arg.conv (parse, print)

let lp_core_arg =
  Arg.(
    value
    & opt (some lp_core_conv) None
    & info [ "lp-core" ] ~docv:"CORE"
        ~env:(Cmd.Env.info "DEPNN_LP_CORE")
        ~doc:
          "LP engine behind every relaxation solve: $(b,sparse) (revised \
           simplex on a factored basis — the default) or $(b,dense) \
           (Gauss-Jordan tableau, the reference oracle). The sparse core \
           falls back to dense on any numerical doubt, so results are \
           identical; only wall-clock differs.")

(* Make the choice global before any solve runs, so OBBT probes, node
   re-solves and envelope proofs all use the same engine. *)
let apply_lp_core = Option.iter Lp.Simplex.set_default_core

(* {1 bound modes} *)

let bound_mode_name = function
  | Encoding.Encoder.Interval_bounds -> "interval"
  | Encoding.Encoder.Symbolic_bounds -> "symbolic"
  | Encoding.Encoder.Coarse r -> Printf.sprintf "coarse:%g" r

let bound_mode_conv =
  let parse s =
    let s = String.lowercase_ascii (String.trim s) in
    match s with
    | "interval" -> Ok Encoding.Encoder.Interval_bounds
    | "symbolic" -> Ok Encoding.Encoder.Symbolic_bounds
    | _ when String.length s > 7 && String.sub s 0 7 = "coarse:" -> (
        let radius = String.sub s 7 (String.length s - 7) in
        match float_of_string_opt radius with
        | Some r when r > 0.0 && Float.is_finite r ->
            Ok (Encoding.Encoder.Coarse r)
        | Some _ | None ->
            Error (`Msg "coarse radius must be a positive finite number"))
    | _ -> Error (`Msg "expected 'interval', 'symbolic' or 'coarse:R'")
  in
  let print ppf m = Format.pp_print_string ppf (bound_mode_name m) in
  Arg.conv (parse, print)

let bound_mode_arg =
  Arg.(
    value
    & opt bound_mode_conv Encoding.Encoder.Interval_bounds
    & info [ "bound-mode" ] ~docv:"MODE"
        ~doc:
          "Bound analysis behind the MILP encoding: $(b,interval) (box \
           propagation), $(b,symbolic) (DeepPoly-style symbolic \
           propagation — tighter big-M constants, fewer binaries, and an \
           incomplete pre-verifier that can discharge the property with \
           zero search nodes), or $(b,coarse:R) (single global radius R, \
           the loose-big-M ablation).")

let record ~seed ~samples ~risky =
  let rng = Linalg.Rng.create seed in
  Highway.Recorder.record ~rng ~style:(Highway.Policy.Risky risky)
    ~n_samples:samples ()

let clean_data ~seed ~samples ~risky =
  let dataset = Dataset.of_samples (record ~seed ~samples ~risky) in
  Sanitizer.sanitize dataset

(* {1 generate} *)

let generate seed samples risky out =
  let recorded = record ~seed ~samples ~risky in
  let oc = open_out out in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Array.iter
        (fun s ->
          Array.iter (Printf.fprintf oc "%.17g ") s.Highway.Recorder.features;
          Printf.fprintf oc "| %.17g %.17g\n" s.Highway.Recorder.lat_velocity
            s.Highway.Recorder.lon_accel)
        recorded);
  Printf.printf "wrote %d samples to %s\n" (Array.length recorded) out

let generate_cmd =
  let out =
    Arg.(value & opt string "driving.log"
         & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Output file.")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Record driving scenes with the expert policy.")
    Term.(const generate $ seed_arg $ samples_arg $ risky_arg $ out)

(* {1 data-audit} *)

let data_audit seed samples risky =
  let _, report = clean_data ~seed ~samples ~risky in
  print_string (Sanitizer.render_report report)

let data_audit_cmd =
  Cmd.v
    (Cmd.info "data-audit"
       ~doc:"Run the pillar-C data sanitizer and print the audit.")
    Term.(const data_audit $ seed_arg $ samples_arg $ risky_arg)

(* {1 train} *)

let train seed samples risky width epochs out =
  let clean, report = clean_data ~seed ~samples ~risky in
  Printf.printf "training on %d sanitized samples (%d rejected)\n"
    report.Sanitizer.accepted
    (report.Sanitizer.total - report.Sanitizer.accepted);
  let rng = Linalg.Rng.create (seed + 1) in
  let net =
    Nn.Network.i4xn ~rng ~output_dim:(Nn.Gmm.output_dim ~components) width
  in
  let config =
    {
      (Train.Trainer.default ~loss:(Train.Loss.Mdn { components }) ()) with
      Train.Trainer.epochs;
      seed;
    }
  in
  let history = Train.Trainer.fit config net (Dataset.pairs clean) () in
  let losses = history.Train.Trainer.train_loss in
  Printf.printf "final NLL: %.4f\n" losses.(Array.length losses - 1);
  Nn.Io.save out net;
  Printf.printf "saved %s to %s\n" (Nn.Network.describe net) out

let train_cmd =
  let out =
    Arg.(value & opt string "predictor.net"
         & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Where to save the network.")
  in
  Cmd.v
    (Cmd.info "train" ~doc:"Train an I4xN motion predictor on sanitized data.")
    Term.(const train $ seed_arg $ samples_arg $ risky_arg $ width_arg
          $ epochs_arg $ out)

(* {1 perturb} *)

(* One seeded relative nudge to one hidden weight: the minimal model
   update. CI uses it to demonstrate that re-verifying a partitioned
   question against the perturbed network answers most leaves from the
   proof cache — disproving witnesses replay through the new weights
   with one forward pass each, and only the leaves the evidence no
   longer settles are re-solved. *)
let perturb net_path seed scale out =
  let net = Nn.Network.copy (Nn.Io.load net_path) in
  let rng = Linalg.Rng.create seed in
  let li = Linalg.Rng.int rng (Nn.Network.num_layers net) in
  let w = (Nn.Network.layer net li).Nn.Layer.weights in
  let r = Linalg.Rng.int rng (Linalg.Mat.rows w) in
  let c = Linalg.Rng.int rng (Linalg.Mat.cols w) in
  let old = Linalg.Mat.get w r c in
  (* Relative when the weight is non-zero, absolute otherwise — a dead
     weight must still move for the perturbation to mean anything. *)
  let nudged =
    if old = 0.0 then scale else old *. (1.0 +. scale)
  in
  Linalg.Mat.set w r c nudged;
  Printf.printf "perturbed layer %d weight (%d,%d): %.17g -> %.17g\n" li r c
    old nudged;
  Nn.Io.save out net;
  Printf.printf "saved %s to %s (hash %s)\n"
    (Nn.Network.describe net) out (Nn.Io.content_hash net)

let perturb_cmd =
  let net =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"NETWORK" ~doc:"Trained network file to perturb.")
  in
  let scale =
    Arg.(
      value & opt float 1e-3
      & info [ "scale" ] ~docv:"R"
          ~doc:"Relative size of the nudge (absolute for a zero weight).")
  in
  let out =
    Arg.(
      value & opt string "perturbed.net"
      & info [ "out"; "o" ] ~docv:"FILE"
          ~doc:"Where to save the perturbed network.")
  in
  Cmd.v
    (Cmd.info "perturb"
       ~doc:
         "Apply one seeded relative nudge to one weight and save the \
          result under a new content hash — the smallest possible model \
          update, for exercising cached re-verification.")
    Term.(const perturb $ net $ seed_arg $ scale $ out)

(* {1 verify} *)

let net_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"NETWORK" ~doc:"Trained network file (depnn-network v1).")

let verify net_path threshold time_limit slack cores portfolio bound_mode
    lp_core certify_dir resume watchdog split =
  apply_lp_core lp_core;
  let net = Nn.Io.load net_path in
  Printf.printf "verifying %s (%s, %s bounds, %s lp core)\n"
    (Nn.Network.describe net)
    (match portfolio with
     | Some (d, p) -> Printf.sprintf "portfolio %d diver:%d prover" d p
     | None -> Printf.sprintf "%d core%s" cores (if cores = 1 then "" else "s"))
    (bound_mode_name bound_mode)
    (Lp.Simplex.core_to_string (Lp.Simplex.default_core ()));
  let box = Verify.Scenario.vehicle_on_left ~slack () in
  (* Pre-OBBT stability under both analyses, so the binary-count
     reduction bought by the symbolic mode is visible at a glance. *)
  let ia, ii, iu =
    Encoding.Bounds.stability_counts net (Encoding.Bounds.propagate net box)
  in
  let sa, si, su =
    let s = Absint.Symbolic.propagate net box in
    Encoding.Bounds.stability_counts net
      { Encoding.Bounds.pre = s.Absint.Symbolic.pre;
        post = s.Absint.Symbolic.post }
  in
  Printf.printf
    "bounds (active/inactive/unstable): interval %d/%d/%d, symbolic \
     %d/%d/%d\n"
    ia ii iu sa si su;
  (* A partitioned run is a decision query: the whole budget goes to
     settling leaves against the threshold, not to the exact maximum. *)
  (match split with
   | Some _ ->
       print_endline
         "partitioned decision query: skipping the exact maximisation"
   | None ->
       let r =
         Verify.Driver.max_lateral_velocity ~time_limit ~cores ?portfolio
           ~components ~bound_mode net box
       in
       (match (r.Verify.Driver.value, r.Verify.Driver.optimal) with
        | Some v, true ->
            Printf.printf
              "max lateral velocity with a vehicle on the left: %.6f m/s \
               (exact)\n"
              v
        | Some v, false ->
            Printf.printf
              "best found %.6f m/s, proven bound %.6f (time limit hit)\n" v
              r.Verify.Driver.upper_bound
        | None, _ -> print_endline "n.a. (unable to find maximum)");
       let st = r.Verify.Driver.encoder_stats in
       Printf.printf
         "encoding (%s, post-obbt): %d stable active, %d stable inactive, %d \
          unstable; %d nodes, %.1fs\n"
         (bound_mode_name bound_mode) st.Encoding.Encoder.stable_active
         st.Encoding.Encoder.stable_inactive st.Encoding.Encoder.unstable
         r.Verify.Driver.nodes r.Verify.Driver.elapsed;
       Printf.printf "lp: %d rows x %d cols, %d nnz (density %.4f)\n"
         st.Encoding.Encoder.rows st.Encoding.Encoder.cols
         st.Encoding.Encoder.nnz st.Encoding.Encoder.density;
       let fb = Lp.Simplex.sparse_fallbacks () in
       if fb > 0 then
         Printf.printf "lp: %d sparse solve%s fell back to the dense oracle\n"
           fb
           (if fb = 1 then "" else "s");
       Printf.printf "per-component solve time:%s\n"
         (String.concat ""
            (Array.to_list
               (Array.map (Printf.sprintf " %.2fs")
                  r.Verify.Driver.component_elapsed)));
       let ob = r.Verify.Driver.obbt in
       if ob.Encoding.Encoder.probes > 0 then
         Printf.printf
           "obbt: %d probes (%d refined, %d failed, %d skipped by budget)\n"
           ob.Encoding.Encoder.probes ob.Encoding.Encoder.refined
           ob.Encoding.Encoder.failed ob.Encoding.Encoder.skipped_budget);
  let proof =
    Verify.Driver.prove_lateral_velocity_le ~time_limit ~cores ?portfolio
      ~components ~bound_mode ~threshold ?certify_dir ~resume ~watchdog ?split
      net box
  in
  (match proof.Verify.Driver.partition with
   | Some stats ->
       (* One parsable line: CI greps the leaf accounting. *)
       Printf.printf "partition: %s\n" (Verify.Partition.render_stats stats);
       (match certify_dir with
        | Some dir ->
            Printf.printf
              "certificates: %d across %d leaf directories in %s\n"
              proof.Verify.Driver.certified stats.Verify.Partition.leaves dir
        | None -> ())
   | None ->
       if proof.Verify.Driver.presolved > 0 then
         Printf.printf
           "pre-pass discharged %d/%d components without search (%d nodes \
            total)\n"
           proof.Verify.Driver.presolved components
           proof.Verify.Driver.proof_nodes;
       (match certify_dir with
        | Some dir ->
            Printf.printf
              "certificates: %d/%d components certified in %s (%d resumed)\n"
              proof.Verify.Driver.certified components dir
              proof.Verify.Driver.resumed
        | None -> ()));
  if proof.Verify.Driver.degraded > 0 then
    Printf.printf "watchdog: %d fallback transition%s taken\n"
      proof.Verify.Driver.degraded
      (if proof.Verify.Driver.degraded = 1 then "" else "s");
  (* Scriptable contract: 0 = Proved, 1 = Disproved, 2 = Unknown. *)
  match proof.Verify.Driver.proof with
  | Verify.Driver.Proved ->
      Printf.printf "PROVED: lateral velocity <= %.2f m/s on the scenario\n"
        threshold
  | Verify.Driver.Disproved w ->
      Printf.printf "UNSAFE: counterexample reaches %.3f m/s\n"
        w.Verify.Driver.achieved;
      exit 1
  | Verify.Driver.Unknown { best_bound } ->
      Printf.printf "UNKNOWN: bound %.3f after the time limit\n" best_bound;
      exit 2

let certify_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "certify" ] ~docv:"DIR"
        ~doc:
          "Write an auditable proof certificate per component plus a \
           crash-safe journal into $(docv); replay them independently \
           with $(b,depnn audit). Forces re-encodable solves (no OBBT, \
           no analysis node bounds); $(b,--cores) and $(b,--portfolio) \
           still apply.")

let resume_arg =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "Skip components already settled in the $(b,--certify) \
           directory's journal for the same network and property \
           (survives kills: a torn journal line is ignored and the \
           component re-proved).")

let watchdog_arg =
  Arg.(
    value & flag
    & info [ "watchdog" ]
        ~doc:
          "Run each component under its share of the deadline and \
           degrade along a fallback ladder (symbolic-only, sparse \
           MILP, dense MILP, honest unknown) instead of aborting the \
           campaign on a timeout or numerical failure.")

let split_conv =
  let parse s =
    match Verify.Partition.policy_of_string s with
    | Some p -> Ok p
    | None -> Error (`Msg "expected 'auto' or a split depth in 0..16")
  in
  let print ppf = function
    | Verify.Partition.Auto -> Format.pp_print_string ppf "auto"
    | Verify.Partition.Depth d -> Format.pp_print_int ppf d
  in
  Arg.conv (parse, print)

let split_arg =
  Arg.(
    value
    & opt (some split_conv) None
    & info [ "split" ] ~docv:"POLICY"
        ~env:(Cmd.Env.info "DEPNN_SPLIT")
        ~doc:
          "Partition-and-conquer: bisect the scenario box along its most \
           influential inputs and settle each leaf independently — \
           proof-store lookup first, then the zero-node symbolic \
           pre-pass, then a MILP on the small box. $(b,auto) splits \
           adaptively while the symbolic bound improves; an integer \
           forces that uniform depth. With $(b,--certify) every leaf \
           gets its own certificate directory plus a shard manifest \
           that $(b,depnn audit) replays, and re-running (even after \
           retraining) answers unchanged leaves from the cache.")

let verify_cmd =
  let threshold =
    Arg.(value & opt float 1.5
         & info [ "threshold" ] ~docv:"V" ~doc:"Lateral velocity limit (m/s).")
  in
  let time_limit =
    Arg.(value & opt float 60.0
         & info [ "time-limit" ] ~docv:"S" ~doc:"Wall-clock budget in seconds.")
  in
  let slack =
    Arg.(value & opt float 0.03
         & info [ "slack" ] ~docv:"R" ~doc:"Scenario box slack (normalised).")
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Formally verify the vehicle-on-left safety property (pillar B).")
    Term.(const verify $ net_arg $ threshold $ time_limit $ slack $ cores_arg
          $ portfolio_arg $ bound_mode_arg $ lp_core_arg $ certify_dir_arg
          $ resume_arg $ watchdog_arg $ split_arg)

(* {1 audit} *)

let audit_plain ~net ~dir =
  let report = Certify.Audit.run ~net ~dir in
  print_string (Certify.Audit.render report);
  match report.Certify.Audit.verdict with
  | `Proved -> ()
  | `Disproved -> exit 1
  | `Unknown -> exit 2

let audit net_path dir =
  let net = Nn.Io.load net_path in
  Printf.printf "auditing %s against %s\n" (Nn.Network.describe net) dir;
  match Certify.Audit.shard_manifests ~dir with
  | [] -> audit_plain ~net ~dir
  | shards ->
      (* A partitioned campaign: audit every shard manifest that speaks
         about this network (a store root may also hold shards for other
         networks — those are skipped, not failed). Exit code contract
         as for plain audits, any confirmed disproof dominating. *)
      let audited = ref 0 and skipped = ref 0 in
      let disproved = ref false and all_proved = ref true in
      List.iter
        (fun name ->
          match Certify.Audit.run_shard ~net ~dir ~name with
          | Error "manifest is for a different network" ->
              incr skipped;
              Printf.printf "skipped %s (different network)\n" name
          | Error reason ->
              all_proved := false;
              incr audited;
              Printf.printf "rejected %s: %s\n" name reason
          | Ok r ->
              incr audited;
              print_string (Certify.Audit.render_shard r);
              if r.Certify.Audit.shard_verdict = `Disproved then
                disproved := true
              else if not (r.Certify.Audit.shard_ok && r.shard_verdict = `Proved)
              then all_proved := false)
        shards;
      if !audited = 0 then begin
        Printf.printf
          "no shard manifest for this network (%d skipped); auditing as a \
           plain campaign\n"
          !skipped;
        audit_plain ~net ~dir
      end
      else if !disproved then exit 1
      else if not !all_proved then exit 2

let audit_cmd =
  let dir =
    Arg.(
      required
      & pos 1 (some dir) None
      & info [] ~docv:"DIR"
          ~doc:"Certification directory written by verify --certify.")
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:
         "Independently re-verify a certification directory: replay every \
          certificate with outward-rounded arithmetic, trusting nothing \
          the solver concluded. A directory holding shard manifests \
          (written by $(b,verify --split --certify)) is audited as a \
          partitioned campaign: the tiling geometry is re-established \
          from each manifest's checksummed split tree, then every leaf \
          directory is replayed. Exit 0 = Proved, 1 = Disproved, 2 = \
          Unknown or any rejected certificate.")
    Term.(const audit $ net_arg $ dir)

(* {1 trace} *)

let trace net_path seed samples =
  let net = Nn.Io.load net_path in
  let recorded = record ~seed ~samples ~risky:0.0 in
  let probes = Array.map (fun s -> s.Highway.Recorder.features) recorded in
  let t =
    Traceability.Analysis.analyze ~feature_names:Highway.Features.names net
      probes
  in
  print_string (Traceability.Analysis.render ~max_neurons:40 t)

let trace_cmd =
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Neuron-to-feature traceability table (pillar A).")
    Term.(const trace $ net_arg $ seed_arg $ samples_arg)

(* {1 simulate} *)

let simulate net_path seed steps =
  let net = Nn.Io.load net_path in
  let rng = Linalg.Rng.create seed in
  let sim =
    Highway.Simulator.spawn ~rng ~road:Highway.Recorder.default_road
      ~vehicles_per_lane:14 ()
  in
  let idm = Highway.Idm.default and mobil = Highway.Mobil.default in
  let controller scene = Highway.Policy.act ~idm ~mobil ~rng scene in
  Highway.Simulator.run sim ~controller ~dt:0.2 ~steps ();
  let scene = Highway.Simulator.scene sim in
  let mixture =
    Nn.Gmm.decode ~components
      (Nn.Network.forward net (Highway.Features.encode scene))
  in
  print_endline
    (Highway.Render.side_by_side
       (Highway.Render.scene scene)
       (Highway.Render.action_distribution mixture))

let simulate_cmd =
  let steps =
    Arg.(value & opt int 150 & info [ "steps" ] ~docv:"N" ~doc:"Simulation steps.")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Render a simulation snapshot (Fig. 1 analogue).")
    Term.(const simulate $ net_arg $ seed_arg $ steps)

(* {1 fault campaign / guard} *)

(* Either load a trained network or synthesize a seeded random I4xN one
   (campaign statistics don't need a trained predictor, just a
   realistic architecture). *)
let load_or_synthesize net_path ~seed ~width =
  match net_path with
  | Some path -> Nn.Io.load path
  | None ->
      Nn.Network.i4xn
        ~rng:(Linalg.Rng.create (seed + 17))
        ~output_dim:(Nn.Gmm.output_dim ~components)
        width

(* Clean scenes from the nominal expert, as feature vectors. *)
let record_scenes ~seed ~n =
  let recorded = record ~seed ~samples:n ~risky:0.0 in
  Array.map (fun s -> s.Highway.Recorder.features) recorded

(* The runtime envelope: either the caller's explicit limit, or the
   MILP-proven bound over the vehicle-on-left scenario box. *)
let derive_envelope ~lat_limit ~time_limit ~cores ~portfolio net =
  match lat_limit with
  | Some l -> Guard.envelope ~components ~lat_limit:l ()
  | None ->
      Printf.printf "verifying envelope (%.0fs budget)...\n%!" time_limit;
      let box = Verify.Scenario.vehicle_on_left () in
      let r =
        Verify.Driver.max_lateral_velocity ~time_limit ~cores ?portfolio
          ~components net box
      in
      let e = Guard.envelope_of_verification ~components r in
      Printf.printf "proven lat limit: %.3f m/s\n%!" e.Guard.lat_limit;
      e

let fault_campaign net_path seed width trials scenes lat_limit time_limit
    cores portfolio batch reverify smoke =
  let net = load_or_synthesize net_path ~seed ~width in
  let envelope = derive_envelope ~lat_limit ~time_limit ~cores ~portfolio net in
  let scenes = record_scenes ~seed ~n:scenes in
  let rng = Linalg.Rng.create seed in
  (* In smoke mode, pin a known overflow-producing bit flip so the NaN
     detection assertion is exercised, not vacuously true. *)
  let faults =
    if not smoke then []
    else begin
      match Fault.Campaign.find_nan_fault ~components ~scenes net with
      | Some f ->
          Printf.printf "pinned NaN fault: %s\n" (Fault.Model.describe f);
          [ f ]
      | None ->
          print_endline "warning: no single-bit NaN fault found to pin";
          []
    end
  in
  let report =
    Fault.Campaign.run ~rng ~envelope ~reverify ~cores ~batch ~faults ~scenes
      ~trials net
  in
  print_string (Fault.Campaign.render report);
  if smoke then begin
    let nan_exercised =
      faults = [] || report.Fault.Campaign.nan_trials > 0
    in
    let ok =
      nan_exercised
      && report.Fault.Campaign.nan_detected = report.Fault.Campaign.nan_trials
      && report.Fault.Campaign.escaped_exceptions = 0
      && report.Fault.Campaign.violations_detected
         = report.Fault.Campaign.violation_trials
    in
    Printf.printf "smoke: %s\n" (if ok then "PASS" else "FAIL");
    if not ok then exit 1
  end

let opt_net_arg =
  Arg.(
    value
    & pos 0 (some file) None
    & info [] ~docv:"NETWORK"
        ~doc:
          "Trained network file; omitted, a seeded random I4xN predictor \
           is synthesized.")

let trials_arg =
  Arg.(value & opt int 50
       & info [ "trials" ] ~docv:"N" ~doc:"Faults to inject.")

let scenes_arg =
  Arg.(value & opt int 100
       & info [ "scenes" ] ~docv:"N" ~doc:"Scenes replayed per fault.")

let lat_limit_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "lat-limit" ] ~docv:"V"
        ~doc:
          "Envelope limit on the lateral velocity (m/s). When omitted the \
           limit is proven by MILP over the vehicle-on-left scenario \
           (slower).")

let time_limit_arg =
  Arg.(value & opt float 30.0
       & info [ "time-limit" ] ~docv:"S"
           ~doc:"Verification budget when proving the envelope (seconds).")

let fault_campaign_cmd =
  let reverify =
    Arg.(value & opt int 0
         & info [ "reverify" ] ~docv:"N"
             ~doc:"Re-verify up to N faulted networks by MILP.")
  in
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:
            "CI mode: exit 1 unless every NaN/Inf fault was detected and \
             no exception escaped the guard.")
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:"Inject seeded faults and measure how the runtime guard degrades.")
    Term.(const fault_campaign $ opt_net_arg $ seed_arg $ width_arg
          $ trials_arg $ scenes_arg $ lat_limit_arg $ time_limit_arg
          $ cores_arg $ portfolio_arg $ batch_arg $ reverify $ smoke)

let fault_cmd =
  Cmd.group
    (Cmd.info "fault" ~doc:"Fault-injection experiments on the predictor.")
    [ fault_campaign_cmd ]

let guard_run net_path seed width scenes lat_limit time_limit cores portfolio
    batch demo_fault =
  let net = load_or_synthesize net_path ~seed ~width in
  let envelope = derive_envelope ~lat_limit ~time_limit ~cores ~portfolio net in
  let scenes = record_scenes ~seed ~n:scenes in
  let subject, channel =
    if not demo_fault then (net, None)
    else begin
      let rng = Linalg.Rng.create (seed + 3) in
      match Fault.Model.sample ~rng net with
      | Fault.Model.Network_fault nf as f ->
          Printf.printf "injecting: %s\n" (Fault.Model.describe f);
          (Fault.Model.inject nf net, None)
      | Fault.Model.Input_fault inf as f ->
          Printf.printf "injecting: %s\n" (Fault.Model.describe f);
          (net, Some (Fault.Model.input_channel inf))
    end
  in
  let guard = Guard.make ~envelope subject in
  let inputs =
    match channel with
    | Some ch -> Array.map (Fault.Model.corrupt ch) scenes
    | None -> scenes
  in
  ignore (Guard.predict_batch ~batch guard inputs);
  print_string (Guard.render_diagnostics (Guard.diagnostics guard))

let guard_cmd =
  let demo_fault =
    Arg.(
      value & flag
      & info [ "demo-fault" ]
          ~doc:"Inject one seeded fault first, to demonstrate degradation.")
  in
  Cmd.v
    (Cmd.info "guard"
       ~doc:
         "Replay scenes through the runtime safety monitor and print its \
          diagnostics.")
    Term.(const guard_run $ opt_net_arg $ seed_arg $ width_arg $ scenes_arg
          $ lat_limit_arg $ time_limit_arg $ cores_arg $ portfolio_arg
          $ batch_arg $ demo_fault)

(* {1 serve / client} *)

let address_conv =
  let parse s =
    match Serve.Protocol.address_of_string s with
    | Ok a -> Ok a
    | Error e -> Error (`Msg e)
  in
  let print ppf a =
    Format.pp_print_string ppf (Serve.Protocol.address_to_string a)
  in
  Arg.conv (parse, print)

let socket_arg =
  Arg.(
    value
    & opt address_conv (Serve.Protocol.Unix_socket "depnn.sock")
    & info [ "socket" ] ~docv:"ADDR"
        ~env:(Cmd.Env.info "DEPNN_SOCKET")
        ~doc:
          "Server address: $(b,unix:)$(i,PATH), $(b,tcp:)$(i,HOST:PORT), \
           or a bare path (unix socket).")

let serve net_path socket workers cache_dir queue max_time stats_interval
    lp_core split =
  apply_lp_core lp_core;
  let net = Nn.Io.load net_path in
  Printf.printf "serving %s (hash %s) on %s\n%!"
    (Nn.Network.describe net) (Nn.Io.content_hash net)
    (Serve.Protocol.address_to_string socket);
  let config =
    {
      (Serve.Server.default_config ~address:socket ~cache_dir ()) with
      Serve.Server.workers;
      queue_capacity = queue;
      max_time_limit = max_time;
      stats_interval;
      handle_signals = true;
      split;
    }
  in
  Serve.Server.run config net

let serve_cmd =
  let workers =
    Arg.(value & opt int 2
         & info [ "workers" ] ~docv:"N"
             ~doc:"Worker domains solving cache misses.")
  in
  let cache_dir =
    Arg.(value & opt string "proof-cache"
         & info [ "cache-dir" ] ~docv:"DIR"
             ~doc:
               "Content-addressed proof store root (one auditable \
                certification directory per property hash); recovered on \
                restart.")
  in
  let queue =
    Arg.(value & opt int 64
         & info [ "queue" ] ~docv:"N"
             ~doc:"Queued cache misses before new ones are refused.")
  in
  let max_time =
    Arg.(value & opt float 60.0
         & info [ "max-time-limit" ] ~docv:"S"
             ~doc:"Cap on any client's requested solve budget (seconds).")
  in
  let stats_interval =
    Arg.(value & opt float 30.0
         & info [ "stats-interval" ] ~docv:"S"
             ~doc:"Seconds between stats log lines on stderr; 0 disables.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the persistent certification server: verdicts answered from \
          the content-addressed proof cache when possible (exact key or a \
          subsuming verified box), solved and certified otherwise. \
          SIGINT/SIGTERM drain the queue and shut down cleanly.")
    Term.(const serve $ net_arg $ socket_arg $ workers $ cache_dir $ queue
          $ max_time $ stats_interval $ lp_core_arg $ split_arg)

(* The client builds the same deterministic scenario box as [verify], so
   two processes asking the same question serialise bit-identical
   payloads — and therefore hit the same cache key on the server. *)
let scenario_property ~threshold ~slack ~bound_mode =
  let box = Verify.Scenario.vehicle_on_left ~slack () in
  {
    Certify.Certificate.threshold;
    components;
    bound_mode = Certify.Checker.mode_string bound_mode;
    box = Array.map (fun iv -> (iv.Interval.lo, iv.Interval.hi)) box;
  }

let client op socket net_path threshold slack bound_mode time_limit timeout =
  let net_hash =
    Option.map (fun p -> Nn.Io.content_hash (Nn.Io.load p)) net_path
  in
  let request =
    match op with
    | `Status -> Serve.Protocol.Status
    | `Shutdown -> Serve.Protocol.Shutdown
    | `Predict ->
        Serve.Protocol.Predict
          (Interval.Box.center (Verify.Scenario.vehicle_on_left ~slack ()))
    | (`Verify | `Certify) as op ->
        Serve.Protocol.Verify
          {
            Serve.Protocol.property =
              scenario_property ~threshold ~slack ~bound_mode;
            net_hash;
            time_limit;
            exact_only = op = `Certify;
          }
  in
  match Serve.Client.call ~timeout socket request with
  | Error e ->
      Printf.eprintf "error: %s\n" e;
      exit 3
  | Ok (Serve.Protocol.Refused reason) ->
      Printf.printf "error: %s\n" reason;
      exit 3
  | Ok Serve.Protocol.Shutting_down -> print_endline "server shutting down"
  | Ok (Serve.Protocol.Outputs out) ->
      Array.iter (Printf.printf "%.17g ") out;
      print_newline ()
  | Ok (Serve.Protocol.Stats s) ->
      Printf.printf
        "uptime: %.1fs\nworkers: %d (%d failed)\nqueue: %d/%d\nqueries: \
         %d\ncache: %d exact, %d subsumed\nsolved: %d\nrejected: \
         %d\nstore: %d entries\n"
        s.Serve.Protocol.uptime_s s.Serve.Protocol.workers
        s.Serve.Protocol.failed_workers s.Serve.Protocol.queue_depth
        s.Serve.Protocol.queue_capacity s.Serve.Protocol.queries
        s.Serve.Protocol.served_exact s.Serve.Protocol.served_subsumed
        s.Serve.Protocol.solved s.Serve.Protocol.rejected
        s.Serve.Protocol.store_entries
  | Ok (Serve.Protocol.Answer a) -> (
      (* Line-per-fact output: scripts grep [cache:] and [dir:]. *)
      Printf.printf "cache: %s\n"
        (Serve.Protocol.cache_string a.Serve.Protocol.cache);
      Printf.printf "prop: %s\n" a.Serve.Protocol.prop_hash;
      Printf.printf "certified: %d\n" a.Serve.Protocol.certified;
      Printf.printf "dir: %s\n" a.Serve.Protocol.cert_dir;
      Printf.printf "solve: %.3fs\n" a.Serve.Protocol.solve_s;
      match a.Serve.Protocol.verdict with
      | Serve.Protocol.V_proved ->
          Printf.printf "PROVED: lateral velocity <= %.2f m/s\n" threshold
      | Serve.Protocol.V_disproved { achieved; _ } ->
          Printf.printf "UNSAFE: counterexample reaches %.3f m/s\n" achieved;
          exit 1
      | Serve.Protocol.V_unknown { best_bound } ->
          Printf.printf "UNKNOWN: bound %.3f after the time limit\n"
            best_bound;
          exit 2)

let client_cmd =
  let op =
    Arg.(
      required
      & pos 0
          (some
             (enum
                [
                  ("verify", `Verify); ("certify", `Certify);
                  ("predict", `Predict); ("status", `Status);
                  ("shutdown", `Shutdown);
                ]))
          None
      & info [] ~docv:"OP"
          ~doc:
            "$(b,verify) (cache may answer by subsumption), $(b,certify) \
             (exact cache key only), $(b,predict), $(b,status), \
             $(b,shutdown).")
  in
  let net =
    Arg.(
      value
      & opt (some file) None
      & info [ "net" ] ~docv:"FILE"
          ~doc:
            "Pin the query to this network file's content hash; the \
             server refuses a mismatch.")
  in
  let threshold =
    Arg.(value & opt float 1.5
         & info [ "threshold" ] ~docv:"V" ~doc:"Lateral velocity limit (m/s).")
  in
  let slack =
    Arg.(value & opt float 0.03
         & info [ "slack" ] ~docv:"R" ~doc:"Scenario box slack (normalised).")
  in
  let time_limit =
    Arg.(
      value
      & opt (some float) None
      & info [ "time-limit" ] ~docv:"S"
          ~doc:"Requested solve budget; the server clamps it to its cap.")
  in
  let timeout =
    Arg.(value & opt float 120.0
         & info [ "timeout" ] ~docv:"S" ~doc:"Client-side socket timeout.")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Query a running $(b,depnn serve) daemon (one request per call).")
    Term.(const client $ op $ socket_arg $ net $ threshold $ slack
          $ bound_mode_arg $ time_limit $ timeout)

(* {1 certify} *)

let certify seed width samples epochs cores portfolio batch =
  let config =
    {
      (Pipeline.default_config ~width ~seed ()) with
      Pipeline.n_samples = samples;
      epochs;
      verify_cores = cores;
      verify_portfolio = portfolio;
      batch;
    }
  in
  let artifacts = Pipeline.run ~progress:print_endline config in
  print_newline ();
  print_endline (Pipeline.render_report artifacts);
  let verdict = Pipeline.certify artifacts in
  match verdict.Pipeline.property_holds with
  | Some true -> print_endline "certification: PASS"
  | Some false ->
      print_endline "certification: FAIL (safety property violated)";
      exit 1
  | None ->
      print_endline "certification: INCONCLUSIVE (verification timed out)";
      exit 2

let certify_cmd =
  Cmd.v
    (Cmd.info "certify" ~doc:"Run the full three-pillar certification pipeline.")
    Term.(const certify $ seed_arg $ width_arg $ samples_arg $ epochs_arg
          $ cores_arg $ portfolio_arg $ batch_arg)

let () =
  let doc = "dependable neural networks for safety-critical applications" in
  let info = Cmd.info "depnn" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            generate_cmd; data_audit_cmd; audit_cmd; train_cmd; perturb_cmd;
            verify_cmd; trace_cmd; simulate_cmd; certify_cmd; fault_cmd;
            guard_cmd; serve_cmd; client_cmd;
          ]))
