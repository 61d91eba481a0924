(* depnn: command-line front end.

   Subcommands mirror the methodology pipeline so each pillar can be run
   (and its artefact inspected) in isolation:

     depnn generate   --samples 2000 --risky 0.25 --out data.log
     depnn data-audit --samples 2000 --risky 0.25
     depnn train      --width 20 --epochs 20 --out predictor.net
     depnn verify     predictor.net --threshold 1.5 --time-limit 60
     depnn verify     predictor.net --certify certs/
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

(* A plain [Arg.int] would accept 0 or negative sizes and only blow up
   deep inside the run (or silently run on one core); reject them at the
   usage level, as --bound-mode rejects an unknown mode. [what] names
   the count in the error message. *)
let int_conv ~accept ~expected what =
  let parse s =
    match int_of_string_opt (String.trim s) with
    | Some n when accept n -> Ok n
    | Some _ | None -> Error (`Msg (Printf.sprintf "expected %s (%s)" expected what))
  in
  Arg.conv (parse, Format.pp_print_int)

let positive_int_conv =
  int_conv ~accept:(fun n -> n >= 1) ~expected:"a positive integer"

(* For counts where 0 means "none". *)
let non_negative_int_conv =
  int_conv ~accept:(fun n -> n >= 0) ~expected:"a non-negative integer"

(* A float option that only [accept]ed values pass; [msg] says why the
   others are usage errors. *)
let checked_float_conv ~accept msg =
  let parse s =
    match float_of_string_opt (String.trim s) with
    | Some f when accept f -> Ok f
    | Some _ | None -> Error (`Msg msg)
  in
  Arg.conv (parse, Format.pp_print_float)

(* Shared by generate, data-audit, train, trace, fault campaign, guard
   and certify: no scenes, no epochs or no hidden neuron is a usage
   error, not an empty run or an uncaught exception. *)
let samples_arg =
  Arg.(
    value
    & opt (positive_int_conv "scenes to record") 1500
    & info [ "samples" ] ~docv:"N" ~doc:"Scenes to record.")

let risky_arg =
  Arg.(
    value
    & opt
        (checked_float_conv
           ~accept:(fun p -> Float.is_finite p && p >= 0.0 && p <= 1.0)
           "expected a probability in [0, 1]")
        0.25
    & info [ "risky" ] ~docv:"P"
        ~doc:"Blind-spot failure rate of the recording expert.")

let width_arg =
  Arg.(
    value
    & opt (positive_int_conv "hidden width") 10
    & info [ "width" ] ~docv:"N" ~doc:"Hidden width of the I4xN architecture.")

let epochs_arg =
  Arg.(
    value
    & opt (positive_int_conv "training epochs") 20
    & info [ "epochs" ] ~docv:"N" ~doc:"Training epochs.")

let cores_arg =
  Arg.(
    value
    & opt (positive_int_conv "worker domains") 1
    & info [ "cores" ] ~docv:"N"
        ~doc:
          "Worker domains for the MILP verifier (bound tightening and \
           branch & bound); 1 = sequential.")

(* A time budget the deadline arithmetic can use: a NaN makes every
   deadline comparison false, so the solve never stops. The rule is the
   serve protocol's: finite and >= 0. *)
let time_limit_conv =
  checked_float_conv
    ~accept:(fun t -> Float.is_finite t && t >= 0.0)
    "time limit must be finite and >= 0"

(* Shared by verify and client verify. A NaN threshold makes every
   bound comparison false, so the search would run out its budget and
   answer Unknown; a NaN or negative slack is not a box. *)
let threshold_arg =
  Arg.(
    value
    & opt
        (checked_float_conv ~accept:Float.is_finite
           "threshold must be finite")
        1.5
    & info [ "threshold" ] ~docv:"V" ~doc:"Lateral velocity limit (m/s).")

let slack_arg =
  Arg.(
    value
    & opt
        (checked_float_conv
           ~accept:(fun r -> Float.is_finite r && r >= 0.0)
           "slack must be finite and >= 0")
        0.03
    & info [ "slack" ] ~docv:"R" ~doc:"Scenario box slack (normalised).")

let components = 3

(* {1 network files} *)

(* Every subcommand reads its network through here, so a malformed or
   unreadable file ends the run with the loader's reason and exit 2, the
   error code of the scriptable contract, instead of an uncaught
   exception. *)
let load_net path =
  let fail reason =
    Printf.eprintf "depnn: %s: %s\n" path reason;
    exit 2
  in
  match Nn.Io.load path with
  | net -> net
  | exception Nn.Io.Invalid_network e -> fail (Nn.Io.error_message e)
  | exception Sys_error reason -> fail reason

(* {1 bound modes} *)

(* Modes go by the names certificates and the serve protocol carry. *)
let bound_mode_conv =
  let parse s =
    match
      Certify.Checker.mode_of_string (String.lowercase_ascii (String.trim s))
    with
    | Some m -> Ok m
    | None -> Error (`Msg "expected 'interval' or 'symbolic'")
  in
  let print ppf m =
    Format.pp_print_string ppf (Certify.Checker.mode_string m)
  in
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
           zero search nodes).")

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
  let net = Nn.Network.copy (load_net net_path) in
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
  (* Every loader rejects a non-finite weight, so such a file would be
     useless: write nothing. *)
  if not (Float.is_finite nudged) then begin
    Printf.eprintf
      "depnn: --scale %g makes layer %d weight (%d,%d) %.17g -> %g, not \
       finite; nothing written\n"
      scale li r c old nudged;
    exit 2
  end;
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
      value
      & opt
          (checked_float_conv ~accept:Float.is_finite "scale must be finite")
          1e-3
      & info [ "scale" ] ~docv:"R"
          ~doc:
            "Relative size of the nudge (absolute for a zero weight). A \
             nudge that leaves the weight non-finite writes nothing and \
             exits 2.")
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

let verify net_path threshold time_limit slack cores bound_mode certify_dir
    split =
  let net = load_net net_path in
  Printf.printf "verifying %s (%d core%s, %s bounds)\n"
    (Nn.Network.describe net) cores
    (if cores = 1 then "" else "s")
    (Certify.Checker.mode_string bound_mode);
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
         Verify.Driver.max_lateral_velocity ~time_limit ~cores ~components
           ~bound_mode net box
       in
       let reason =
         if r.Verify.Driver.timed_out then "time limit hit"
         else "search incomplete"
       in
       (match (r.Verify.Driver.value, r.Verify.Driver.optimal) with
        | Some v, true ->
            Printf.printf
              "max lateral velocity with a vehicle on the left: %.6f m/s \
               (exact)\n"
              v
        | Some v, false ->
            Printf.printf "best found %.6f m/s, proven bound %.6f (%s)\n" v
              r.Verify.Driver.upper_bound reason
        | None, _ ->
            Printf.printf "no point found; proven bound %.6f (%s)\n"
              r.Verify.Driver.upper_bound reason);
       let st = r.Verify.Driver.encoder_stats in
       Printf.printf
         "encoding (%s, post-obbt): %d stable active, %d stable inactive, %d \
          unstable; %d nodes, %.1fs\n"
         (Certify.Checker.mode_string bound_mode)
         st.Encoding.Encoder.stable_active st.Encoding.Encoder.stable_inactive
         st.Encoding.Encoder.unstable
         r.Verify.Driver.nodes r.Verify.Driver.elapsed;
       Printf.printf "lp: %d rows x %d cols, %d nnz (density %.4f)\n"
         st.Encoding.Encoder.rows st.Encoding.Encoder.cols
         st.Encoding.Encoder.nnz st.Encoding.Encoder.density;
       let fb = Lp.Simplex.sparse_fallbacks () in
       if fb > 0 then
         Printf.printf "lp: %d sparse solve%s left unconcluded\n" fb
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
    Verify.Driver.prove_lateral_velocity_le ~time_limit ~cores ~components
      ~bound_mode ~threshold ?certify_dir ?split net box
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
  let degraded = proof.Verify.Driver.degraded in
  let searches = if degraded = 1 then "search" else "searches" in
  if degraded > 0 then
    Printf.printf
      "degraded: %d %s settled nothing (an LP left unconcluded, a numerical \
       failure or refused evidence), left unknown\n"
      degraded searches;
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
      (* Without a degraded search, time is what left the query open. *)
      if degraded = 0 then
        Printf.printf "UNKNOWN: bound %.3f after the time limit\n" best_bound
      else
        Printf.printf "UNKNOWN: bound %.3f, %d degraded %s\n" best_bound
          degraded searches;
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
           no analysis node bounds); $(b,--cores) still applies. \
           Components the directory's journal already settled for the \
           same network and property are not re-proved (this survives \
           kills: a torn journal line is ignored and the component \
           re-proved); use a fresh directory for fresh evidence.")

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
  let time_limit =
    Arg.(value & opt time_limit_conv 60.0
         & info [ "time-limit" ] ~docv:"S" ~doc:"Wall-clock budget in seconds.")
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Formally verify the vehicle-on-left safety property (pillar B).")
    Term.(const verify $ net_arg $ threshold_arg $ time_limit $ slack_arg
          $ cores_arg $ bound_mode_arg $ certify_dir_arg $ split_arg)

(* {1 audit} *)

let exit_with = function `Proved -> () | `Disproved -> exit 1 | `Unknown -> exit 2

let audit_plain ~net ~dir =
  let report = Certify.Audit.run ~net ~dir in
  print_string (Certify.Audit.render report);
  exit_with report.Certify.Audit.verdict

(* Audit one shard manifest under [dir] and print its report. [None] when
   the manifest speaks about another network; a rejected manifest is
   [`Unknown], a confirmed disproof [`Disproved]. *)
let audit_manifest ~net ~dir name =
  match Certify.Audit.run_shard ~net ~dir ~name with
  | Error "manifest is for a different network" ->
      Printf.printf "skipped %s (different network)\n" name;
      None
  | Error reason ->
      Printf.printf "rejected %s: %s\n" name reason;
      Some `Unknown
  | Ok r ->
      print_string (Certify.Audit.render_shard r);
      Some
        (match r.Certify.Audit.shard_verdict with
         | `Disproved -> `Disproved
         | `Proved when r.Certify.Audit.shard_ok -> `Proved
         | `Proved | `Unknown -> `Unknown)

let audit net_path path =
  let net = load_net net_path in
  Printf.printf "auditing %s against %s\n" (Nn.Network.describe net) path;
  if not (Sys.is_directory path) then (
    (* One question of a store root: its manifest alone. *)
    match
      audit_manifest ~net ~dir:(Filename.dirname path) (Filename.basename path)
    with
    | Some verdict -> exit_with verdict
    | None -> exit 2)
  else
    match Certify.Audit.shard_manifests ~dir:path with
    | [] -> audit_plain ~net ~dir:path
    | shards -> (
        (* A partitioned campaign: audit every shard manifest that speaks
           about this network (a store root may also hold shards for
           other networks — those are skipped, not failed). Exit code
           contract as for plain audits, any confirmed disproof
           dominating. *)
        match List.filter_map (audit_manifest ~net ~dir:path) shards with
        | [] ->
            Printf.printf
              "no shard manifest for this network (%d skipped); auditing as \
               a plain campaign\n"
              (List.length shards);
            audit_plain ~net ~dir:path
        | verdicts ->
            exit_with
              (if List.mem `Disproved verdicts then `Disproved
               else if List.for_all (( = ) `Proved) verdicts then `Proved
               else `Unknown))

let audit_cmd =
  let path =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"DIR"
          ~doc:
            "Certification directory written by verify --certify, or one \
             shard manifest $(i,ROOT)/$(i,PROP).shard in a store root \
             (audits that question alone).")
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
          directory is replayed. Naming one manifest audits only its \
          question. Exit 0 = Proved, 1 = Disproved, 2 = Unknown or any \
          rejected certificate.")
    Term.(const audit $ net_arg $ path)

(* {1 trace} *)

let trace net_path seed samples =
  let net = load_net net_path in
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
  let net = load_net net_path in
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
    Arg.(
      value
      & opt (non_negative_int_conv "simulation steps") 150
      & info [ "steps" ] ~docv:"N" ~doc:"Simulation steps.")
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
  | Some path -> load_net path
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
let derive_envelope ~lat_limit ~time_limit ~cores net =
  match lat_limit with
  | Some l -> Guard.envelope ~components ~lat_limit:l ()
  | None ->
      Printf.printf "verifying envelope (%.0fs budget)...\n%!" time_limit;
      let box = Verify.Scenario.vehicle_on_left () in
      let r =
        Verify.Driver.max_lateral_velocity ~time_limit ~cores ~components net
          box
      in
      let e = Guard.envelope_of_verification ~components r in
      Printf.printf "proven lat limit: %.3f m/s\n%!" e.Guard.lat_limit;
      e

let fault_campaign net_path seed width trials scenes lat_limit time_limit
    cores reverify smoke =
  let net = load_or_synthesize net_path ~seed ~width in
  let envelope = derive_envelope ~lat_limit ~time_limit ~cores net in
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
    Fault.Campaign.run ~rng ~envelope ~reverify ~cores ~faults ~scenes ~trials
      net
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
      && List.for_all
           (fun rv -> rv.Fault.Campaign.rv_sound)
           report.Fault.Campaign.reverified
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
  Arg.(value & opt (positive_int_conv "faults to inject") 50
       & info [ "trials" ] ~docv:"N" ~doc:"Faults to inject.")

let scenes_arg =
  Arg.(value & opt (positive_int_conv "scenes to replay") 100
       & info [ "scenes" ] ~docv:"N" ~doc:"Scenes replayed per fault.")

(* The envelope must be a number the guard can compare against: NaN or
   an infinity is a usage error, not an uncaught exception. *)
let finite_float_conv =
  checked_float_conv ~accept:Float.is_finite "expected a finite number"

let lat_limit_arg =
  Arg.(
    value
    & opt (some finite_float_conv) None
    & info [ "lat-limit" ] ~docv:"V"
        ~doc:
          "Envelope limit on the lateral velocity (m/s). When omitted the \
           limit is proven by MILP over the vehicle-on-left scenario \
           (slower).")

let time_limit_arg =
  Arg.(value & opt time_limit_conv 30.0
       & info [ "time-limit" ] ~docv:"S"
           ~doc:"Verification budget when proving the envelope (seconds).")

let fault_campaign_cmd =
  let reverify =
    Arg.(value & opt (non_negative_int_conv "faulted networks to re-verify") 0
         & info [ "reverify" ] ~docv:"N"
             ~doc:"Re-verify up to N faulted networks by MILP (0: none).")
  in
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:
            "CI mode: exit 1 unless every NaN/Inf fault was detected, no \
             exception escaped the guard and every re-verified bound held.")
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:"Inject seeded faults and measure how the runtime guard degrades.")
    Term.(const fault_campaign $ opt_net_arg $ seed_arg $ width_arg
          $ trials_arg $ scenes_arg $ lat_limit_arg $ time_limit_arg
          $ cores_arg $ reverify $ smoke)

let fault_cmd =
  Cmd.group
    (Cmd.info "fault" ~doc:"Fault-injection experiments on the predictor.")
    [ fault_campaign_cmd ]

let guard_run net_path seed width scenes lat_limit time_limit cores
    demo_fault =
  let net = load_or_synthesize net_path ~seed ~width in
  let envelope = derive_envelope ~lat_limit ~time_limit ~cores net in
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
  ignore (Guard.predict_batch guard inputs);
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
          $ lat_limit_arg $ time_limit_arg $ cores_arg $ demo_fault)

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
    split =
  let net = load_net net_path in
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
    Arg.(value & opt (positive_int_conv "worker domains") 2
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
    Arg.(value & opt (positive_int_conv "queued cache misses") 64
         & info [ "queue" ] ~docv:"N"
             ~doc:"Queued cache misses before new ones are refused.")
  in
  let max_time =
    Arg.(value & opt time_limit_conv 60.0
         & info [ "max-time-limit" ] ~docv:"S"
             ~doc:"Cap on any client's requested solve budget (seconds).")
  in
  let stats_interval =
    Arg.(value
         & opt
             (checked_float_conv
                ~accept:(fun s -> Float.is_finite s && s >= 0.0)
                "stats interval must be finite and >= 0")
             30.0
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
          $ max_time $ stats_interval $ split_arg)

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
    Option.map (fun p -> Nn.Io.content_hash (load_net p)) net_path
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
          Printf.printf "UNKNOWN: bound %.3f\n" best_bound;
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
  let time_limit =
    Arg.(
      value
      & opt (some time_limit_conv) None
      & info [ "time-limit" ] ~docv:"S"
          ~doc:"Requested solve budget; the server clamps it to its cap.")
  in
  (* A NaN makes the socket option fail with EDOM, and 0 turns the
     timeout off. *)
  let timeout =
    Arg.(value
         & opt
             (checked_float_conv
                ~accept:(fun t -> Float.is_finite t && t > 0.0)
                "timeout must be finite and > 0")
             120.0
         & info [ "timeout" ] ~docv:"S" ~doc:"Client-side socket timeout.")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Query a running $(b,depnn serve) daemon (one request per call).")
    Term.(const client $ op $ socket_arg $ net $ threshold_arg $ slack_arg
          $ bound_mode_arg $ time_limit $ timeout)

(* {1 certify} *)

let certify seed width samples epochs cores =
  let config =
    {
      (Pipeline.default_config ~width ~seed ()) with
      Pipeline.n_samples = samples;
      epochs;
      verify_cores = cores;
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
          $ cores_arg)

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
