(* Benchmark harness: regenerates every table and figure of the paper.

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe table1     -- Table I (methodology matrix)
     dune exec bench/main.exe table2     -- Table II (verification times)
     dune exec bench/main.exe fig1       -- Fig. 1 (simulation snapshot)
     dune exec bench/main.exe mcdc       -- Sec. II MC/DC argument
     dune exec bench/main.exe ablation   -- encoder/solver ablations
     dune exec bench/main.exe micro      -- Bechamel microbenchmarks
     dune exec bench/main.exe absint     -- symbolic vs interval bound report
     dune exec bench/main.exe partition  -- partition-and-conquer report

   [micro --json] additionally measures batched inference, search order,
   the serve cache, partitioning and certificate sizes, writes all of it
   to BENCH_milp.json so successive commits can track the perf
   trajectory, and exits 1 when an exact serve-cache hit is under 100x
   the cold certified solve or the certificates behind it fail their
   audit.

   Environment knobs:
     DEPNN_TIME_LIMIT   per-verification wall-clock seconds (default 45)
     DEPNN_WIDTHS       comma-separated Table II widths (default
                        10,20,25,40,50,60)
     DEPNN_SAMPLES      training scenes (default 1500)
     DEPNN_EPOCHS       training epochs (default 15)
     DEPNN_CORES        worker domains for OBBT + branch & bound
                        (default 1; the paper used a 12-core VM) *)

(* A malformed knob warns and falls back to the default instead of
   aborting the whole suite with [Failure "int_of_string"], or, silently
   coerced, sending a mistyped [DEPNN_CORES=four] run onto one core with
   nobody the wiser. *)
let env_knob name ~describe ~parse ~default =
  match Sys.getenv_opt name with
  | None -> default
  | Some s -> (
      match parse (String.trim s) with
      | Some v -> v
      | None ->
          Printf.eprintf
            "depnn-bench: ignoring malformed %s=%S (want %s); using the \
             default\n%!"
            name s describe;
          default)

let positive_int s =
  match int_of_string_opt s with
  | Some n when n >= 1 -> Some n
  | Some _ | None -> None

let time_limit =
  env_knob "DEPNN_TIME_LIMIT" ~describe:"a positive number of seconds"
    ~default:45.0 ~parse:(fun s ->
      match float_of_string_opt s with
      | Some v when v > 0.0 && Float.is_finite v -> Some v
      | Some _ | None -> None)

let cores =
  env_knob "DEPNN_CORES" ~describe:"a positive integer" ~default:1
    ~parse:positive_int

let widths =
  env_knob "DEPNN_WIDTHS" ~describe:"comma-separated positive integers"
    ~default:[ 10; 20; 25; 40; 50; 60 ]
    ~parse:(fun s ->
      let parts = String.split_on_char ',' s in
      let parsed = List.filter_map (fun p -> positive_int (String.trim p)) parts in
      if parsed <> [] && List.length parsed = List.length parts then Some parsed
      else None)

let n_samples =
  env_knob "DEPNN_SAMPLES" ~describe:"a positive integer" ~default:1500
    ~parse:positive_int

let epochs =
  env_knob "DEPNN_EPOCHS" ~describe:"a positive integer" ~default:15
    ~parse:positive_int

let components = 3
let seed = 7
let scenario_slack = 0.03

let heading title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* A per-process scratch directory for the measurements that write
   certificates or open a socket, and its removal. *)
let temp_root name =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "depnn_bench_%s_%d" name (Unix.getpid ()))

let rec rm_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_tree (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

(* Shared across table2/ablation: one sanitized dataset, networks trained
   per width on the same data (the paper: "we have trained a couple of
   neural networks under the same data"). *)
let clean_dataset =
  lazy
    (let rng = Linalg.Rng.create seed in
     let samples =
       Highway.Recorder.record ~rng ~style:(Highway.Policy.Risky 0.25)
         ~n_samples ()
     in
     let clean, report = Sanitizer.sanitize (Dataset.of_samples samples) in
     Printf.printf "dataset: %d scenes recorded, %d accepted after audit\n"
       report.Sanitizer.total report.Sanitizer.accepted;
     clean)

let trained_cache : (int, Nn.Network.t) Hashtbl.t = Hashtbl.create 8

let train_width width =
  match Hashtbl.find_opt trained_cache width with
  | Some net -> net
  | None ->
      let clean = Lazy.force clean_dataset in
      let rng = Linalg.Rng.create (seed + 1000 + width) in
      let net =
        Nn.Network.i4xn ~rng
          ~output_dim:(Nn.Gmm.output_dim ~components)
          width
      in
      let t0 = Unix.gettimeofday () in
      let config =
        {
          (Train.Trainer.default ~loss:(Train.Loss.Mdn { components }) ()) with
          Train.Trainer.epochs;
          seed;
        }
      in
      let history = Train.Trainer.fit config net (Dataset.pairs clean) () in
      let final_loss =
        let losses = history.Train.Trainer.train_loss in
        losses.(Array.length losses - 1)
      in
      Printf.printf "trained %s: %d epochs, final NLL %.3f (%.1fs)\n%!"
        (Nn.Network.describe net) history.Train.Trainer.epochs_run final_loss
        (Unix.gettimeofday () -. t0);
      Hashtbl.replace trained_cache width net;
      net

let scenario = lazy (Verify.Scenario.vehicle_on_left ~slack:scenario_slack ())

(* {1 Table I} *)

let table1 () =
  heading "Table I: certification methodology with per-pillar evidence";
  let config =
    {
      (Pipeline.default_config ~width:10 ~seed ()) with
      Pipeline.n_samples = min n_samples 1200;
      epochs = min epochs 15;
      verify_time_limit = time_limit;
      verify_cores = cores;
      scenario_slack;
    }
  in
  let artifacts = Pipeline.run ~progress:(Printf.printf "  %s\n%!") config in
  print_newline ();
  print_endline (Pipeline.render_report artifacts)

(* {1 Table II} *)

let table2 () =
  heading "Table II: verifying ANN-based motion predictors";
  Printf.printf
    "property: maximum lateral velocity when a vehicle is on the left\n";
  Printf.printf "per-network time limit: %.0fs (paper ran unbounded on a 12-core VM)\n"
    time_limit;
  Printf.printf "solver cores: %d (DEPNN_CORES; %d recommended on this host)\n\n"
    cores
    (Domain.recommended_domain_count ());
  Printf.printf "%-8s %-10s %-22s %-12s %-8s %s\n" "ANN" "binaries"
    "max lateral velocity" "time" "nodes" "status";
  let rows =
    List.map
      (fun width ->
        let net = train_width width in
        let r =
          Verify.Driver.max_lateral_velocity ~time_limit ~cores ~components net
            (Lazy.force scenario)
        in
        let value_text =
          match (r.Verify.Driver.value, r.Verify.Driver.optimal) with
          | Some v, true -> Printf.sprintf "%.6f" v
          | Some v, false ->
              Printf.sprintf "%.4f (<=%.4f)" v r.Verify.Driver.upper_bound
          | None, _ -> "n.a. (unable to find maximum)"
        in
        let status =
          if r.Verify.Driver.optimal then "exact"
          else if r.Verify.Driver.timed_out then "time-out"
          else "incomplete"
        in
        Printf.printf "I4x%-5d %-10d %-22s %8.1fs %-8d %s\n%!" width
          r.Verify.Driver.encoder_stats.Encoding.Encoder.unstable value_text
          r.Verify.Driver.elapsed
          r.Verify.Driver.nodes status;
        (width, r))
      widths
  in
  (* The paper's final row: prove a loose bound on the widest net even
     though its exact maximum timed out. *)
  let widest = List.fold_left max 0 widths in
  let net = train_width widest in
  let proof =
    Verify.Driver.prove_lateral_velocity_le ~time_limit ~cores ~components
      ~threshold:3.0 net (Lazy.force scenario)
  in
  let text =
    match proof.Verify.Driver.proof with
    | Verify.Driver.Proved ->
        "PROVED: lateral velocity can never be larger than 3 m/s"
    | Verify.Driver.Disproved w ->
        Printf.sprintf "DISPROVED: witness reaches %.3f m/s" w.Verify.Driver.achieved
    | Verify.Driver.Unknown { best_bound } ->
        Printf.sprintf "UNKNOWN (bound %.3f)" best_bound
  in
  Printf.printf "I4x%-5d %-10s %-22s %8.1fs %-8d decision query (<= 3 m/s)\n"
    widest "-" text proof.Verify.Driver.proof_elapsed
    proof.Verify.Driver.proof_nodes;
  (* Shape checks against the paper. *)
  print_newline ();
  let finished = List.filter (fun (_, r) -> r.Verify.Driver.optimal) rows in
  let timed_out = List.filter (fun (_, r) -> r.Verify.Driver.timed_out) rows in
  Printf.printf
    "shape: %d/%d architectures verified exactly, %d hit the time limit\n"
    (List.length finished) (List.length rows) (List.length timed_out);
  match finished with
  | (_, first) :: _ when List.length finished >= 2 ->
      let last = snd (List.nth finished (List.length finished - 1)) in
      Printf.printf
        "shape: verification time grows with width (%.1fs -> %.1fs across solved widths)\n"
        first.Verify.Driver.elapsed last.Verify.Driver.elapsed
  | _ -> ()

(* {1 Fig. 1} *)

let fig1 () =
  heading "Fig. 1: simulation snapshot and suggested motion";
  let net = train_width (List.hd widths) in
  let rng = Linalg.Rng.create 77 in
  let sim =
    Highway.Simulator.spawn ~rng ~road:Highway.Recorder.default_road
      ~vehicles_per_lane:14 ()
  in
  let idm = Highway.Idm.default and mobil = Highway.Mobil.default in
  let controller scene = Highway.Policy.act ~idm ~mobil ~rng scene in
  Highway.Simulator.run sim ~controller ~dt:0.2 ~steps:150 ();
  let scene = Highway.Simulator.scene sim in
  let features = Highway.Features.encode scene in
  let mixture = Nn.Gmm.decode ~components (Nn.Network.forward net features) in
  print_endline
    (Highway.Render.side_by_side
       (Highway.Render.scene scene)
       (Highway.Render.action_distribution mixture));
  let lat, lon = Nn.Gmm.mean mixture in
  Printf.printf "suggested action: lateral %+.2f m/s, longitudinal %+.2f m/s2\n"
    lat lon;
  Printf.printf "vehicle on the left: %b\n" (Highway.Scene.has_vehicle_on_left scene)

(* {1 Sec. II: the MC/DC argument} *)

let mcdc () =
  heading "Sec. II: MC/DC is trivial for tanh, intractable for ReLU";
  let rng = Linalg.Rng.create 5 in
  let probe_inputs =
    Array.init 1000 (fun _ ->
        Array.init 84 (fun _ -> Linalg.Rng.uniform rng (-1.0) 1.0))
  in
  Printf.printf "%-8s %-12s %-12s %-14s %-18s %s\n" "ANN" "activation"
    "decisions" "obligations" "branch space" "patterns seen (1000 tests)";
  List.iter
    (fun width ->
      List.iter
        (fun activation ->
          let rng = Linalg.Rng.create width in
          let net =
            Nn.Network.i4xn ~rng ~hidden_activation:activation
              ~output_dim:(Nn.Gmm.output_dim ~components)
              width
          in
          let a = Coverage.Mcdc.analyze net in
          let m = Coverage.Mcdc.measure net probe_inputs in
          Printf.printf "I4x%-5d %-12s %-12d %-14d 2^%-15d %d (%.1f%% MC/DC)\n"
            width
            (Nn.Activation.name activation)
            a.Coverage.Mcdc.decisions a.Coverage.Mcdc.obligations
            a.Coverage.Mcdc.decisions m.Coverage.Mcdc.distinct_patterns
            m.Coverage.Mcdc.mcdc_percent)
        [ Nn.Activation.Tanh; Nn.Activation.Relu ])
    widths;
  print_newline ();
  print_endline
    "tanh rows: zero decisions, any single test achieves 100% MC/DC (trivial).";
  print_endline
    "relu rows: obligations grow linearly but the reachable branch space is\n\
     exponential - 1000 tests exercise a vanishing fraction of 2^decisions."

(* {1 Ablations (Sec. IV(ii): scalability)} *)

let ablation () =
  heading "Ablation: encoding choices (Sec. IV(ii) scalability)";
  let width = List.hd widths in
  let net = train_width width in
  let box = Lazy.force scenario in
  let row name ~binaries ~nodes ~pivots ~elapsed ~value ~optimal ~upper =
    Printf.printf "%-34s binaries=%-4d nodes=%-6d pivots=%-8d %6.1fs %s\n%!"
      name binaries nodes pivots elapsed
      (match (value, optimal) with
       | Some v, true -> Printf.sprintf "max=%.4f (exact)" v
       | Some v, false -> Printf.sprintf "max>=%.4f (bound %.4f)" v upper
       | None, _ -> "no incumbent")
  in
  let run name ~tighten_rounds =
    let r =
      Verify.Driver.max_lateral_velocity ~time_limit ~tighten_rounds
        ~components net box
    in
    row name
      ~binaries:r.Verify.Driver.encoder_stats.Encoding.Encoder.unstable
      ~nodes:r.Verify.Driver.nodes ~pivots:r.Verify.Driver.lp_iterations
      ~elapsed:r.Verify.Driver.elapsed ~value:r.Verify.Driver.value
      ~optimal:r.Verify.Driver.optimal ~upper:r.Verify.Driver.upper_bound
  in
  (* The naive global big-M: every neuron's constants come from a
     single input radius instead of from the scenario box. The interval
     encoding of [-radius, radius]^84 has exactly those constants, and
     narrowing its input variables to the box gives the model such an
     encoder emits. Each component is then searched the way
     [max_lateral_velocity] searches its own encoding on one core. *)
  let coarse name ~radius =
    let started = Linalg.Mclock.now () in
    let deadline = started +. time_limit in
    let wide = Interval.top radius in
    if not (Array.for_all (fun iv -> Interval.subset iv wide) box) then
      failwith "ablation: the scenario box exceeds the coarse radius";
    let enc = Encoding.Encoder.encode net (Array.map (fun _ -> wide) box) in
    let model = enc.Encoding.Encoder.model in
    Array.iteri
      (fun i v ->
        Lp.Problem.set_bounds (Milp.Model.lp model) v ~lo:box.(i).Interval.lo
          ~hi:box.(i).Interval.hi)
      enc.Encoding.Encoder.input_vars;
    let priority = Encoding.Encoder.layer_order_priority enc in
    let post = enc.Encoding.Encoder.bounds.Encoding.Bounds.post in
    let searches =
      List.init components (fun i ->
          let k = Nn.Gmm.mu_lat_index ~components i in
          let primal_heuristic relaxation =
            let input = Encoding.Encoder.input_point enc relaxation in
            let point = Encoding.Encoder.assignment_of_input enc net input in
            Some (point, point.(enc.Encoding.Encoder.output_vars.(k)))
          in
          let r =
            Milp.Solver.solve
              ~time_limit:
                (Verify.Driver.budget_slice ~deadline
                   ~queue_len:(components - i) ())
              ~branch_rule:(Milp.Solver.Priority priority) ~primal_heuristic
              ~objective:(Encoding.Encoder.output_objective enc k) model
          in
          (r, Float.min r.Milp.Solver.best_bound
                post.(Array.length post - 1).(k).Interval.hi))
    in
    let sum f = List.fold_left (fun acc (r, _) -> acc + f r) 0 searches in
    let value =
      List.fold_left
        (fun best (r, _) ->
          match (r.Milp.Solver.incumbent, best) with
          | Some (_, v), Some b when v <= b -> best
          | Some (_, v), _ -> Some v
          | None, _ -> best)
        None searches
    in
    row name ~binaries:enc.Encoding.Encoder.stats.Encoding.Encoder.unstable
      ~nodes:(sum (fun r -> r.Milp.Solver.nodes))
      ~pivots:(sum (fun r -> r.Milp.Solver.lp_iterations))
      ~elapsed:(Linalg.Mclock.elapsed ~since:started) ~value
      ~optimal:
        (value <> None
        && List.for_all
             (fun (r, _) -> r.Milp.Solver.outcome = Milp.Solver.Optimal)
             searches)
      ~upper:
        (List.fold_left (fun u (_, b) -> Float.max u b) neg_infinity searches)
  in
  Printf.printf "verifying I4x%d under different configurations:\n\n" width;
  run "interval big-M + OBBT, best-first" ~tighten_rounds:1;
  run "interval big-M, no OBBT" ~tighten_rounds:0;
  coarse "coarse big-M (radius 4), no OBBT" ~radius:4.0;
  print_newline ();
  print_endline
    "interval-propagated big-M constants prune stable neurons before search;\n\
     the coarse (naive global) encoding leaves every neuron binary and pays\n\
     for it in nodes and pivots - the paper's call for tighter encodings.";
  (* Sec. IV(iii): training under known properties ("hints"). *)
  print_newline ();
  Printf.printf "hint training (Sec. IV(iii)): same data, safety hint in the loss\n\n";
  let clean = Lazy.force clean_dataset in
  let train_with_hint hint =
    let rng = Linalg.Rng.create (seed + 2000 + width) in
    let hinted =
      Nn.Network.i4xn ~rng ~output_dim:(Nn.Gmm.output_dim ~components) width
    in
    let config =
      {
        (Train.Trainer.default ~loss:(Train.Loss.Mdn { components }) ()) with
        Train.Trainer.epochs;
        seed;
        hint;
      }
    in
    ignore (Train.Trainer.fit config hinted (Dataset.pairs clean) ());
    hinted
  in
  let plain = train_with_hint None in
  let hinted =
    train_with_hint
      (Some (Train.Hint.left_safety ~weight:2.0 ~limit:0.5 ~components ()))
  in
  let report name net' =
    let r =
      Verify.Driver.max_lateral_velocity ~time_limit ~components net' box
    in
    Printf.printf "%-34s %s\n%!" name
      (match (r.Verify.Driver.value, r.Verify.Driver.optimal) with
       | Some v, true -> Printf.sprintf "verified max lateral velocity %.4f m/s (exact)" v
       | Some v, false -> Printf.sprintf "max >= %.4f, bound %.4f (time limit)" v r.Verify.Driver.upper_bound
       | None, _ -> "verification incomplete");
    r
  in
  let r_plain = report "trained without hint" plain in
  let r_hint = report "trained with safety hint" hinted in
  (match (r_plain.Verify.Driver.value, r_hint.Verify.Driver.value) with
   | Some a, Some b when b < a ->
       Printf.printf
         "the hint reduced the worst-case left suggestion by %.3f m/s before\n\
          verification even ran - the direction the paper points to in Sec. IV(iii).\n"
         (a -. b)
   | _ -> ())

(* {1 Search-order measurements (micro --json)} *)

(* Smoke model of micro --json's search-order, serve-cache, partition
   and certificate rows: small enough for CI seconds, deep enough that
   depth-first diving reaches an integral leaf — the first incumbent —
   well before best-first does. *)
let portfolio_smoke =
  lazy
    (let rng = Linalg.Rng.create 21 in
     let net =
       Nn.Network.create ~rng [ 6; 10; 10; Nn.Gmm.output_dim ~components:2 ]
     in
     let box = Array.make 6 (Interval.make (-0.25) 0.25) in
     (net, Encoding.Encoder.encode net box))

(* Single-worker configurations so node counts are deterministic: the
   comparison is search *order* (diving vs best-first, which is also
   what one core runs), not domain parallelism. The 1:1 row shows the
   actual two-domain portfolio. *)
let portfolio_configs =
  [
    ("best_first_only", (0, 1));
    ("diver_only", (1, 0));
    ("portfolio_1_1", (1, 1));
  ]

let portfolio_measurements () =
  let _net, enc = Lazy.force portfolio_smoke in
  let priority = Encoding.Encoder.layer_order_priority enc in
  List.concat_map
    (fun (name, portfolio) ->
      List.map
        (fun k ->
          let r =
            Milp.Solver.solve ~portfolio
              ~branch_rule:(Milp.Solver.Priority priority)
              ~objective:(Encoding.Encoder.output_objective enc k)
              enc.Encoding.Encoder.model
          in
          (name, k, r))
        (List.init 2 (fun k -> Nn.Gmm.mu_lat_index ~components:2 k)))
    portfolio_configs

(* {1 Batched-forward throughput (micro --json)} *)

(* Scalar vs cache-blocked batched forward on untrained I4xN predictors
   (weights don't change the flop count). Best-of-five timing over whole
   input sweeps, so packing and column extraction are charged to the
   batched path. *)
let batched_forward_measurements () =
  let bf_widths = [ 10; 20; 50 ]
  and bf_batches = [ 32; Nn.Network.chunk_width; 512 ] in
  let rng = Linalg.Rng.create 11 in
  let inputs =
    Array.init 512 (fun _ ->
        Array.init 84 (fun _ -> Linalg.Rng.uniform rng (-1.0) 1.0))
  in
  let n = Array.length inputs in
  let best_of f =
    let best = ref infinity in
    for _ = 1 to 5 do
      let t0 = Linalg.Mclock.now () in
      for _ = 1 to 10 do
        f ()
      done;
      best := Float.min !best (Linalg.Mclock.elapsed ~since:t0 /. 10.0)
    done;
    1e9 *. !best /. float_of_int n
  in
  List.concat_map
    (fun width ->
      let net = Nn.Network.i4xn ~rng:(Linalg.Rng.create (300 + width)) width in
      ignore (Nn.Network.forward net inputs.(0));
      let scalar_ns =
        best_of (fun () ->
            Array.iter (fun x -> ignore (Nn.Network.forward net x)) inputs)
      in
      List.map
        (fun b ->
          let batched_ns =
            best_of (fun () ->
                let off = ref 0 in
                while !off < n do
                  let len = min b (n - !off) in
                  let chunk = Array.sub inputs !off len in
                  ignore
                    (Nn.Network.forward_batch net
                       (Linalg.Mat.of_cols ~rows:84 chunk));
                  off := !off + len
                done)
          in
          (width, b, scalar_ns, batched_ns, scalar_ns /. batched_ns))
        bf_batches)
    bf_widths

(* {1 Serve-cache measurements (micro --json)} *)

type serve_stats = {
  sv_cold_s : float;       (* miss: full certified solve *)
  sv_exact_s : float;      (* identical question again *)
  sv_subsumed_s : float;   (* contained box, looser threshold *)
  sv_certified : int;      (* certificates backing the cached verdict *)
  sv_audit_ok : bool;      (* the backing directory replays cleanly *)
}

(* End-to-end over a real unix socket against an in-process daemon on
   the portfolio smoke model, so framing, property hashing and the
   store probe are charged to every row. The cold solve is necessarily
   a single shot (answering it fills the cache); hit latencies are
   best-of-20. *)
let serve_measurements () =
  let net, _ = Lazy.force portfolio_smoke in
  let root = temp_root "serve" in
  if not (Sys.file_exists root) then Unix.mkdir root 0o755;
  let address = Serve.Protocol.Unix_socket (Filename.concat root "sock") in
  let config =
    {
      (Serve.Server.default_config ~address
         ~cache_dir:(Filename.concat root "cache") ())
      with
      Serve.Server.workers = 1;
      stats_interval = 0.0;
      log = ignore;
    }
  in
  let daemon = Domain.spawn (fun () -> Serve.Server.run config net) in
  Fun.protect
    ~finally:(fun () ->
      ignore (Serve.Client.call address Serve.Protocol.Shutdown);
      Domain.join daemon;
      try rm_tree root with Sys_error _ | Unix.Unix_error _ -> ())
    (fun () ->
      (match Serve.Client.wait_ready address with
      | Ok _ -> ()
      | Error e -> failwith ("bench serve: " ^ e));
      let box = Array.make 6 (Interval.make (-0.25) 0.25) in
      let v =
        Option.get
          (Verify.Driver.max_lateral_velocity ~components:2 net box)
            .Verify.Driver.value
      in
      let prop ~threshold ~radius =
        {
          Certify.Certificate.threshold;
          components = 2;
          bound_mode =
            Certify.Checker.mode_string Encoding.Encoder.Interval_bounds;
          box = Array.init 6 (fun _ -> (-.radius, radius));
        }
      in
      let ask p =
        let t0 = Linalg.Mclock.now () in
        match
          Serve.Client.call address
            (Serve.Protocol.Verify
               {
                 Serve.Protocol.property = p;
                 net_hash = None;
                 time_limit = Some 60.0;
                 exact_only = false;
               })
        with
        | Ok (Serve.Protocol.Answer a) -> (a, Linalg.Mclock.elapsed ~since:t0)
        | Ok _ -> failwith "bench serve: unexpected response"
        | Error e -> failwith ("bench serve: " ^ e)
      in
      let check what expected (a : Serve.Protocol.answer) =
        if a.Serve.Protocol.cache <> expected then
          failwith
            (Printf.sprintf "bench serve: %s answered from %s" what
               (Serve.Protocol.cache_string a.Serve.Protocol.cache))
      in
      let best_of n p =
        let best = ref infinity and answer = ref None in
        for _ = 1 to n do
          let a, s = ask p in
          answer := Some a;
          best := Float.min !best s
        done;
        (Option.get !answer, !best)
      in
      let cold_p = prop ~threshold:(v +. 0.5) ~radius:0.25 in
      let cold_a, cold_s = ask cold_p in
      check "the cold query" Serve.Protocol.Cache_miss cold_a;
      let exact_a, exact_s = best_of 20 cold_p in
      check "the repeat query" Serve.Protocol.Cache_exact exact_a;
      let sub_a, sub_s = best_of 20 (prop ~threshold:(v +. 1.0) ~radius:0.125) in
      check "the contained-box query" Serve.Protocol.Cache_subsumed sub_a;
      let audit =
        Certify.Audit.run ~net ~dir:exact_a.Serve.Protocol.cert_dir
      in
      {
        sv_cold_s = cold_s;
        sv_exact_s = exact_s;
        sv_subsumed_s = sub_s;
        sv_certified = cold_a.Serve.Protocol.certified;
        sv_audit_ok =
          audit.Certify.Audit.ok && audit.Certify.Audit.verdict = `Proved;
      })

(* Acceptance: a cache hit never touches a solver, so it must be at
   least two orders of magnitude cheaper than the certified solve it
   replaced (in practice three to four). The benchmark of record cannot
   carry this bound: serve-mixed's hit and miss medians are one-shot
   latencies of different questions on I4x10 against a store that grows
   with every miss, and read only 72x apart in a seed-1 run on a 2-vCPU
   VM. *)
let check_serve m =
  let speedup hit = m.sv_cold_s /. hit in
  Printf.printf
    "serve cache: cold miss %.1f ms, exact hit %.3f ms (%.0fx), subsumed \
     hit %.3f ms (%.0fx); %d certificates behind the verdict (audit: %s)\n"
    (1e3 *. m.sv_cold_s) (1e3 *. m.sv_exact_s) (speedup m.sv_exact_s)
    (1e3 *. m.sv_subsumed_s) (speedup m.sv_subsumed_s) m.sv_certified
    (if m.sv_audit_ok then "ok" else "FAILED");
  if not m.sv_audit_ok then begin
    print_endline "FAIL: cache-backing certificates do not audit";
    exit 1
  end;
  if speedup m.sv_exact_s < 100.0 then begin
    Printf.printf "FAIL: exact-hit speedup %.0fx below the 100x acceptance\n"
      (speedup m.sv_exact_s);
    exit 1
  end

(* {1 Partition measurements (shared by [partition] and micro --json)} *)

type partition_stats_row = {
  pt_width : int;
  pt_baseline_outcome : string;
  pt_baseline_s : float;
  pt_split_outcome : string;
  pt_split_s : float;
  pt_leaves : int;
  pt_presolved : int;
  pt_cached : int;
  pt_revalidated : int;
  pt_solved : int;
  pt_unsettled : int;
  pt_reverify_cached_fraction : float;  (* (cached + revalidated) / leaves
                                           against the nudged network *)
  pt_audit_ok : bool;  (* the shard manifest + leaf directories replay *)
}

let proof_outcome = function
  | Verify.Driver.Proved -> "proved"
  | Verify.Driver.Disproved _ -> "disproved"
  | Verify.Driver.Unknown _ -> "unknown"

(* One nudged weight on a copy: the smallest possible model update (the
   CLI's [perturb]), so the re-verification row measures how much of the
   leaf set survives a retrain-shaped change. *)
let nudge_one_weight net =
  let net = Nn.Network.copy net in
  let w = (Nn.Network.layer net 0).Nn.Layer.weights in
  let old = Linalg.Mat.get w 0 0 in
  Linalg.Mat.set w 0 0 (if old = 0.0 then 1e-3 else old *. 1.0001);
  net

(* Monolithic baseline, then the same decision query partitioned into a
   certifying store, then the store replayed twice: once by the nudged
   network (cross-network revalidation) and once by the independent
   shard audit. *)
let partition_measurements ~width ~split ~components ~threshold ~time_limit
    net box =
  let root = temp_root "partition" in
  (try rm_tree root with Sys_error _ | Unix.Unix_error _ -> ());
  Fun.protect
    ~finally:(fun () ->
      try rm_tree root with Sys_error _ | Unix.Unix_error _ -> ())
  @@ fun () ->
  (* Symbolic bounds on both sides: the decision query's best mode, and
     the one whose per-leaf pre-pass the partition relies on. *)
  let bound_mode = Encoding.Encoder.Symbolic_bounds in
  let baseline =
    Verify.Driver.prove_lateral_velocity_le ~time_limit ~bound_mode ~components
      ~threshold net box
  in
  let split1 =
    Verify.Driver.prove_lateral_velocity_le ~time_limit ~bound_mode ~components
      ~threshold ~split ~certify_dir:root net box
  in
  let stats =
    match split1.Verify.Driver.partition with
    | Some s -> s
    | None -> failwith "bench partition: split run returned no leaf stats"
  in
  let reverify =
    Verify.Driver.prove_lateral_velocity_le ~time_limit ~bound_mode ~components
      ~threshold ~split ~certify_dir:root (nudge_one_weight net) box
  in
  let rstats =
    match reverify.Verify.Driver.partition with
    | Some s -> s
    | None -> failwith "bench partition: re-verify returned no leaf stats"
  in
  let audit_ok =
    List.exists
      (fun name ->
        match Certify.Audit.run_shard ~net ~dir:root ~name with
        | Ok r -> r.Certify.Audit.shard_ok
        | Error _ -> false)
      (Certify.Audit.shard_manifests ~dir:root)
  in
  {
    pt_width = width;
    pt_baseline_outcome = proof_outcome baseline.Verify.Driver.proof;
    pt_baseline_s = baseline.Verify.Driver.proof_elapsed;
    pt_split_outcome = proof_outcome split1.Verify.Driver.proof;
    pt_split_s = split1.Verify.Driver.proof_elapsed;
    pt_leaves = stats.Verify.Partition.leaves;
    pt_presolved = stats.Verify.Partition.presolved;
    pt_cached = stats.Verify.Partition.cached;
    pt_revalidated = stats.Verify.Partition.revalidated;
    pt_solved = stats.Verify.Partition.solved;
    pt_unsettled = stats.Verify.Partition.unsettled;
    pt_reverify_cached_fraction =
      float_of_int
        (rstats.Verify.Partition.cached + rstats.Verify.Partition.revalidated)
      /. float_of_int (max 1 rstats.Verify.Partition.leaves);
    pt_audit_ok = audit_ok;
  }

(* Fast smoke row for micro --json: forced depth 2 on the portfolio
   smoke model, so the trajectory file always carries leaf accounting
   regardless of how the adaptive policy behaves on the real nets. *)
let partition_smoke_measurements () =
  let net, _ = Lazy.force portfolio_smoke in
  let box = Array.make 6 (Interval.make (-0.25) 0.25) in
  (* Headroom above the whole-box outward symbolic bound (which
     dominates every leaf's bound), so all four leaves discharge by
     presolve and the nudged replay revalidates them all. *)
  let ub = ref neg_infinity in
  for k = 0 to 1 do
    let output = Nn.Gmm.mu_lat_index ~components:2 k in
    ub := Float.max !ub (Certify.Checker.symbolic_output_upper net box ~output)
  done;
  partition_measurements ~width:10 ~split:(Verify.Partition.Depth 2)
    ~components:2 ~threshold:(!ub +. 0.5) ~time_limit:30.0 net box

let render_partition_row m =
  Printf.printf "baseline (monolithic):     %s in %.1fs\n" m.pt_baseline_outcome
    m.pt_baseline_s;
  Printf.printf "partitioned:               %s in %.1fs\n" m.pt_split_outcome
    m.pt_split_s;
  Printf.printf
    "  %d leaves: %d presolved, %d cached, %d revalidated, %d solved, %d \
     unsettled\n"
    m.pt_leaves m.pt_presolved m.pt_cached m.pt_revalidated m.pt_solved
    m.pt_unsettled;
  Printf.printf
    "re-verification after a one-weight nudge: %.0f%% of leaves answered \
     without a solve\n"
    (100.0 *. m.pt_reverify_cached_fraction);
  Printf.printf "shard audit: %s\n" (if m.pt_audit_ok then "ok" else "FAILED")

let partition_report () =
  heading
    "Partition-and-conquer: the Table II frontier as many small MILPs";
  let widest = List.fold_left max 0 widths in
  let net = train_width widest in
  Printf.printf
    "decision query (<= 3 m/s) on I4x%d, %.0fs budget, adaptive split\n\n"
    widest time_limit;
  render_partition_row
    (partition_measurements ~width:widest ~split:Verify.Partition.Auto
       ~components ~threshold:3.0 ~time_limit net (Lazy.force scenario));
  (* The adaptive row's cache fraction depends on how close the trained
     bound sits to 3 m/s; the forced-depth row replays the store against
     a threshold with headroom, so the revalidation machinery itself is
     always on display. *)
  Printf.printf "\ncache replay (forced depth 2, threshold with headroom)\n\n";
  render_partition_row (partition_smoke_measurements ())

(* {1 Bechamel micro-benchmarks} *)

(* Mean hidden pre-activation width under a bound analysis: the scalar
   the big-M constants inherit, so it is the most direct "how much
   tighter" metric next to the unstable-neuron count. *)
let mean_pre_width net (b : Encoding.Bounds.t) =
  let sum = ref 0.0 and n = ref 0 in
  for i = 0 to Nn.Network.num_layers net - 2 do
    Array.iter
      (fun iv ->
        sum := !sum +. Interval.width iv;
        incr n)
      b.Encoding.Bounds.pre.(i)
  done;
  if !n = 0 then 0.0 else !sum /. float_of_int !n

let bounds_of_symbolic (s : Absint.Symbolic.t) =
  { Encoding.Bounds.pre = s.Absint.Symbolic.pre; post = s.Absint.Symbolic.post }

let micro ?(json = false) () =
  heading "Microbenchmarks (Bechamel)";
  (* Measured before any Bechamel run: Benchmark.all leaves the
     process's GC in a state where large short-lived arrays (the batched
     path's matrices) allocate an order of magnitude slower, which would
     corrupt the recorded speedups. *)
  let batched_rows = if json then Some (batched_forward_measurements ()) else None in
  let serve_row = if json then Some (serve_measurements ()) else None in
  let partition_row =
    if json then Some (partition_smoke_measurements ()) else None
  in
  let open Bechamel in
  let rng = Linalg.Rng.create 1 in
  let net = Nn.Network.i4xn ~rng 20 in
  let x = Array.init 84 (fun _ -> Linalg.Rng.uniform rng (-1.0) 1.0) in
  let box = Array.make 84 (Interval.make (-0.5) 0.5) in
  let road = Highway.Recorder.default_road in
  let sim = Highway.Simulator.spawn ~rng ~road ~vehicles_per_lane:14 () in
  Highway.Simulator.run sim ~dt:0.2 ~steps:20 ();
  let scene = Highway.Simulator.scene sim in
  (* One sampling step of the recorder's loop, in the pinned recipe's
     style: the expert action, the feature encoding, then the
     action-driven simulator step. *)
  let step_name =
    Printf.sprintf "recorder step (%d vehicles)"
      (Array.length scene.Highway.Scene.others + 1)
  in
  let recorder_step () =
    let world = Highway.Simulator.scene sim in
    let action =
      Highway.Policy.act ~style:(Highway.Policy.Risky 0.25)
        ~idm:Highway.Idm.default ~mobil:Highway.Mobil.default ~rng world
    in
    ignore (Highway.Features.encode world);
    Highway.Simulator.step sim ~ego_action:action ~dt:0.2 ()
  in
  let lp =
    let p = Lp.Problem.create () in
    let vars =
      List.init 40 (fun i ->
          Lp.Problem.add_var p ~lo:(-1.0) ~hi:1.0 ~obj:(float_of_int (i mod 7) -. 3.0) ())
    in
    List.iteri
      (fun i v ->
        let next = List.nth vars ((i + 1) mod 40) in
        Lp.Problem.add_constraint p [ (v, 1.0); (next, 0.5) ] Lp.Problem.Le 0.8)
      vars;
    p
  in
  (* Node-evaluation microbenchmark: the branch & bound hot path is
     "apply a node's bound chain to the root LP". Compare the historic
     per-node [Problem.copy] against the journal (push/apply/pop) on a
     real NN encoding with a depth-12 fix chain. *)
  let enc = Encoding.Encoder.encode net box in
  let enc_lp = Milp.Model.lp enc.Encoding.Encoder.model in
  let node_fixes =
    List.filteri (fun i _ -> i < 12) enc.Encoding.Encoder.binaries
    |> List.mapi (fun i (v, _, _) ->
           if i mod 2 = 0 then (v, 0.0, 0.0) else (v, 1.0, 1.0))
  in
  (* Warm vs cold node re-solve: the other half of the node hot path.
     Fix a depth-12 chain of binaries (a typical B&B node) and compare a
     from-scratch two-phase solve of the child LP against a dual-simplex
     resolve from the parent's optimal basis, whose snapshot carries the
     factored basis as it does inside branch & bound. The historical
     cold entry names stay pinned to the dense tableau so the
     BENCH_milp.json trajectory keeps comparing like with like. *)
  let node_lp = Lp.Problem.copy enc_lp in
  Lp.Problem.set_objective node_lp (Encoding.Encoder.output_objective enc 0);
  let parent = Lp.Simplex.solve node_lp in
  List.iter
    (fun (v, lo, hi) -> Lp.Problem.set_bounds node_lp v ~lo ~hi)
    node_fixes;
  let warm_stats =
    match parent.Lp.Simplex.basis with
    | None -> None
    | Some basis ->
        let cold_child = Lp.Simplex.solve node_lp in
        let warm_child = Lp.Simplex.resolve ~basis node_lp in
        Some
          ( basis,
            cold_child.Lp.Simplex.iterations,
            warm_child.Lp.Simplex.iterations,
            warm_child.Lp.Simplex.warm )
  in
  let guard =
    Guard.make
      ~envelope:(Guard.envelope ~components:3 ~lat_limit:1.5 ())
      net
  in
  let tests =
    [
      Test.make ~name:"forward pass I4x20" (Staged.stage (fun () -> Nn.Network.forward net x));
      Test.make ~name:"guarded predict I4x20"
        (Staged.stage (fun () -> Guard.predict guard x));
      Test.make ~name:"bound propagation I4x20"
        (Staged.stage (fun () -> Encoding.Bounds.propagate net box));
      Test.make ~name:"symbolic propagate I4x20"
        (Staged.stage (fun () -> Absint.Symbolic.propagate net box));
      Test.make ~name:"scene encode (84 features)"
        (Staged.stage (fun () -> Highway.Features.encode scene));
      Test.make ~name:"simplex solve (40 vars)"
        (Staged.stage (fun () -> Lp.Simplex.solve_dense (Lp.Problem.copy lp)));
      Test.make ~name:"simplex solve sparse (40 vars)"
        (Staged.stage (fun () -> Lp.Simplex.solve (Lp.Problem.copy lp)));
      Test.make ~name:step_name (Staged.stage recorder_step);
      Test.make ~name:"node-eval copy (depth 12)"
        (Staged.stage (fun () ->
             let p = Lp.Problem.copy enc_lp in
             List.iter
               (fun (v, lo, hi) -> Lp.Problem.set_bounds p v ~lo ~hi)
               node_fixes));
      Test.make ~name:"node-eval journal (depth 12)"
        (Staged.stage (fun () ->
             Lp.Problem.push_bounds enc_lp;
             List.iter
               (fun (v, lo, hi) -> Lp.Problem.set_bounds enc_lp v ~lo ~hi)
               node_fixes;
             Lp.Problem.pop_bounds enc_lp));
      Test.make ~name:"node re-solve cold (depth 12)"
        (Staged.stage (fun () -> Lp.Simplex.solve_dense node_lp));
    ]
    @
    match warm_stats with
    | Some (basis, _, _, true) ->
        [
          Test.make ~name:"node re-solve warm sparse (depth 12)"
            (Staged.stage (fun () -> Lp.Simplex.resolve ~basis node_lp));
        ]
    | Some (_, _, _, false) | None -> []
  in
  let benchmark test =
    let instance = Toolkit.Instance.monotonic_clock in
    let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 1.0) ~kde:None () in
    let raw = Benchmark.all cfg [ instance ] test in
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
    in
    let results = Analyze.all ols instance raw in
    Hashtbl.fold
      (fun name result acc ->
        match Analyze.OLS.estimates result with
        | Some [ nanoseconds ] ->
            Printf.printf "%-32s %12.1f ns/run\n" name nanoseconds;
            (name, nanoseconds) :: acc
        | Some _ | None ->
            Printf.printf "%-32s (no estimate)\n" name;
            acc)
      results []
  in
  let measured =
    List.concat_map
      (fun t -> benchmark (Test.make_grouped ~name:"" [ t ]))
      tests
  in
  (match
     ( List.assoc_opt "/node-eval copy (depth 12)" measured,
       List.assoc_opt "/node-eval journal (depth 12)" measured )
   with
   | Some copy_ns, Some journal_ns when journal_ns > 0.0 ->
       Printf.printf
         "\nnode-eval: journal-based setup is %.1fx faster than per-node copy\n"
         (copy_ns /. journal_ns)
   | _ -> ());
  (match warm_stats with
   | Some (_, cold_it, warm_it, warm_used) ->
       Printf.printf
         "node re-solve: %d cold vs %d warm pivots (warm path used: %b)\n"
         cold_it warm_it warm_used
   | None ->
       print_endline
         "node re-solve: parent kept an artificial basic, no warm snapshot");
  if json then begin
    let oc = open_out "BENCH_milp.json" in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        let escape name =
          String.concat "\\\"" (String.split_on_char '"' name)
        in
        Printf.fprintf oc "{\n  \"suite\": \"micro\",\n  \"unit\": \"ns/run\",\n";
        Printf.fprintf oc "  \"cores_available\": %d,\n"
          (Domain.recommended_domain_count ());
        Printf.fprintf oc "  \"results\": [\n";
        List.iteri
          (fun i (name, ns) ->
            Printf.fprintf oc "    {\"name\": \"%s\", \"ns_per_run\": %.2f}%s\n"
              (escape name) ns
              (if i = List.length measured - 1 then "" else ","))
          measured;
        Printf.fprintf oc "  ],\n";
        (match warm_stats with
         | Some (_, cold_it, warm_it, warm_used) ->
             Printf.fprintf oc
               "  \"warm_start\": {\"cold_iterations\": %d, \
                \"warm_iterations\": %d, \"warm_used\": %b},\n"
               cold_it warm_it warm_used
         | None -> Printf.fprintf oc "  \"warm_start\": null,\n");
        (* Bound-tightness trajectory: how many binaries the symbolic
           analysis removes on the reference I4x20 box, and the mean
           big-M width under each analysis. *)
        let interval_b = Encoding.Bounds.propagate net box in
        let symbolic_b = bounds_of_symbolic (Absint.Symbolic.propagate net box) in
        Printf.fprintf oc
          "  \"symbolic_bounds\": {\"interval_unstable\": %d, \
           \"symbolic_unstable\": %d, \"interval_mean_width\": %.6f, \
           \"symbolic_mean_width\": %.6f},\n"
          (Encoding.Bounds.count_unstable net interval_b)
          (Encoding.Bounds.count_unstable net symbolic_b)
          (mean_pre_width net interval_b) (mean_pre_width net symbolic_b);
        (* Batched-inference trajectory: the cache-blocked matrix kernel
           against the scalar forward, end to end (packing included). *)
        let bf = Option.value batched_rows ~default:[] in
        Printf.fprintf oc "  \"batched_forward\": [\n";
        List.iteri
          (fun i (w, b, s, bt, sp) ->
            Printf.fprintf oc
              "    {\"width\": %d, \"batch\": %d, \"scalar_ns_per_input\": \
               %.1f, \"batched_ns_per_input\": %.1f, \"speedup\": %.2f}%s\n"
              w b s bt sp
              (if i = List.length bf - 1 then "" else ","))
          bf;
        Printf.fprintf oc "  ],\n";
        (* Time-to-first-incumbent trajectory: the smoke-model portfolio
           rows, so successive runs can compare diving against the
           best-first baseline. *)
        let rows = portfolio_measurements () in
        Printf.fprintf oc "  \"portfolio\": [\n";
        List.iteri
          (fun i (name, k, r) ->
            Printf.fprintf oc
              "    {\"config\": \"%s\", \"query\": %d, \"nodes\": %d, \
               \"first_incumbent_nodes\": %s, \"first_incumbent_s\": %s, \
               \"elapsed_s\": %.4f}%s\n"
              name k r.Milp.Solver.nodes
              (match r.Milp.Solver.first_incumbent_nodes with
               | Some n -> string_of_int n
               | None -> "null")
              (match r.Milp.Solver.first_incumbent_elapsed with
               | Some s -> Printf.sprintf "%.4f" s
               | None -> "null")
              r.Milp.Solver.elapsed
              (if i = List.length rows - 1 then "" else ","))
          rows;
        Printf.fprintf oc "  ],\n";
        (* Serve-cache trajectory: what the content-addressed proof
           store turns a repeated certification query into, end to end
           over the socket. *)
        (match serve_row with
        | Some m ->
            Printf.fprintf oc
              "  \"serve_cache\": {\"cold_s\": %.4f, \"exact_hit_s\": %.6f, \
               \"subsumed_hit_s\": %.6f, \"exact_speedup\": %.0f, \
               \"subsumed_speedup\": %.0f, \"certified\": %d, \"audit_ok\": \
               %b},\n"
              m.sv_cold_s m.sv_exact_s m.sv_subsumed_s
              (m.sv_cold_s /. m.sv_exact_s)
              (m.sv_cold_s /. m.sv_subsumed_s)
              m.sv_certified m.sv_audit_ok
        | None -> Printf.fprintf oc "  \"serve_cache\": null,\n");
        (* Partition trajectory: leaf accounting for the split decision
           query, and how much of the leaf set a one-weight model update
           re-answers from the proof store. *)
        (match partition_row with
        | Some m ->
            Printf.fprintf oc
              "  \"partition\": {\"width\": %d, \"baseline_outcome\": \
               \"%s\", \"baseline_s\": %.4f, \"split_outcome\": \"%s\", \
               \"split_s\": %.4f, \"leaves\": %d, \"presolved\": %d, \
               \"cached\": %d, \"revalidated\": %d, \"solved\": %d, \
               \"unsettled\": %d, \"reverify_cached_fraction\": %.3f, \
               \"audit_ok\": %b},\n"
              m.pt_width m.pt_baseline_outcome m.pt_baseline_s
              m.pt_split_outcome m.pt_split_s m.pt_leaves m.pt_presolved
              m.pt_cached m.pt_revalidated m.pt_solved m.pt_unsettled
              m.pt_reverify_cached_fraction m.pt_audit_ok
        | None -> Printf.fprintf oc "  \"partition\": null,\n");
        (* Certificate trajectory (report-only): what the auditable
           artifacts of a certified smoke proof cost on disk. *)
        let snet, _ = Lazy.force portfolio_smoke in
        let sbox = Array.make 6 (Interval.make (-0.25) 0.25) in
        let dir = temp_root "certs" in
        (match
           Option.map
             (fun v ->
               Verify.Driver.prove_lateral_velocity_le ~certify_dir:dir
                 ~components:2 ~threshold:(v +. 0.5) snet sbox)
             (Verify.Driver.max_lateral_velocity ~components:2 snet sbox)
               .Verify.Driver.value
         with
         | exception _ -> Printf.fprintf oc "  \"certificates\": null\n"
         | None -> Printf.fprintf oc "  \"certificates\": null\n"
         | Some pr ->
             let files =
               Sys.readdir dir |> Array.to_list
               |> List.filter (fun f -> Filename.check_suffix f ".cert")
             in
             let sizes =
               List.map
                 (fun f ->
                   (Unix.stat (Filename.concat dir f)).Unix.st_size)
                 files
             in
             let total = List.fold_left ( + ) 0 sizes in
             let count = List.length files in
             Printf.fprintf oc
               "  \"certificates\": {\"count\": %d, \"total_bytes\": %d, \
                \"mean_bytes\": %.1f, \"certified\": %d, \"proved\": %b}\n"
               count total
               (if count = 0 then 0.0
                else float_of_int total /. float_of_int count)
               pr.Verify.Driver.certified
               (pr.Verify.Driver.proof = Verify.Driver.Proved));
        (try rm_tree dir with Sys_error _ | Unix.Unix_error _ -> ());
        Printf.fprintf oc "}\n");
    Printf.printf "wrote BENCH_milp.json (%d entries)\n" (List.length measured);
    Option.iter check_serve serve_row
  end

(* {1 Abstract-interpretation report (CI runs this report-only)} *)

let absint_report () =
  heading "Abstract interpretation: symbolic vs interval bounds";
  (* Seeded random smoke nets, no training: bound tightness and its
     end-to-end effect on verification must be measurable in CI
     seconds. *)
  let budget = Float.min time_limit 15.0 in
  Printf.printf
    "per-mode encoding tightness and end-to-end exact-max verification\n";
  Printf.printf "(tighten_rounds=0, time limit %.0fs per verification)\n\n"
    budget;
  Printf.printf "%-16s %-10s %-10s %-12s %-10s %-8s\n" "net" "mode" "unstable"
    "mean width" "verify s" "nodes";
  let summaries =
    List.map
      (fun (inputs, hidden, depth) ->
        let rng = Linalg.Rng.create (100 + (hidden * depth)) in
        let dims =
          (inputs :: List.init depth (fun _ -> hidden))
          @ [ Nn.Gmm.output_dim ~components:2 ]
        in
        let net = Nn.Network.create ~rng dims in
        (* Fresh nets have zero-mean pre-activations, so tighter bounds
           still straddle 0; shift deeper-layer biases to the nonzero
           operating points trained predictors exhibit, where symbolic
           tightness converts into removed binaries. *)
        for li = 1 to depth - 1 do
          let l = Nn.Network.layer net li in
          Array.iteri
            (fun r _ ->
              l.Nn.Layer.bias.(r) <-
                (l.Nn.Layer.bias.(r) +. if r mod 2 = 0 then 2.0 else -2.0))
            l.Nn.Layer.bias
        done;
        let box = Array.make inputs (Interval.make (-0.3) 0.3) in
        let name =
          Printf.sprintf "I%dx%d(d%d)" inputs hidden depth
        in
        let run mode_name bound_mode b =
          let unstable = Encoding.Bounds.count_unstable net b in
          let r =
            Verify.Driver.max_lateral_velocity ~time_limit:budget ~bound_mode
              ~tighten_rounds:0 ~components:2 net box
          in
          Printf.printf "%-16s %-10s %-10d %-12.4f %-10.2f %-8d\n%!" name
            mode_name unstable (mean_pre_width net b)
            r.Verify.Driver.elapsed r.Verify.Driver.nodes;
          (unstable, r)
        in
        let iu, ir =
          run "interval" Encoding.Encoder.Interval_bounds
            (Encoding.Bounds.propagate net box)
        in
        let su, sr =
          run "symbolic" Encoding.Encoder.Symbolic_bounds
            (bounds_of_symbolic (Absint.Symbolic.propagate net box))
        in
        (iu, su, ir, sr))
      [ (6, 10, 2); (6, 12, 3); (8, 16, 2) ]
  in
  print_newline ();
  List.iteri
    (fun i (iu, su, ir, sr) ->
      Printf.printf
        "net %d: symbolic removed %d of %d binaries; wall clock %.2fs -> \
         %.2fs, nodes %d -> %d\n"
        i (iu - su) iu ir.Verify.Driver.elapsed sr.Verify.Driver.elapsed
        ir.Verify.Driver.nodes sr.Verify.Driver.nodes)
    summaries;
  print_endline
    "\nsymbolic back-substitution keeps the input correlations interval\n\
     propagation drops, so deeper nets lose proportionally more binaries\n\
     and the branch & bound tree shrinks before any LP is solved."

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let json = List.mem "--json" args in
  let mode =
    match List.filter (fun a -> a <> "--json") args with
    | m :: _ -> m
    | [] -> "all"
  in
  let t0 = Unix.gettimeofday () in
  (match mode with
   | "table1" -> table1 ()
   | "table2" -> table2 ()
   | "fig1" -> fig1 ()
   | "mcdc" -> mcdc ()
   | "ablation" -> ablation ()
   | "micro" -> micro ~json ()
   | "absint" -> absint_report ()
   | "partition" -> partition_report ()
   | "all" ->
       table1 ();
       table2 ();
       fig1 ();
       mcdc ();
       ablation ();
       micro ~json ();
       absint_report ();
       partition_report ()
   | other ->
       Printf.eprintf
         "unknown mode %s (expected \
          table1|table2|fig1|mcdc|ablation|micro|absint|partition|all)\n"
         other;
       exit 2);
  Printf.printf "\ntotal bench time: %.1fs\n" (Unix.gettimeofday () -. t0)
