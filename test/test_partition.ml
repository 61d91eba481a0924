(* Input-space partition-and-conquer: the planner, the partitioned
   driver, the per-leaf certificate pipeline and the shard audit. *)

let small_net seed dims =
  let rng = Linalg.Rng.create seed in
  Nn.Network.create ~rng dims

let box dim radius = Array.make dim (Interval.make (-.radius) radius)

(* Miniature predictor, as in test_verify: 6 inputs, GMM head with 2
   components. *)
let mini_predictor seed =
  small_net seed [ 6; 8; 8; Nn.Gmm.output_dim ~components:2 ]

let exact_max net b0 =
  Option.get
    (Verify.Driver.max_lateral_velocity ~components:2 net b0)
      .Verify.Driver.value

let with_tmpdir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "depnn_test_partition_%d_%d" (Unix.getpid ())
         (Random.bits ()))
  in
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect
    ~finally:(fun () -> try rm dir with Sys_error _ | Unix.Unix_error _ -> ())
    (fun () -> f dir)

(* {1 Planner} *)

let test_plan_depth0 () =
  let net = mini_predictor 3 in
  let b0 = box 6 0.3 in
  let plan =
    Verify.Partition.plan ~policy:(Verify.Partition.Depth 0) ~components:2
      ~threshold:0.0 net b0
  in
  Alcotest.(check int) "one leaf" 1 (Array.length plan.Verify.Partition.boxes);
  Alcotest.(check int) "depth 0" 0 plan.Verify.Partition.plan_depth;
  Alcotest.(check bool) "tree is a tile" true
    (plan.Verify.Partition.tree = Certify.Shard.Tile);
  Array.iteri
    (fun i iv ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "dim %d untouched (lo)" i)
        b0.(i).Interval.lo iv.Interval.lo)
    plan.Verify.Partition.boxes.(0)

(* Forced depth on a splittable box: exactly 2^d leaves whose volumes
   sum to the parent's, all inside the parent. *)
let test_plan_forced_depth_tiles () =
  let net = mini_predictor 4 in
  let b0 = box 6 0.4 in
  let plan =
    Verify.Partition.plan ~policy:(Verify.Partition.Depth 2) ~components:2
      ~threshold:0.0 net b0
  in
  let leaves = plan.Verify.Partition.boxes in
  Alcotest.(check int) "2^2 leaves" 4 (Array.length leaves);
  let volume b =
    Array.fold_left (fun acc iv -> acc *. Interval.width iv) 1.0 b
  in
  let total = Array.fold_left (fun acc b -> acc +. volume b) 0.0 leaves in
  Alcotest.(check (float 1e-9)) "volumes tile the parent" (volume b0) total;
  Array.iter
    (fun b ->
      Alcotest.(check bool) "leaf inside parent" true
        (Array.for_all2
           (fun (leaf : Interval.t) (parent : Interval.t) ->
             leaf.Interval.lo >= parent.Interval.lo
             && leaf.Interval.hi <= parent.Interval.hi)
           b b0))
    leaves

(* A fully pinned box has no splittable dimension: one leaf no matter
   the requested depth, and planning must not raise. *)
let test_plan_pinned_box () =
  let net = mini_predictor 5 in
  let b0 = Array.make 6 (Interval.make 0.1 0.1) in
  let plan =
    Verify.Partition.plan ~policy:(Verify.Partition.Depth 3) ~components:2
      ~threshold:0.0 net b0
  in
  Alcotest.(check int) "single leaf" 1 (Array.length plan.Verify.Partition.boxes)

let test_plan_max_leaves_cap () =
  let net = mini_predictor 6 in
  let b0 = box 6 0.4 in
  let plan =
    Verify.Partition.plan ~policy:(Verify.Partition.Depth 5) ~max_leaves:5
      ~components:2 ~threshold:0.0 net b0
  in
  Alcotest.(check bool) "cap respected" true
    (Array.length plan.Verify.Partition.boxes <= 5);
  Alcotest.(check bool) "still split some" true
    (Array.length plan.Verify.Partition.boxes > 1)

(* Every leaf's recorded symbolic upper bound must dominate the true
   network output over that leaf (checked at the leaf centre). *)
let test_plan_upper_sound () =
  let net = mini_predictor 7 in
  let b0 = box 6 0.35 in
  let plan =
    Verify.Partition.plan ~policy:(Verify.Partition.Depth 2) ~components:2
      ~threshold:0.0 net b0
  in
  Array.iteri
    (fun i leaf ->
      let out = Nn.Network.forward net (Interval.Box.center leaf) in
      for k = 0 to 1 do
        let v = out.(Nn.Gmm.mu_lat_index ~components:2 k) in
        Alcotest.(check bool)
          (Printf.sprintf "leaf %d component %d bounded" i k)
          true
          (v <= plan.Verify.Partition.upper.(i) +. 1e-9)
      done)
    plan.Verify.Partition.boxes

(* {1 Partitioned driver} *)

let test_split_proves_easy_threshold () =
  let net = mini_predictor 11 in
  let b0 = box 6 0.3 in
  let threshold = exact_max net b0 +. 1.0 in
  List.iter
    (fun split ->
      let r =
        Verify.Driver.prove_lateral_velocity_le ~components:2 ~threshold ~split
          net b0
      in
      let stats = Option.get r.Verify.Driver.partition in
      Alcotest.(check bool) "proved" true
        (r.Verify.Driver.proof = Verify.Driver.Proved);
      Alcotest.(check int) "every leaf settled" 0
        stats.Verify.Partition.unsettled)
    [ Verify.Partition.Auto; Verify.Partition.Depth 2 ]

(* A violated threshold through the partitioned path must surface a
   counterexample that lies inside the PARENT box and replays through
   the real network. *)
let test_split_falsification_witness_in_parent_box () =
  let net = mini_predictor 12 in
  let b0 = box 6 0.3 in
  let threshold = exact_max net b0 -. 0.05 in
  let r =
    Verify.Driver.prove_lateral_velocity_le ~components:2 ~threshold
      ~split:(Verify.Partition.Depth 2) net b0
  in
  match r.Verify.Driver.proof with
  | Verify.Driver.Disproved w ->
      Alcotest.(check bool) "witness inside parent box" true
        (Interval.Box.contains b0 w.Verify.Driver.input);
      Alcotest.(check bool) "witness beats threshold" true
        (w.Verify.Driver.achieved > threshold);
      Alcotest.(check bool) "outputs replay" true
        (Linalg.Vec.approx_equal ~eps:1e-6
           (Nn.Network.forward net w.Verify.Driver.input)
           w.Verify.Driver.outputs)
  | Verify.Driver.Proved -> Alcotest.fail "violated threshold proved"
  | Verify.Driver.Unknown _ -> Alcotest.fail "mini net should settle"

(* Partitioning may never flip a settled verdict against the monolithic
   solve: if both settle, they agree. *)
let prop_split_never_flips =
  QCheck.Test.make ~name:"partitioned verdict agrees with monolithic"
    ~count:8
    (QCheck.make
       QCheck.Gen.(triple (int_range 0 999) (int_range 6 10) (float_range (-0.3) 0.3)))
    (fun (seed, width, dt) ->
      let net =
        small_net seed [ 6; width; Nn.Gmm.output_dim ~components:2 ]
      in
      let b0 = box 6 0.25 in
      let threshold = exact_max net b0 +. dt in
      let settled r =
        match r.Verify.Driver.proof with
        | Verify.Driver.Proved -> Some true
        | Verify.Driver.Disproved _ -> Some false
        | Verify.Driver.Unknown _ -> None
      in
      let mono =
        Verify.Driver.prove_lateral_velocity_le ~components:2 ~threshold net b0
      in
      let part =
        Verify.Driver.prove_lateral_velocity_le ~components:2 ~threshold
          ~split:(Verify.Partition.Depth 1) net b0
      in
      match (settled mono, settled part) with
      | Some a, Some b -> a = b
      | _ -> true)

(* Many leaves under a tiny whole-call budget: the per-leaf slices must
   not starve the call into nonsense — the run returns promptly with an
   honest verdict (every leaf either settled or counted unsettled, and
   an Unknown whenever any leaf is unsettled). *)
let test_many_leaves_tiny_budget_honest () =
  let net = mini_predictor 13 in
  let b0 = box 6 0.3 in
  let threshold = exact_max net b0 +. 0.2 in
  let t0 = Unix.gettimeofday () in
  let r =
    Verify.Driver.prove_lateral_velocity_le ~components:2 ~threshold
      ~time_limit:0.5 ~split:(Verify.Partition.Depth 4) net b0
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  let stats = Option.get r.Verify.Driver.partition in
  Alcotest.(check int) "16 leaves planned" 16 stats.Verify.Partition.leaves;
  Alcotest.(check bool) "returns promptly" true (elapsed < 30.0);
  Alcotest.(check int) "every leaf accounted for" 16
    (stats.Verify.Partition.presolved + stats.Verify.Partition.cached
    + stats.Verify.Partition.revalidated
    + stats.Verify.Partition.solved
    + stats.Verify.Partition.unsettled);
  match r.Verify.Driver.proof with
  | Verify.Driver.Proved ->
      Alcotest.(check int) "proved only with no unsettled leaf" 0
        stats.Verify.Partition.unsettled
  | Verify.Driver.Unknown _ ->
      Alcotest.(check bool) "unknown only with unsettled leaves" true
        (stats.Verify.Partition.unsettled > 0)
  | Verify.Driver.Disproved w ->
      Alcotest.(check bool) "disproof replays" true
        (Interval.Box.contains b0 w.Verify.Driver.input
        && w.Verify.Driver.achieved > threshold)

(* {1 Budget slices} *)

let test_budget_slice () =
  let slice = Verify.Driver.budget_slice in
  Alcotest.(check (float 1e-9)) "equal share"
    2.0
    (slice ~now:0.0 ~deadline:10.0 ~queue_len:5 ());
  Alcotest.(check (float 1e-9)) "floored for long queues"
    0.2
    (slice ~now:0.0 ~deadline:10.0 ~queue_len:100 ());
  Alcotest.(check (float 1e-9)) "floor clamped to remaining"
    0.1
    (slice ~now:0.0 ~deadline:0.1 ~queue_len:100 ());
  Alcotest.(check (float 1e-9)) "no budget left"
    0.0
    (slice ~now:5.0 ~deadline:5.0 ~queue_len:3 ());
  Alcotest.(check (float 1e-9)) "past deadline never negative"
    0.0
    (slice ~now:9.0 ~deadline:5.0 ~queue_len:3 ());
  Alcotest.(check (float 1e-9)) "last query takes the rest"
    7.5
    (slice ~now:2.5 ~deadline:10.0 ~queue_len:1 ())

(* {1 Certificates, store and shard audit} *)

let symbolic = Encoding.Encoder.Symbolic_bounds

(* One certifying partitioned run: every leaf certified, the shard
   manifest audits end to end, the store is populated; a second run of
   the same question answers every leaf from the store; a one-weight
   nudge revalidates (not re-solves) the leaves. *)
let test_shard_pipeline_cache_and_revalidation () =
  with_tmpdir @@ fun dir ->
  let net = mini_predictor 21 in
  let b0 = box 6 0.25 in
  (* Headroom above the whole-box outward symbolic bound, so every leaf
     discharges by presolve and the nudged network can revalidate them
     (a leaf that needed a MILP cannot be revalidated, only re-solved). *)
  let threshold =
    let ub = ref neg_infinity in
    for k = 0 to 1 do
      let output = Nn.Gmm.mu_lat_index ~components:2 k in
      ub :=
        Float.max !ub (Certify.Checker.symbolic_output_upper net b0 ~output)
    done;
    !ub +. 0.5
  in
  let prove ?(net = net) () =
    Verify.Driver.prove_lateral_velocity_le ~components:2 ~threshold
      ~bound_mode:symbolic ~split:(Verify.Partition.Depth 2) ~certify_dir:dir
      net b0
  in
  let r1 = prove () in
  let s1 = Option.get r1.Verify.Driver.partition in
  Alcotest.(check bool) "run 1 proved" true
    (r1.Verify.Driver.proof = Verify.Driver.Proved);
  Alcotest.(check int) "run 1: 4 leaves" 4 s1.Verify.Partition.leaves;
  Alcotest.(check int) "run 1: nothing cached yet" 0
    s1.Verify.Partition.cached;
  (* The shard manifest audits, and to a Proved verdict. *)
  let manifests = Certify.Audit.shard_manifests ~dir in
  Alcotest.(check int) "one manifest" 1 (List.length manifests);
  (match Certify.Audit.run_shard ~net ~dir ~name:(List.hd manifests) with
  | Ok rep ->
      Alcotest.(check bool) "shard audit ok" true rep.Certify.Audit.shard_ok;
      Alcotest.(check bool) "shard verdict proved" true
        (rep.Certify.Audit.shard_verdict = `Proved);
      Alcotest.(check int) "4 audited leaves" 4
        (Array.length rep.Certify.Audit.shard_leaves)
  | Error e -> Alcotest.fail ("shard audit: " ^ e));
  (* The store holds one entry per leaf for this network — and exactly
     once each, however often the question is re-run (the index
     regression: [record] must not duplicate). *)
  let store = Certify.Store.open_ ~dir in
  let net_hash = Nn.Io.content_hash net in
  Alcotest.(check int) "store: one entry per leaf" 4
    (Certify.Store.net_entries store ~net_hash);
  let r2 = prove () in
  let s2 = Option.get r2.Verify.Driver.partition in
  Alcotest.(check bool) "run 2 proved" true
    (r2.Verify.Driver.proof = Verify.Driver.Proved);
  Alcotest.(check int) "run 2: every leaf cached" 4
    s2.Verify.Partition.cached;
  Alcotest.(check int) "run 2: nothing solved" 0 s2.Verify.Partition.solved;
  let store = Certify.Store.open_ ~dir in
  Alcotest.(check int) "store unchanged after rerun" 4
    (Certify.Store.net_entries store ~net_hash);
  (* Nudge one weight: the cache misses (different network), but the
     leaves revalidate from the old entries without any MILP solve. *)
  let nudged = Nn.Network.copy net in
  let w = (Nn.Network.layer nudged 0).Nn.Layer.weights in
  Linalg.Mat.set w 0 0 (Linalg.Mat.get w 0 0 *. 1.0001);
  let r3 = prove ~net:nudged () in
  let s3 = Option.get r3.Verify.Driver.partition in
  Alcotest.(check bool) "nudged run proved" true
    (r3.Verify.Driver.proof = Verify.Driver.Proved);
  Alcotest.(check int) "nudged run: no same-net cache hits" 0
    s3.Verify.Partition.cached;
  Alcotest.(check bool) "majority of leaves revalidated" true
    (s3.Verify.Partition.revalidated >= 3)

(* Tampering with the manifest must be detected (checksum), and a
   missing leaf directory must degrade the audit. *)
let test_shard_audit_rejects_tampering () =
  with_tmpdir @@ fun dir ->
  let net = mini_predictor 22 in
  let b0 = box 6 0.25 in
  let threshold = exact_max net b0 +. 1.0 in
  let r =
    Verify.Driver.prove_lateral_velocity_le ~components:2 ~threshold
      ~bound_mode:symbolic ~split:(Verify.Partition.Depth 1) ~certify_dir:dir
      net b0
  in
  Alcotest.(check bool) "proved" true
    (r.Verify.Driver.proof = Verify.Driver.Proved);
  let name = List.hd (Certify.Audit.shard_manifests ~dir) in
  let path = Filename.concat dir name in
  let ic = open_in_bin path in
  let body = really_input_string ic (in_channel_length ic) in
  close_in ic;
  (* Flip one byte in the middle of the manifest. *)
  let tampered = Bytes.of_string body in
  let i = Bytes.length tampered / 2 in
  Bytes.set tampered i
    (if Bytes.get tampered i = 'x' then 'y' else 'x');
  let oc = open_out_bin path in
  output_bytes oc tampered;
  close_out oc;
  (match Certify.Audit.run_shard ~net ~dir ~name with
  | Ok rep ->
      Alcotest.(check bool) "tampered manifest cannot audit ok" false
        rep.Certify.Audit.shard_ok
  | Error _ -> ());
  (* Restore the manifest, remove one leaf directory: verdict degrades
     to Unknown, ok = false. *)
  let oc = open_out_bin path in
  output_string oc body;
  close_out oc;
  let leaf_dir =
    Filename.concat dir
      (match Certify.Audit.run_shard ~net ~dir ~name with
      | Ok rep -> rep.Certify.Audit.shard_leaves.(0).Certify.Audit.leaf_hash
      | Error e -> Alcotest.fail ("restored manifest: " ^ e))
  in
  Array.iter
    (fun f -> Sys.remove (Filename.concat leaf_dir f))
    (Sys.readdir leaf_dir);
  Unix.rmdir leaf_dir;
  match Certify.Audit.run_shard ~net ~dir ~name with
  | Ok rep ->
      Alcotest.(check bool) "missing leaf: not ok" false
        rep.Certify.Audit.shard_ok;
      Alcotest.(check bool) "missing leaf: verdict degrades" true
        (rep.Certify.Audit.shard_verdict = `Unknown)
  | Error e -> Alcotest.fail ("audit should degrade, not error: " ^ e)

(* The [depnn serve --split] path: a proof store and a split policy
   together, certifying into the store's root as the server does. Asked
   twice, the second call answers every leaf from the store without a
   node of search; the shard audit of the root replays; and the verdict
   is the one the store-less partitioned call gives. *)
let test_split_store () =
  with_tmpdir @@ fun dir ->
  let net = mini_predictor 23 in
  let b0 = box 6 0.25 in
  let threshold = exact_max net b0 +. 0.05 in
  let split = Verify.Partition.Depth 1 in
  let root = Filename.concat dir "store" in
  let store = Certify.Store.open_ ~dir:root in
  let ask () =
    Verify.Driver.prove_lateral_velocity_le ~split ~store ~certify_dir:root
      ~components:2 ~threshold net b0
  in
  let r1 = ask () in
  Alcotest.(check bool) "first call proved" true
    (r1.Verify.Driver.proof = Verify.Driver.Proved);
  let r2 = ask () in
  let s2 = Option.get r2.Verify.Driver.partition in
  Alcotest.(check bool) "second call proved" true
    (r2.Verify.Driver.proof = Verify.Driver.Proved);
  Alcotest.(check int) "every leaf from the store" s2.Verify.Partition.leaves
    s2.Verify.Partition.cached;
  Alcotest.(check int) "no search on the second call" 0
    r2.Verify.Driver.proof_nodes;
  (match Certify.Audit.shard_manifests ~dir:root with
   | [ name ] -> (
       match Certify.Audit.run_shard ~net ~dir:root ~name with
       | Ok rep ->
           Alcotest.(check bool) "shard audit ok" true
             rep.Certify.Audit.shard_ok;
           Alcotest.(check bool) "shard audit proves" true
             (rep.Certify.Audit.shard_verdict = `Proved)
       | Error e -> Alcotest.fail ("shard audit: " ^ e))
   | names ->
       Alcotest.failf "expected one manifest, found %d" (List.length names));
  let plain =
    Verify.Driver.prove_lateral_velocity_le ~split
      ~certify_dir:(Filename.concat dir "plain") ~components:2 ~threshold net b0
  in
  Alcotest.(check bool) "same verdict without a store" true
    (plain.Verify.Driver.proof = r1.Verify.Driver.proof)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run "partition"
    [
      ( "plan",
        [
          quick "depth 0" test_plan_depth0;
          quick "forced depth tiles" test_plan_forced_depth_tiles;
          quick "pinned box" test_plan_pinned_box;
          quick "max leaves cap" test_plan_max_leaves_cap;
          quick "leaf bounds sound" test_plan_upper_sound;
        ] );
      ( "driver",
        [
          slow "proves easy threshold" test_split_proves_easy_threshold;
          slow "falsification witness" test_split_falsification_witness_in_parent_box;
          slow "many leaves, tiny budget" test_many_leaves_tiny_budget_honest;
        ] );
      ("budget", [ quick "budget_slice contract" test_budget_slice ]);
      ( "certify",
        [
          slow "pipeline, cache, revalidation"
            test_shard_pipeline_cache_and_revalidation;
          slow "audit rejects tampering" test_shard_audit_rejects_tampering;
          slow "split + store" test_split_store;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_split_never_flips ] );
    ]
