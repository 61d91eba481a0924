(* Certification layer: content hashes, outward arithmetic, LP dual
   replay for both simplex cores, certificate round trips and
   mutation detection, journal crash-safety, the shared line format
   (golden bytes of certificates, manifests and serve payloads, and
   mutated bytes fed to every loader), and the certifying driver
   end-to-end against the independent audit. *)

let small_net seed dims =
  let rng = Linalg.Rng.create seed in
  Nn.Network.create ~rng dims

let box dim radius = Array.make dim (Interval.make (-.radius) radius)

let mini_predictor seed =
  small_net seed [ 6; 8; 8; Nn.Gmm.output_dim ~components:2 ]

let fresh_dir =
  let n = ref 0 in
  fun prefix ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "depnn_test_%s_%d_%d" prefix (Unix.getpid ()) !n)

(* {1 Content hash} *)

let test_content_hash_stable_and_sensitive () =
  let a = mini_predictor 3 and b = mini_predictor 3 in
  Alcotest.(check string) "same weights, same hash" (Nn.Io.content_hash a)
    (Nn.Io.content_hash b);
  Alcotest.(check int) "16 hex chars" 16 (String.length (Nn.Io.content_hash a));
  let mutated =
    Fault.Model.inject
      (Fault.Model.Weight_bit_flip { layer = 1; row = 2; col = 3; bit = 0 })
      a
  in
  Alcotest.(check bool) "one weight bit flips the hash" true
    (Nn.Io.content_hash a <> Nn.Io.content_hash mutated);
  let bias =
    Fault.Model.inject (Fault.Model.Bias_bit_flip { layer = 0; row = 1; bit = 7 }) a
  in
  Alcotest.(check bool) "one bias bit flips the hash" true
    (Nn.Io.content_hash a <> Nn.Io.content_hash bias)

let test_property_hash_sensitive () =
  let p =
    {
      Certify.Certificate.threshold = 3.0;
      components = 2;
      bound_mode = "symbolic";
      box = [| (-0.5, 0.5); (-0.25, 1.0) |];
    }
  in
  let h = Certify.Certificate.property_hash ~net_hash:"00aa" p in
  Alcotest.(check string) "deterministic" h
    (Certify.Certificate.property_hash ~net_hash:"00aa" p);
  let differs p' =
    h <> Certify.Certificate.property_hash ~net_hash:"00aa" p'
  in
  Alcotest.(check bool) "threshold matters" true
    (differs { p with threshold = 3.0000001 });
  Alcotest.(check bool) "mode matters" true
    (differs { p with bound_mode = "interval" });
  Alcotest.(check bool) "box matters" true
    (differs { p with box = [| (-0.5, 0.5); (-0.25, 1.0000001) |] });
  Alcotest.(check bool) "net matters" true
    (h <> Certify.Certificate.property_hash ~net_hash:"00ab" p)

(* {1 Outward arithmetic} *)

let test_outward_encloses_samples () =
  let rng = Linalg.Rng.create 7 in
  let iv () =
    let a = Linalg.Rng.uniform rng (-3.0) 3.0
    and b = Linalg.Rng.uniform rng (-3.0) 3.0 in
    { Certify.Outward.lo = Float.min a b; hi = Float.max a b }
  in
  let inside (z : Certify.Outward.iv) v = z.lo <= v && v <= z.hi in
  for _ = 1 to 2000 do
    let x = iv () and y = iv () in
    let px = Linalg.Rng.uniform rng x.lo x.hi
    and py = Linalg.Rng.uniform rng y.lo y.hi in
    if not (inside (Certify.Outward.add x y) (px +. py)) then
      Alcotest.fail "add escaped";
    if not (inside (Certify.Outward.mul x y) (px *. py)) then
      Alcotest.fail "mul escaped";
    if not (inside (Certify.Outward.tanh_iv x) (tanh px)) then
      Alcotest.fail "tanh escaped";
    if not (inside (Certify.Outward.relu_iv x) (Float.max 0.0 px)) then
      Alcotest.fail "relu escaped"
  done

let test_outward_sup_extreme_dominates () =
  let rng = Linalg.Rng.create 8 in
  for _ = 1 to 2000 do
    let a = Linalg.Rng.uniform rng (-2.0) 2.0
    and b = Linalg.Rng.uniform rng (-2.0) 2.0 in
    let r = { Certify.Outward.lo = Float.min a b; hi = Float.max a b } in
    let lo = Linalg.Rng.uniform rng (-4.0) 0.0
    and hi = Linalg.Rng.uniform rng 0.0 4.0 in
    let u = Certify.Outward.sup_extreme r ~lo ~hi in
    let pr = Linalg.Rng.uniform rng r.lo r.hi in
    let exact = Float.max (pr *. lo) (pr *. hi) in
    if exact > u then Alcotest.fail "sup_extreme under-approximated"
  done

(* {1 LP certificate replay, both cores} *)

let view_of p =
  {
    Certify.Checker.rows = Lp.Problem.rows p;
    lo = Lp.Problem.var_lo p;
    hi = Lp.Problem.var_hi p;
    obj = Lp.Problem.objective p;
  }

let random_lp seed =
  let rng = Linalg.Rng.create seed in
  let p = Lp.Problem.create () in
  let n = 2 + Linalg.Rng.int rng 4 in
  let vars =
    Array.init n (fun _ ->
        let a = Linalg.Rng.uniform rng (-4.0) 4.0
        and b = Linalg.Rng.uniform rng (-4.0) 4.0 in
        Lp.Problem.add_var p ~lo:(Float.min a b) ~hi:(Float.max a b)
          ~obj:(Linalg.Rng.uniform rng (-2.0) 2.0)
          ())
  in
  let m = 1 + Linalg.Rng.int rng 5 in
  for _ = 1 to m do
    let terms =
      Array.to_list vars
      |> List.filter_map (fun v ->
             if Linalg.Rng.bool rng then
               Some (v, Linalg.Rng.uniform rng (-2.0) 2.0)
             else None)
    in
    let terms = if terms = [] then [ (vars.(0), 1.0) ] else terms in
    let cmp =
      match Linalg.Rng.int rng 3 with
      | 0 -> Lp.Problem.Le
      | 1 -> Lp.Problem.Ge
      | _ -> Lp.Problem.Eq
    in
    (* Right-hand sides drawn wide enough that a fair share of the
       generated programs are infeasible, exercising the Farkas and
       empty-row replays as well as the optimal-dual one. *)
    Lp.Problem.add_constraint p terms cmp (Linalg.Rng.uniform rng (-6.0) 6.0)
  done;
  p

let zero_obj p =
  { (view_of p) with Certify.Checker.obj = Array.make (Lp.Problem.num_vars p) 0.0 }

let replays p s =
  match s.Lp.Simplex.cert with
  | None -> s.Lp.Simplex.status = Lp.Simplex.Iteration_limit
  | Some (Lp.Simplex.Cert_duals y) -> (
      s.Lp.Simplex.status = Lp.Simplex.Optimal
      &&
      match Certify.Checker.dual_upper (view_of p) y with
      | Ok u -> u >= s.Lp.Simplex.objective -. 1e-6
      | Error _ -> false)
  | Some (Lp.Simplex.Cert_farkas y) -> (
      s.Lp.Simplex.status = Lp.Simplex.Infeasible
      &&
      match Certify.Checker.dual_upper (zero_obj p) y with
      | Ok u -> u < 0.0
      | Error _ -> false)
  | Some (Lp.Simplex.Cert_empty_row i) ->
      s.Lp.Simplex.status = Lp.Simplex.Infeasible
      && Certify.Checker.row_certainly_empty (view_of p) i

let cert_replays solve p = replays p (solve p)

(* A branch-and-bound child: re-solve warm from the optimal basis after
   tightening one side of one variable. The warm certificate must replay
   and its status must match the dense cold solve of the child. *)
let warm_cert_replays p (vidx, side, frac) =
  let parent = Lp.Simplex.solve p in
  match (parent.Lp.Simplex.status, parent.Lp.Simplex.basis) with
  | Lp.Simplex.Optimal, Some basis ->
      let v = vidx mod Lp.Problem.num_vars p in
      let lo, hi = Lp.Problem.bounds p v in
      let cut = lo +. (frac *. (hi -. lo)) in
      if side then Lp.Problem.set_bounds p v ~lo ~hi:cut
      else Lp.Problem.set_bounds p v ~lo:cut ~hi;
      let warm = Lp.Simplex.resolve ~basis p in
      replays p warm
      && warm.Lp.Simplex.status = (Lp.Simplex.solve_dense p).Lp.Simplex.status
  | _ -> true

let prop_lp_certs_replay_both_cores =
  QCheck.Test.make ~count:120
    ~name:"sparse and dense LP certificates replay under outward rounding"
    QCheck.(
      make
        Gen.(
          pair (int_range 0 100_000)
            (triple (int_range 0 100) bool (float_range 0.05 0.95))))
    (fun (seed, child) ->
      let p = random_lp seed in
      cert_replays Lp.Simplex.solve_dense (Lp.Problem.copy p)
      && cert_replays (fun p -> Lp.Simplex.solve p) (Lp.Problem.copy p)
      && warm_cert_replays (Lp.Problem.copy p) child)

(* The solver's own Farkas check must never accept a ray the independent
   checker rejects: solver rays, perturbed and rescaled ones, and
   arbitrary vectors alike. Malformed rays are refused outright. *)
let prop_farkas_check_implies_replay =
  QCheck.Test.make ~count:200
    ~name:"solver-side Farkas check accepts only rays the checker accepts"
    QCheck.(make Gen.(pair (int_range 0 100_000) (int_range 0 100_000)))
    (fun (seed, pseed) ->
      let p = random_lp seed in
      let m = Lp.Problem.num_constraints p in
      let rng = Linalg.Rng.create pseed in
      let base =
        match (Lp.Simplex.solve_dense p).Lp.Simplex.cert with
        | Some (Lp.Simplex.Cert_farkas y | Lp.Simplex.Cert_duals y) -> y
        | Some (Lp.Simplex.Cert_empty_row _) | None ->
            Array.init m (fun _ -> Linalg.Rng.uniform rng (-1.0) 1.0)
      in
      let perturbed rel =
        Array.map (fun v -> v *. (1.0 +. Linalg.Rng.uniform rng (-.rel) rel)) base
      in
      let candidates =
        [ base; perturbed 1e-15; perturbed 1e-9; perturbed 1e-3; perturbed 0.5;
          Array.map (fun v -> v *. 1e12) base; Array.map Float.neg base;
          Array.init m (fun _ -> Linalg.Rng.uniform rng (-3.0) 3.0) ]
      in
      let replays_negative y =
        match Certify.Checker.dual_upper (zero_obj p) y with
        | Ok u -> u < 0.0
        | Error _ -> false
      in
      let with_nan = Array.copy base in
      with_nan.(0) <- Float.nan;
      List.for_all
        (fun y -> (not (Lp.Simplex.farkas_certifies p y)) || replays_negative y)
        candidates
      && (not (Lp.Simplex.farkas_certifies p with_nan))
      && (not (Lp.Simplex.farkas_certifies p (Array.append base [| -1.0 |])))
      && not (Lp.Simplex.farkas_certifies p (Array.sub base 0 (m - 1))))

(* {1 Certificate serialisation} *)

let sample_cert net =
  {
    Certify.Certificate.net_hash = Nn.Io.content_hash net;
    property =
      {
        threshold = 1.5;
        components = 2;
        bound_mode = "interval";
        box = Array.map (fun iv -> (iv.Interval.lo, iv.Interval.hi)) (box 6 0.3);
      };
    component = 0;
    output = Nn.Gmm.mu_lat_index ~components:2 0;
    body = Certify.Certificate.Witness { input = Array.make 6 0.1; achieved = 2.0 };
  }

let test_certificate_round_trip () =
  let c = sample_cert (mini_predictor 11) in
  match Certify.Certificate.of_string (Certify.Certificate.to_string c) with
  | Error e -> Alcotest.fail ("round trip failed: " ^ e)
  | Ok c' ->
      Alcotest.(check bool) "round trips bit-exactly" true (c = c')

let test_certificate_mutation_rejected () =
  let s = Certify.Certificate.to_string (sample_cert (mini_predictor 12)) in
  (* Flip one byte in the middle of the payload. *)
  let b = Bytes.of_string s in
  let i = Bytes.length b / 2 in
  Bytes.set b i (if Bytes.get b i = '0' then '1' else '0');
  (match Certify.Certificate.of_string (Bytes.to_string b) with
   | Ok _ -> Alcotest.fail "mutated certificate accepted"
   | Error _ -> ());
  (* Truncation is also detected. *)
  match Certify.Certificate.of_string (String.sub s 0 (String.length s - 10)) with
  | Ok _ -> Alcotest.fail "truncated certificate accepted"
  | Error _ -> ()

let test_wrong_network_rejected () =
  let net = mini_predictor 13 in
  let cert = { (sample_cert net) with Certify.Certificate.net_hash = "feedfacefeedface" } in
  match Certify.Audit.check_certificate net cert with
  | Ok _ -> Alcotest.fail "stale certificate accepted"
  | Error _ -> ()

(* {1 Journal} *)

let entry i =
  {
    Certify.Journal.component = i;
    verdict = "proved";
    cert_file = Some (Printf.sprintf "c%d.cert" i);
    net_hash = "aaaabbbbccccdddd";
    prop_hash = "1111222233334444";
  }

let loaded_components dir =
  List.map (fun e -> e.Certify.Journal.component) (Certify.Journal.load ~dir)

let test_journal_round_trip_and_torn_line () =
  let dir = fresh_dir "journal" in
  Certify.Journal.init dir;
  Certify.Journal.append ~dir (entry 0);
  Certify.Journal.append ~dir (entry 1);
  Alcotest.(check (list int)) "entries in order" [ 0; 1 ] (loaded_components dir);
  (* A torn final line (kill mid-write) fails its checksum and is
     skipped, never trusted. *)
  Certify.Journal.append ~dir (entry 2);
  let path = Filename.concat dir "journal.log" in
  let len = (Unix.stat path).Unix.st_size in
  Unix.truncate path (len - 5);
  Alcotest.(check (list int)) "torn line skipped" [ 0; 1 ] (loaded_components dir);
  (* A later append after the torn line keeps the journal usable. *)
  Certify.Journal.append ~dir (entry 3);
  Alcotest.(check bool) "journal recovers after torn tail" true
    (List.mem 3 (loaded_components dir))

let test_journal_edited_line_skipped () =
  let dir = fresh_dir "journal_edit" in
  Certify.Journal.init dir;
  Certify.Journal.append ~dir (entry 0);
  Certify.Journal.append ~dir (entry 1);
  let path = Filename.concat dir "journal.log" in
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  (* Flip a byte inside the first line's body. *)
  let b = Bytes.of_string s in
  let eol = Bytes.index b '\n' in
  Bytes.set b (eol - 1) 'X';
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc;
  Alcotest.(check (list int)) "edited line rejected" [ 1 ] (loaded_components dir)

(* {1 The line format}

   Golden bytes: the literals below were written by the serialisers
   before they shared one codec ({!Certify.Text}), and every later
   writer must reproduce them, digests included. *)

let golden_property =
  {
    Certify.Certificate.threshold = 1.5;
    components = 2;
    bound_mode = "symbolic";
    box = [| (-0.5, 0.5); (-0.0, 0x1.23456789abcdp-7); (-1e-300, 1e300) |];
  }

let golden_cert body =
  {
    Certify.Certificate.net_hash = "0123456789abcdef";
    property = golden_property;
    component = 1;
    output = 4;
    body;
  }

(* One leaf per evidence kind, plus an empty dual vector. *)
let golden_tree =
  Certify.Certificate.Milp_tree
    {
      model_hash = "fedcba9876543210";
      leaves =
        [|
          { fixes = [||]; evidence = Ev_bounded [| 0.25; -3.0 |] };
          {
            fixes = [| (3, 0.0, 0.0); (5, -1.0, 0.5) |];
            evidence = Ev_infeasible [| 1.0; -0.0; 0.1 |];
          };
          { fixes = [| (3, 1.0, 1.0) |]; evidence = Ev_empty_row 7 };
          {
            fixes = [| (2, 0.0, 1.0) |];
            evidence = Ev_unsupported "node-bound prune";
          };
          { fixes = [| (4, 0.0, 1.0) |]; evidence = Ev_bounded [||] };
        |];
    }

let golden_presolve =
  Certify.Certificate.Presolve
    { coeffs = [| 0.5; -0.25; 0.0 |]; const = 0.125; bound = 1.375 }

let golden_witness =
  Certify.Certificate.Witness { input = [| 0.1; -0.2; 0.3 |]; achieved = 1.75 }

let golden_header =
  "depnn-certificate v1\n\
   net 0123456789abcdef\n\
   component 1\n\
   output 4\n\
   threshold 0x1.8p+0\n\
   components 2\n\
   bound-mode symbolic\n\
   box 3\n\
   -0x1p-1 0x1p-1\n\
   -0x0p+0 0x1.23456789abcdp-7\n\
   -0x1.56e1fc2f8f359p-997 0x1.7e43c8800759cp+996\n"

let golden_certs =
  [
    ( golden_tree,
      golden_header
      ^ "body milp-tree fedcba9876543210 5\n\
         leaf 0 bounded 2\n\
         y 0x1p-2 -0x1.8p+1\n\
         leaf 2 infeasible 3\n\
         fix 3 0x0p+0 0x0p+0\n\
         fix 5 -0x1p+0 0x1p-1\n\
         y 0x1p+0 -0x0p+0 0x1.999999999999ap-4\n\
         leaf 1 empty-row 7\n\
         fix 3 0x1p+0 0x1p+0\n\
         leaf 1 unsupported node-bound prune\n\
         fix 2 0x0p+0 0x1p+0\n\
         leaf 1 bounded 0\n\
         fix 4 0x0p+0 0x1p+0\n\
         y\n\
         checksum e91d380de20dd270\n" );
    ( golden_presolve,
      golden_header
      ^ "body presolve 0x1.6p+0 0x1p-3 3\n\
         c 0x1p-1 -0x1p-2 0x0p+0\n\
         checksum a01af0f0e8663431\n" );
    ( golden_witness,
      golden_header
      ^ "body witness 0x1.cp+0 3\n\
         x 0x1.999999999999ap-4 -0x1.999999999999ap-3 0x1.3333333333333p-2\n\
         checksum 0bbcefab0439af8d\n" );
  ]

let test_golden_certificates () =
  List.iter
    (fun (body, bytes) ->
      let c = golden_cert body in
      Alcotest.(check string) "same bytes" bytes
        (Certify.Certificate.to_string c);
      Alcotest.(check bool) "reads back" true
        (Certify.Certificate.of_string bytes = Ok c))
    golden_certs

let test_golden_digests () =
  Alcotest.(check string) "property hash" "f6c51166354a7d34"
    (Certify.Certificate.property_hash ~net_hash:"0123456789abcdef"
       golden_property);
  Alcotest.(check string) "property key" "d915a92db20dfe59"
    (Certify.Certificate.property_key golden_property)

(* Parent box [-1, 1] x [0, 2], cut at 0 on dimension 0, the upper half
   cut again at 0.5 on dimension 1. *)
let shard_property =
  {
    golden_property with
    Certify.Certificate.box = [| (-1.0, 1.0); (0.0, 2.0) |];
  }

let shard_tiles =
  [|
    [| (-1.0, 0.0); (0.0, 2.0) |];
    [| (0.0, 1.0); (0.0, 0.5) |];
    [| (0.0, 1.0); (0.5, 2.0) |];
  |]

let golden_manifest =
  {
    Certify.Shard.net_hash = "0123456789abcdef";
    property = shard_property;
    tree =
      Split
        {
          dim = 0;
          cut = 0.0;
          below = Tile;
          above = Split { dim = 1; cut = 0.5; below = Tile; above = Tile };
        };
    leaf_hashes =
      Array.map
        (fun box ->
          Certify.Certificate.property_hash ~net_hash:"0123456789abcdef"
            { shard_property with Certify.Certificate.box })
        shard_tiles;
  }

let manifest_payload =
  "depnn-shard v1\n\
   net 0123456789abcdef\n\
   threshold 0x1.8p+0\n\
   components 2\n\
   bound-mode symbolic\n\
   box 2\n\
   -0x1p+0 0x1p+0\n\
   0x0p+0 0x1p+1\n\
   tree 5\n\
   split 0 0x0p+0\n\
   tile 3bdbc966f78e917c\n\
   split 1 0x1p-1\n\
   tile c260e0b6f5eb8911\n\
   tile 7005120c695d8571\n"

let seal payload =
  payload ^ "checksum " ^ Linalg.Chash.of_string payload ^ "\n"

let golden_manifest_bytes = manifest_payload ^ "checksum e93cb8414c2391bb\n"

let test_shard_round_trip () =
  Alcotest.(check string) "same bytes" golden_manifest_bytes
    (Certify.Shard.to_string golden_manifest);
  Alcotest.(check bool) "reads back" true
    (Certify.Shard.of_string golden_manifest_bytes = Ok golden_manifest);
  Alcotest.(check bool) "tiles recomputed" true
    (Certify.Shard.check golden_manifest = Ok shard_tiles)

let rejects what expected bytes =
  match Certify.Shard.of_string bytes with
  | Ok _ -> Alcotest.failf "%s accepted" what
  | Error reason -> Alcotest.(check string) what expected reason

let replace ~sub ~by s =
  Str.global_replace (Str.regexp_string sub) by s

let test_shard_mutations_rejected () =
  let b = Bytes.of_string golden_manifest_bytes in
  let i = Bytes.length b / 2 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
  rejects "one flipped bit"
    "checksum mismatch (manifest mutated or truncated)" (Bytes.to_string b);
  (* Re-sealed: the checksum passes, the structure must not. *)
  rejects "tree larger than declared" "tree larger than declared"
    (seal (replace ~sub:"tree 5" ~by:"tree 3" manifest_payload));
  rejects "tree smaller than declared" "tree smaller than declared"
    (seal (replace ~sub:"tree 5" ~by:"tree 7" manifest_payload));
  rejects "trailing data" "trailing data after tree"
    (seal (manifest_payload ^ "tile 7005120c695d8571\n"));
  rejects "empty tree" "bad tree count 0"
    (seal (replace ~sub:"tree 5" ~by:"tree 0" manifest_payload))

(* A declared count the rest of the input cannot hold is rejected
   before it sizes an array, so a few hundred bytes cannot cost
   megabytes. The first case is 207 bytes declaring ten million leaves
   and holding one. *)
let test_counts_bounded_by_input () =
  let cert box body =
    seal
      ("depnn-certificate v1\nnet 0123456789abcdef\ncomponent 0\noutput 1\n\
        threshold 0x1p+0\ncomponents 1\nbound-mode interval\n" ^ box ^ body)
  in
  let one_box = "box 1\n0x0p+0 0x0p+0\n" in
  let allocated_words () =
    let s = Gc.quick_stat () in
    s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
  in
  List.iter
    (fun (expected, bytes) ->
      let before = allocated_words () in
      let result = Certify.Certificate.of_string bytes in
      let words = allocated_words () -. before in
      (match result with
       | Ok _ -> Alcotest.failf "%s: accepted" expected
       | Error reason -> Alcotest.(check string) expected expected reason);
      if words >= 1e6 then
        Alcotest.failf "%s: %.0f words allocated" expected words)
    [
      ( "bad leaf count 10000000",
        cert one_box "body milp-tree ffff 10000000\nleaf 0 empty-row 0\n" );
      ( "bad fix count 1000000",
        cert one_box
          "body milp-tree ffff 1\nleaf 1000000 empty-row 0\n\
           fix 0 0x0p+0 0x0p+0\n" );
      ( "bad box count 1000000",
        cert "box 1000000\n0x0p+0 0x0p+0\n" "body witness 0x0p+0 0\nx\n" );
    ]

let golden_requests =
  let box_lines =
    "box 3\n\
     -0x1p-1 0x1p-1\n\
     -0x0p+0 0x1.23456789abcdp-7\n\
     -0x1.56e1fc2f8f359p-997 0x1.7e43c8800759cp+996\n"
  in
  [
    ( Serve.Protocol.Verify
        {
          Serve.Protocol.property = golden_property;
          net_hash = Some "0123456789abcdef";
          time_limit = Some 30.0;
          exact_only = false;
        },
      "verify\n\
       net 0123456789abcdef\n\
       threshold 0x1.8p+0\n\
       components 2\n\
       bound-mode symbolic\n\
       time-limit 0x1.ep+4\n" ^ box_lines );
    ( Serve.Protocol.Verify
        {
          Serve.Protocol.property = golden_property;
          net_hash = None;
          time_limit = None;
          exact_only = true;
        },
      "certify\n\
       net -\n\
       threshold 0x1.8p+0\n\
       components 2\n\
       bound-mode symbolic\n\
       time-limit -\n" ^ box_lines );
    ( Serve.Protocol.Predict [| 0.0; -1.5; 0x1.23456789abcdp-7 |],
      "predict\n\
       input 3\n\
       0x0p+0\n\
       -0x1.8p+0\n\
       0x1.23456789abcdp-7\n" );
    (Serve.Protocol.Status, "status\n");
    (Serve.Protocol.Shutdown, "shutdown\n");
  ]

let golden_answer verdict cache =
  Serve.Protocol.Answer
    {
      Serve.Protocol.verdict;
      cache;
      certified = 2;
      prop_hash = "8e56a7733f340ba2";
      cert_dir = "/srv/cache dir/8e56a7733f340ba2";
      solve_s = 0.03125;
    }

let golden_responses =
  let tail cache =
    Printf.sprintf
      "cache %s\n\
       certified 2\n\
       prop 8e56a7733f340ba2\n\
       solve 0x1p-5\n\
       dir /srv/cache dir/8e56a7733f340ba2\n"
      cache
  in
  [
    ( golden_answer Serve.Protocol.V_proved Serve.Protocol.Cache_miss,
      "ok verify\nverdict proved\n" ^ tail "miss" );
    ( golden_answer
        (Serve.Protocol.V_disproved
           { witness = [| 0.1; -0.2 |]; achieved = 1.75 })
        Serve.Protocol.Cache_subsumed,
      "ok verify\n\
       verdict disproved 0x1.cp+0\n\
       witness 2\n\
       0x1.999999999999ap-4\n\
       -0x1.999999999999ap-3\n" ^ tail "subsumed" );
    ( golden_answer
        (Serve.Protocol.V_unknown { best_bound = 3.5 })
        Serve.Protocol.Cache_exact,
      "ok verify\nverdict unknown 0x1.cp+1\n" ^ tail "exact" );
    ( Serve.Protocol.Outputs [| 1.0; 2.0; -3.0 |],
      "ok predict\noutput 3\n0x1p+0\n0x1p+1\n-0x1.8p+1\n" );
    ( Serve.Protocol.Stats
        {
          Serve.Protocol.uptime_s = 12.5;
          workers = 2;
          failed_workers = 1;
          queue_depth = 3;
          queue_capacity = 64;
          queries = 10;
          served_exact = 4;
          served_subsumed = 2;
          solved = 3;
          rejected = 1;
          store_entries = 5;
        },
      "ok status\n\
       uptime 0x1.9p+3\n\
       workers 2\n\
       failed-workers 1\n\
       queue-depth 3\n\
       queue-capacity 64\n\
       queries 10\n\
       served-exact 4\n\
       served-subsumed 2\n\
       solved 3\n\
       rejected 1\n\
       entries 5\n" );
    (Serve.Protocol.Shutting_down, "ok shutdown\n");
    ( Serve.Protocol.Refused "server saturated (queue full)",
      "error server saturated (queue full)\n" );
  ]

let test_golden_payloads () =
  List.iter
    (fun (r, bytes) ->
      Alcotest.(check string) "same request bytes" bytes
        (Serve.Protocol.render_request r);
      Alcotest.(check bool) "request reads back" true
        (Serve.Protocol.parse_request bytes = Ok r))
    golden_requests;
  List.iter
    (fun (r, bytes) ->
      Alcotest.(check string) "same response bytes" bytes
        (Serve.Protocol.render_response r);
      Alcotest.(check bool) "response reads back" true
        (Serve.Protocol.parse_response bytes = Ok r))
    golden_responses

(* {2 Mutated bytes never raise}

   Every loader of untrusted bytes answers a mutated artefact with
   [Error] (or, for the journal, by skipping the line), never with an
   exception. The mutations: a byte set to any value, truncation, an
   inserted byte, up to eight deleted bytes, a duplicated or dropped
   line, and a numeric word swapped for a hostile one. Certificates are
   mutated raw (the checksum rejects almost all of it) and re-sealed
   (so the parser sees the damage); manifests re-sealed. Whatever a
   codec loader accepts must write back to bytes it reads back the
   same. *)

let hostile_numbers = [| "-1"; "nan"; "1e400"; "4611686018427387903" |]

let swap_numeric_word rs s =
  let n = String.length s in
  let sep c = c = ' ' || c = '\n' in
  let rec spans i acc =
    if i >= n then acc
    else if sep s.[i] then spans (i + 1) acc
    else
      let j = ref i in
      while !j < n && not (sep s.[!j]) do incr j done;
      let w = String.sub s i (!j - i) in
      let numeric = float_of_string_opt w <> None in
      spans !j (if numeric then (i, !j - i) :: acc else acc)
  in
  match Array.of_list (spans 0 []) with
  | [||] -> s
  | words ->
      let i, len = words.(Random.State.int rs (Array.length words)) in
      let v = hostile_numbers.(Random.State.int rs 4) in
      String.sub s 0 i ^ v ^ String.sub s (i + len) (n - i - len)

let mutate rs s =
  let n = String.length s in
  let at () = Random.State.int rs (n + 1) in
  let byte () = String.make 1 (Char.chr (Random.State.int rs 256)) in
  let lines () = String.split_on_char '\n' s in
  let pick l = Random.State.int rs (List.length l) in
  match Random.State.int rs 7 with
  | 0 when n > 0 ->
      let i = Random.State.int rs n in
      String.sub s 0 i ^ byte () ^ String.sub s (i + 1) (n - i - 1)
  | 1 -> String.sub s 0 (at ())
  | 2 ->
      let i = at () in
      String.sub s 0 i ^ byte () ^ String.sub s i (n - i)
  | 3 when n > 0 ->
      let i = Random.State.int rs n in
      let k = 1 + Random.State.int rs (min 8 (n - i)) in
      String.sub s 0 i ^ String.sub s (i + k) (n - i - k)
  | 4 ->
      let l = lines () in
      let k = pick l in
      String.concat "\n"
        (List.concat (List.mapi (fun i x -> if i = k then [ x; x ] else [ x ]) l))
  | 5 ->
      let l = lines () in
      let k = pick l in
      String.concat "\n" (List.filteri (fun i _ -> i <> k) l)
  | _ -> swap_numeric_word rs s

(* Mutate what comes before the checksum line, then seal it again. *)
let resealed rs mutate_payload sealed =
  let payload =
    String.sub sealed 0
      (String.rindex_from sealed (String.length sealed - 2) '\n' + 1)
  in
  let p = mutate_payload rs payload in
  seal (if p = "" || p.[String.length p - 1] = '\n' then p else p ^ "\n")

let stable parse render bytes =
  match parse bytes with
  | Error _ -> true
  | Ok v -> (
      let again = render v in
      match parse again with Ok v' -> render v' = again | Error _ -> false)

let prop_loaders_never_raise =
  let journal_dir = fresh_dir "fuzz_journal" in
  let journal_path = Filename.concat journal_dir "journal.log" in
  (* Three entries, appended on first use. *)
  let journal =
    lazy
      (List.iter
         (fun i -> Certify.Journal.append ~dir:journal_dir (entry i))
         [ 0; 1; 2 ];
       In_channel.with_open_bin journal_path In_channel.input_all)
  in
  let nets =
    List.map
      (fun dims -> Nn.Io.to_string (small_net 5 dims))
      [ [ 2; 1 ]; [ 2; 3; 1 ] ]
  in
  let certs = List.map snd golden_certs in
  let requests = List.map snd golden_requests in
  let responses = List.map snd golden_responses in
  let cert = Certify.Certificate.(stable of_string to_string) in
  let manifest = Certify.Shard.(stable of_string to_string) in
  let request = Serve.Protocol.(stable parse_request render_request) in
  let response = Serve.Protocol.(stable parse_response render_response) in
  let load_journal bytes =
    Out_channel.with_open_bin journal_path (fun oc ->
        Out_channel.output_string oc bytes);
    List.length (Certify.Journal.load ~dir:journal_dir)
    <= List.length (String.split_on_char '\n' bytes)
  in
  let load_net bytes =
    match Nn.Io.of_string_result bytes with Ok _ | Error _ -> true
  in
  QCheck.Test.make ~count:2000
    ~name:"loaders answer mutated bytes with Error, never an exception"
    QCheck.(make ~print:string_of_int Gen.(int_bound 1_000_000_000))
    (fun seed ->
      let rs = Random.State.make [| seed |] in
      let pick l = List.nth l (Random.State.int rs (List.length l)) in
      let mutations rs s =
        let s = ref s in
        for _ = 0 to Random.State.int rs 3 do s := mutate rs !s done;
        !s
      in
      let run (name, loader, bytes) =
        match loader bytes with
        | true -> true
        | false ->
            QCheck.Test.fail_reportf "%s: accepted %S but does not read back"
              name bytes
        | exception e ->
            QCheck.Test.fail_reportf "%s raised %s on %S" name
              (Printexc.to_string e) bytes
      in
      List.for_all run
        [
          ("certificate (raw)", cert, mutations rs (pick certs));
          ("certificate (re-sealed)", cert, resealed rs mutations (pick certs));
          ("manifest (re-sealed)", manifest,
           resealed rs mutations golden_manifest_bytes);
          ("request", request, mutations rs (pick requests));
          ("response", response, mutations rs (pick responses));
          ("journal", load_journal, mutations rs (Lazy.force journal));
          ("network", load_net, mutations rs (pick nets));
        ])

(* {1 Certifying driver + independent audit, end-to-end} *)

let exact_max net b0 =
  Option.get
    (Verify.Driver.max_lateral_velocity ~components:2 net b0).Verify.Driver.value

let prove ?certify_dir ~threshold net b0 =
  Verify.Driver.prove_lateral_velocity_le ?certify_dir ~components:2
    ~threshold net b0

let test_certified_proof_audits () =
  let net = mini_predictor 61 in
  let b0 = box 6 0.3 in
  let v = exact_max net b0 in
  let dir = fresh_dir "proof" in
  let p = prove ~certify_dir:dir ~threshold:(v +. 0.5) net b0 in
  Alcotest.(check bool) "proved" true (p.Verify.Driver.proof = Verify.Driver.Proved);
  Alcotest.(check int) "both components certified" 2 p.Verify.Driver.certified;
  let rep = Certify.Audit.run ~net ~dir in
  Alcotest.(check bool) "audit confirms" true
    (rep.Certify.Audit.verdict = `Proved && rep.Certify.Audit.ok);
  (* The audit must reject the same directory replayed against a
     different network. *)
  let other = Certify.Audit.run ~net:(mini_predictor 62) ~dir in
  Alcotest.(check bool) "wrong network rejected" true (not other.Certify.Audit.ok)

let test_mutated_certificate_fails_audit () =
  let net = mini_predictor 63 in
  let b0 = box 6 0.3 in
  let v = exact_max net b0 in
  let dir = fresh_dir "mutate" in
  let p = prove ~certify_dir:dir ~threshold:(v +. 0.5) net b0 in
  Alcotest.(check bool) "proved" true (p.Verify.Driver.proof = Verify.Driver.Proved);
  let cert_file =
    Sys.readdir dir |> Array.to_list
    |> List.find (fun f -> Filename.check_suffix f ".cert")
  in
  let path = Filename.concat dir cert_file in
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let b = Bytes.of_string s in
  let i = Bytes.length b / 2 in
  Bytes.set b i (if Bytes.get b i = '0' then '1' else '0');
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc;
  let rep = Certify.Audit.run ~net ~dir in
  Alcotest.(check bool) "mutated certificate rejected" true
    (not rep.Certify.Audit.ok);
  Alcotest.(check bool) "verdict withdrawn" true
    (rep.Certify.Audit.verdict <> `Proved)

let test_disproof_witness_audits () =
  let net = mini_predictor 64 in
  let b0 = box 6 0.3 in
  let v = exact_max net b0 in
  let dir = fresh_dir "witness" in
  let p = prove ~certify_dir:dir ~threshold:(v -. 0.2) net b0 in
  (match p.Verify.Driver.proof with
   | Verify.Driver.Disproved w ->
       Alcotest.(check bool) "witness beats threshold" true
         (w.Verify.Driver.achieved > v -. 0.2)
   | _ -> Alcotest.fail "expected a falsification");
  let rep = Certify.Audit.run ~net ~dir in
  Alcotest.(check bool) "audit confirms the witness" true
    (rep.Certify.Audit.verdict = `Disproved && rep.Certify.Audit.ok)

let journal_lines dir =
  let path = Filename.concat dir "journal.log" in
  let ic = open_in_bin path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  let lines = go [] in
  close_in ic;
  lines

let test_resume_after_kill () =
  let net = mini_predictor 65 in
  let b0 = box 6 0.3 in
  let v = exact_max net b0 in
  let threshold = v +. 0.5 in
  let dir = fresh_dir "resume" in
  let p1 = prove ~certify_dir:dir ~threshold net b0 in
  Alcotest.(check bool) "initial run proved" true
    (p1.Verify.Driver.proof = Verify.Driver.Proved);
  (* Simulate a kill right after the first component was journaled:
     drop every journal line but the first. The certificates stay on
     disk — only the journal decides what is settled. *)
  let first = List.hd (journal_lines dir) in
  let oc = open_out_bin (Filename.concat dir "journal.log") in
  output_string oc (first ^ "\n");
  close_out oc;
  (* A run in a directory that already holds journal lines resumes from
     them: nothing asks it to. *)
  let p2 = prove ~certify_dir:dir ~threshold net b0 in
  Alcotest.(check bool) "resumed run proved" true
    (p2.Verify.Driver.proof = Verify.Driver.Proved);
  Alcotest.(check int) "one component resumed, not re-proved" 1
    p2.Verify.Driver.resumed;
  let rep = Certify.Audit.run ~net ~dir in
  Alcotest.(check bool) "audit confirms after resume" true
    (rep.Certify.Audit.verdict = `Proved && rep.Certify.Audit.ok);
  (* A third run resumes everything and does no solving at all. *)
  let p3 = prove ~certify_dir:dir ~threshold net b0 in
  Alcotest.(check int) "everything resumed" 2 p3.Verify.Driver.resumed;
  Alcotest.(check int) "no nodes searched" 0 p3.Verify.Driver.proof_nodes;
  Alcotest.(check bool) "verdict preserved" true
    (p3.Verify.Driver.proof = Verify.Driver.Proved);
  (* Asking a different question must not reuse the journal. *)
  let p4 = prove ~certify_dir:dir ~threshold:(v +. 0.7) net b0 in
  Alcotest.(check int) "different threshold resumes nothing" 0
    p4.Verify.Driver.resumed

(* Every question names its certificates [component-K.cert], so a
   second question asked in the same directory overwrites the first
   one's files while the first one's journal lines stay. A resume of the
   first question must not trust those lines: their certificates now
   speak about another property. Whatever the resumed run answers, the
   audit of the directory must give the same verdict, cleanly. *)
let test_resume_ignores_overwritten_certificates () =
  List.iter
    (fun seed ->
      let net = mini_predictor seed in
      let b0 = box 6 0.3 in
      let v = exact_max net b0 in
      let dir = fresh_dir (Printf.sprintf "overwritten_%d" seed) in
      let p1 = prove ~certify_dir:dir ~threshold:(v +. 0.5) net b0 in
      Alcotest.(check bool) "first question proved" true
        (p1.Verify.Driver.proof = Verify.Driver.Proved);
      let p2 = prove ~certify_dir:dir ~threshold:(v -. 0.2) net b0 in
      (match p2.Verify.Driver.proof with
       | Verify.Driver.Disproved _ -> ()
       | _ -> Alcotest.fail "second question should be disproved");
      let p3 =
        prove ~certify_dir:dir ~threshold:(v +. 0.5) net b0
      in
      let claimed =
        match p3.Verify.Driver.proof with
        | Verify.Driver.Proved -> `Proved
        | Verify.Driver.Disproved _ -> `Disproved
        | Verify.Driver.Unknown _ -> `Unknown
      in
      let rep = Certify.Audit.run ~net ~dir in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: audit gives the resumed verdict" seed)
        true
        (rep.Certify.Audit.verdict = claimed && rep.Certify.Audit.ok))
    [ 61; 64; 65 ]

(* {1 Cross-mode agreement}

   Six ways to ask the same decision query: plain, certified (on one
   core and on two), partitioned, partitioned and certified, and
   plain without OBBT.
   Thresholds sit just above or just below the exact maximum, where a
   wrong prune or a lost leaf would flip the answer. Any two modes that
   settle must agree, every disproof must replay through the network,
   and every certified settled verdict must survive the independent
   audit of its directory. With more than one worker the leaf order in
   a tree certificate varies between runs; the audit must not care. *)
let prop_decision_modes_agree =
  QCheck.Test.make ~count:20
    ~name:"decision modes agree; certified verdicts audit"
    QCheck.(
      make
        Gen.(
          quad (int_range 0 9_999) (int_range 5 9) (float_range 0.005 0.1)
            (pair bool bool)))
    (fun (seed, width, delta, (above, symbolic)) ->
      let net = small_net seed [ 6; width; Nn.Gmm.output_dim ~components:2 ] in
      let b0 = box 6 0.25 in
      let threshold = exact_max net b0 +. if above then delta else -.delta in
      let bound_mode =
        if symbolic then Encoding.Encoder.Symbolic_bounds
        else Encoding.Encoder.Interval_bounds
      in
      let split = Verify.Partition.Depth 1 in
      let cert_dir = fresh_dir "modes_cert" in
      let cores_dir = fresh_dir "modes_cert_cores" in
      let shard_dir = fresh_dir "modes_shard" in
      let decide ?certify_dir ?split ?cores () =
        (Verify.Driver.prove_lateral_velocity_le ~bound_mode ?certify_dir
           ?split ?cores ~components:2 ~threshold net b0)
          .Verify.Driver.proof
      in
      let settled = function
        | Verify.Driver.Proved -> Some `Proved
        | Verify.Driver.Disproved w ->
            if
              not
                (Interval.Box.contains b0 w.Verify.Driver.input
                && w.Verify.Driver.achieved > threshold)
            then QCheck.Test.fail_report "disproof does not replay";
            Some `Disproved
        | Verify.Driver.Unknown _ -> None
      in
      let certified = settled (decide ~certify_dir:cert_dir ()) in
      let certified_cores =
        settled (decide ~cores:2 ~certify_dir:cores_dir ())
      in
      let sharded = settled (decide ~split ~certify_dir:shard_dir ()) in
      let verdicts =
        [
          settled (decide ());
          certified;
          certified_cores;
          settled (decide ~split ());
          sharded;
          settled
            (Verify.Driver.prove_lateral_velocity_le ~bound_mode
               ~tighten_rounds:0 ~components:2 ~threshold net b0)
              .Verify.Driver.proof;
        ]
      in
      let agree =
        match List.filter_map Fun.id verdicts with
        | [] -> true
        | v :: rest -> List.for_all (( = ) v) rest
      in
      let audits dir = function
        | None -> true
        | Some v ->
            let rep = Certify.Audit.run ~net ~dir in
            rep.Certify.Audit.ok && rep.Certify.Audit.verdict = v
      in
      let audit_ok =
        audits cert_dir certified && audits cores_dir certified_cores
      in
      let shard_ok =
        match (sharded, Certify.Audit.shard_manifests ~dir:shard_dir) with
        | None, _ -> true
        | Some v, [ name ] -> (
            match Certify.Audit.run_shard ~net ~dir:shard_dir ~name with
            | Ok rep ->
                rep.Certify.Audit.shard_ok
                && rep.Certify.Audit.shard_verdict = v
            | Error _ -> false)
        | Some _, _ -> false
      in
      agree && audit_ok && shard_ok)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run "certify"
    [
      ( "hash",
        [
          quick "content hash" test_content_hash_stable_and_sensitive;
          quick "property hash" test_property_hash_sensitive;
        ] );
      ( "outward",
        [
          quick "encloses samples" test_outward_encloses_samples;
          quick "sup_extreme dominates" test_outward_sup_extreme_dominates;
        ] );
      ( "certificate",
        [
          quick "round trip" test_certificate_round_trip;
          quick "mutation rejected" test_certificate_mutation_rejected;
          quick "wrong network rejected" test_wrong_network_rejected;
        ] );
      ( "journal",
        [
          quick "round trip + torn line" test_journal_round_trip_and_torn_line;
          quick "edited line skipped" test_journal_edited_line_skipped;
        ] );
      ( "line format",
        [
          quick "golden certificates" test_golden_certificates;
          quick "golden digests" test_golden_digests;
          quick "shard round trip" test_shard_round_trip;
          quick "shard mutations rejected" test_shard_mutations_rejected;
          quick "counts bounded by the input" test_counts_bounded_by_input;
          quick "golden payloads" test_golden_payloads;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 22 |])
            prop_loaders_never_raise;
        ] );
      ( "end-to-end",
        [
          slow "certified proof audits" test_certified_proof_audits;
          slow "mutated certificate fails" test_mutated_certificate_fails_audit;
          slow "disproof witness audits" test_disproof_witness_audits;
          slow "kill + resume" test_resume_after_kill;
          slow "resume ignores overwritten certificates"
            test_resume_ignores_overwritten_certificates;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_lp_certs_replay_both_cores;
            prop_farkas_check_implies_replay;
            prop_decision_modes_agree;
          ] );
    ]
