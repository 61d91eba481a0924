(* Certification layer: content hashes, outward arithmetic, LP dual
   replay for both simplex cores, certificate round trips and
   mutation detection, journal crash-safety, and the certifying driver
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

let cert_replays core p = replays p (Lp.Simplex.solve ~core p)

(* A branch-and-bound child: re-solve warm from the optimal basis after
   tightening one side of one variable. The warm certificate must replay
   and its status must match the dense cold solve of the child. *)
let warm_cert_replays core p (vidx, side, frac) =
  let parent = Lp.Simplex.solve ~core p in
  match (parent.Lp.Simplex.status, parent.Lp.Simplex.basis) with
  | Lp.Simplex.Optimal, Some basis ->
      let v = vidx mod Lp.Problem.num_vars p in
      let lo, hi = Lp.Problem.bounds p v in
      let cut = lo +. (frac *. (hi -. lo)) in
      if side then Lp.Problem.set_bounds p v ~lo ~hi:cut
      else Lp.Problem.set_bounds p v ~lo:cut ~hi;
      let warm = Lp.Simplex.resolve ~core ~basis p in
      replays p warm
      && warm.Lp.Simplex.status
         = (Lp.Simplex.solve ~core:Lp.Simplex.Dense p).Lp.Simplex.status
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
      List.for_all
        (fun core ->
          cert_replays core (Lp.Problem.copy p)
          && warm_cert_replays core (Lp.Problem.copy p) child)
        [ Lp.Simplex.Dense; Lp.Simplex.Sparse ])

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
        match (Lp.Simplex.solve ~core:Lp.Simplex.Dense p).Lp.Simplex.cert with
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

(* {1 Certifying driver + independent audit, end-to-end} *)

let exact_max net b0 =
  Option.get
    (Verify.Driver.max_lateral_velocity ~components:2 net b0).Verify.Driver.value

let prove ?certify_dir ?(resume = false) ?(watchdog = false) ~threshold net b0 =
  Verify.Driver.prove_lateral_velocity_le ?certify_dir ~resume ~watchdog
    ~components:2 ~threshold net b0

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
  let p2 = prove ~certify_dir:dir ~resume:true ~threshold net b0 in
  Alcotest.(check bool) "resumed run proved" true
    (p2.Verify.Driver.proof = Verify.Driver.Proved);
  Alcotest.(check int) "one component resumed, not re-proved" 1
    p2.Verify.Driver.resumed;
  let rep = Certify.Audit.run ~net ~dir in
  Alcotest.(check bool) "audit confirms after resume" true
    (rep.Certify.Audit.verdict = `Proved && rep.Certify.Audit.ok);
  (* A third run resumes everything and does no solving at all. *)
  let p3 = prove ~certify_dir:dir ~resume:true ~threshold net b0 in
  Alcotest.(check int) "everything resumed" 2 p3.Verify.Driver.resumed;
  Alcotest.(check int) "no nodes searched" 0 p3.Verify.Driver.proof_nodes;
  Alcotest.(check bool) "verdict preserved" true
    (p3.Verify.Driver.proof = Verify.Driver.Proved);
  (* Asking a different question must not reuse the journal. *)
  let p4 = prove ~certify_dir:dir ~resume:true ~threshold:(v +. 0.7) net b0 in
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
        prove ~certify_dir:dir ~resume:true ~threshold:(v +. 0.5) net b0
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

let test_watchdog_same_verdict () =
  let net = mini_predictor 66 in
  let b0 = box 6 0.3 in
  let v = exact_max net b0 in
  let p = prove ~watchdog:true ~threshold:(v +. 0.5) net b0 in
  Alcotest.(check bool) "watchdog proves" true
    (p.Verify.Driver.proof = Verify.Driver.Proved);
  let dir = fresh_dir "watchdog" in
  let pc = prove ~certify_dir:dir ~watchdog:true ~threshold:(v +. 0.5) net b0 in
  Alcotest.(check bool) "certified watchdog proves" true
    (pc.Verify.Driver.proof = Verify.Driver.Proved);
  let rep = Certify.Audit.run ~net ~dir in
  Alcotest.(check bool) "audit confirms" true rep.Certify.Audit.ok

(* {1 Cross-mode agreement}

   Eight ways to ask the same decision query: plain, watchdogged,
   certified (on one core, on two, and on a 1:1 portfolio),
   partitioned, partitioned and certified, and through a session.
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
      let portfolio_dir = fresh_dir "modes_cert_portfolio" in
      let shard_dir = fresh_dir "modes_shard" in
      let decide ?watchdog ?certify_dir ?split ?cores ?portfolio () =
        (Verify.Driver.prove_lateral_velocity_le ~bound_mode ?watchdog
           ?certify_dir ?split ?cores ?portfolio ~components:2 ~threshold net
           b0)
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
      let certified_portfolio =
        settled (decide ~portfolio:(1, 1) ~certify_dir:portfolio_dir ())
      in
      let sharded = settled (decide ~split ~certify_dir:shard_dir ()) in
      let verdicts =
        [
          settled (decide ());
          settled (decide ~watchdog:true ());
          certified;
          certified_cores;
          certified_portfolio;
          settled (decide ~split ());
          sharded;
          settled
            (Verify.Driver.prove_in_session
               (Verify.Driver.create_session net)
               ~bound_mode ~components:2 ~threshold b0)
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
        audits cert_dir certified
        && audits cores_dir certified_cores
        && audits portfolio_dir certified_portfolio
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
      ( "end-to-end",
        [
          slow "certified proof audits" test_certified_proof_audits;
          slow "mutated certificate fails" test_mutated_certificate_fails_audit;
          slow "disproof witness audits" test_disproof_witness_audits;
          slow "kill + resume" test_resume_after_kill;
          slow "resume ignores overwritten certificates"
            test_resume_ignores_overwritten_certificates;
          slow "watchdog verdict" test_watchdog_same_verdict;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_lp_certs_replay_both_cores;
            prop_farkas_check_implies_replay;
            prop_decision_modes_agree;
          ] );
    ]
