(* The certification server: wire-protocol robustness (round trips,
   malformed and truncated frames), the content-addressed proof store
   (exact hits, subsumption both ways, must-miss cases, restart
   recovery), and the daemon end to end — cache semantics over a real
   socket, worker crash + respawn, kill-mid-campaign resume, and
   concurrent clients checked against the sequential oracle. *)

let small_net seed dims =
  let rng = Linalg.Rng.create seed in
  Nn.Network.create ~rng dims

let mini_predictor seed =
  small_net seed [ 6; 8; 8; Nn.Gmm.output_dim ~components:2 ]

let fresh_dir =
  let n = ref 0 in
  fun prefix ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "depnn_serve_%s_%d_%d" prefix (Unix.getpid ()) !n)

let ibox dim radius = Array.make dim (Interval.make (-.radius) radius)

let interval_mode = Certify.Checker.mode_string Encoding.Encoder.Interval_bounds

let prop ?(threshold = 1.0) ?(radius = 0.3) ?(mode = interval_mode) () =
  {
    Certify.Certificate.threshold;
    components = 2;
    bound_mode = mode;
    box = Array.init 6 (fun _ -> (-.radius, radius));
  }

let query ?(exact_only = false) ?net_hash ?(time_limit = 30.0) p =
  {
    Serve.Protocol.property = p;
    net_hash;
    time_limit = Some time_limit;
    exact_only;
  }

let exact_max net b0 =
  Option.get
    (Verify.Driver.max_lateral_velocity ~components:2 net b0).Verify.Driver.value

(* {1 Protocol framing} *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let write_raw fd s =
  let b = Bytes.of_string s in
  ignore (Unix.write fd b 0 (Bytes.length b))

let test_frame_round_trip () =
  let payloads =
    [
      "x";
      "hello frame";
      String.concat "\n" [ "line"; "oriented"; "payload with \000 byte" ];
      String.make 100_000 'q';
    ]
  in
  List.iter
    (fun payload ->
      with_socketpair (fun a b ->
          Serve.Protocol.write_frame a payload;
          match Serve.Protocol.read_frame b with
          | Ok got -> Alcotest.(check string) "round trip" payload got
          | Error e -> Alcotest.fail e))
    payloads

let test_frame_oversized_write_rejected () =
  with_socketpair (fun a _ ->
      match
        Serve.Protocol.write_frame a
          (String.make (Serve.Protocol.max_frame + 1) 'x')
      with
      | () -> Alcotest.fail "oversized payload accepted"
      | exception Invalid_argument _ -> ())

let test_frame_malformed_rejected () =
  let reject name bytes =
    with_socketpair (fun a b ->
        write_raw a bytes;
        Unix.shutdown a Unix.SHUTDOWN_SEND;
        match Serve.Protocol.read_frame b with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail (name ^ " accepted"))
  in
  reject "bad magic" "nnped1 5 0000000000000000\nhello";
  reject "zero length" "depnn1 0 0000000000000000\n";
  reject "oversized length"
    (Printf.sprintf "depnn1 %d 0000000000000000\nhello"
       (Serve.Protocol.max_frame + 1));
  reject "non-numeric length" "depnn1 five 0000000000000000\nhello";
  reject "bad checksum" "depnn1 5 0000000000000000\nhello";
  reject "truncated payload"
    (Printf.sprintf "depnn1 50 %s\nshort" (Linalg.Chash.of_string "short"));
  reject "immediate close" "";
  reject "endless header" (String.make 300 'h')

let test_frame_deadline_enforced () =
  (* Plumbing: an expired deadline rejects before reading; the frame is
     still in the buffer, so a live deadline then reads it fine. *)
  with_socketpair (fun a b ->
      Serve.Protocol.write_frame a "payload";
      (match
         Serve.Protocol.read_frame ~deadline:(Linalg.Mclock.now () -. 1.0) b
       with
       | Error _ -> ()
       | Ok _ -> Alcotest.fail "expired deadline accepted a frame");
      match
        Serve.Protocol.read_frame ~deadline:(Linalg.Mclock.now () +. 5.0) b
      with
      | Ok got -> Alcotest.(check string) "live deadline reads" "payload" got
      | Error e -> Alcotest.fail e);
  (* A slow-loris peer dribbling one byte per read is cut off at the
     deadline — each byte resets a per-read socket timeout but not the
     per-connection clock. *)
  with_socketpair (fun a b ->
      let writer =
        Domain.spawn (fun () ->
            try
              for _ = 1 to 10 do
                write_raw a "h";
                Unix.sleepf 0.05
              done
            with Unix.Unix_error _ -> ())
      in
      let started = Linalg.Mclock.now () in
      (match
         Serve.Protocol.read_frame ~deadline:(started +. 0.15) b
       with
       | Error _ -> ()
       | Ok _ -> Alcotest.fail "dribbled bytes parsed as a frame");
      Alcotest.(check bool) "cut off near the deadline" true
        (Linalg.Mclock.now () -. started < 0.45);
      Domain.join writer)

let test_client_bad_host_errors () =
  match
    Serve.Client.call ~timeout:1.0
      (Serve.Protocol.Tcp ("no-such-host.depnn.invalid", 1))
      Serve.Protocol.Status
  with
  | Error reason ->
      Alcotest.(check bool) "resolution failure is explicit" true
        (String.length reason > 0)
  | Ok _ -> Alcotest.fail "typo'd host reached a server"

(* {1 Protocol grammar} *)

let request_eq (a : Serve.Protocol.request) (b : Serve.Protocol.request) =
  a = b

let response_eq (a : Serve.Protocol.response) (b : Serve.Protocol.response) =
  a = b

let test_request_round_trip () =
  let cases =
    [
      Serve.Protocol.Status;
      Serve.Protocol.Shutdown;
      Serve.Protocol.Predict [| 0.0; -1.5; 0x1.23456789abcdp-7; 1e300 |];
      Serve.Protocol.Verify (query (prop ()));
      Serve.Protocol.Verify
        (query ~exact_only:true ~net_hash:"00aa11bb22cc33dd"
           (prop ~threshold:(-2.75) ~radius:0.125 ~mode:"symbolic" ()));
      Serve.Protocol.Verify
        {
          Serve.Protocol.property = prop ();
          net_hash = None;
          time_limit = None;
          exact_only = false;
        };
    ]
  in
  List.iter
    (fun r ->
      match Serve.Protocol.parse_request (Serve.Protocol.render_request r) with
      | Ok got ->
          Alcotest.(check bool) "request round trip" true (request_eq r got)
      | Error e -> Alcotest.fail e)
    cases

let test_response_round_trip () =
  let answer verdict cache =
    Serve.Protocol.Answer
      {
        Serve.Protocol.verdict;
        cache;
        certified = 2;
        prop_hash = "8e56a7733f340ba2";
        cert_dir = "/tmp/cache dir with spaces/8e56a7733f340ba2";
        solve_s = 0.03125;
      }
  in
  let cases =
    [
      answer Serve.Protocol.V_proved Serve.Protocol.Cache_miss;
      answer
        (Serve.Protocol.V_disproved
           { witness = [| 0.1; -0.2; 0.0; 1.0; -1.0; 0.25 |]; achieved = 1.75 })
        Serve.Protocol.Cache_subsumed;
      answer
        (Serve.Protocol.V_unknown { best_bound = 3.5 })
        Serve.Protocol.Cache_exact;
      Serve.Protocol.Outputs [| 1.0; 2.0; -3.0 |];
      Serve.Protocol.Stats
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
        };
      Serve.Protocol.Shutting_down;
      Serve.Protocol.Refused "server saturated (queue full)";
    ]
  in
  List.iter
    (fun r ->
      match Serve.Protocol.parse_response (Serve.Protocol.render_response r) with
      | Ok got ->
          Alcotest.(check bool) "response round trip" true (response_eq r got)
      | Error e -> Alcotest.fail e)
    cases

let test_garbage_requests_rejected () =
  let reject name payload =
    match Serve.Protocol.parse_request payload with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (name ^ " accepted")
  in
  reject "empty" "";
  reject "unknown op" "launch\n";
  reject "verify without body" "verify\n";
  reject "non-hex threshold"
    "verify\nnet -\nthreshold elephant\ncomponents 2\nbound-mode \
     interval\ntime-limit -\nbox 1\n0x0p+0 0x1p+0\n";
  reject "box count mismatch"
    "verify\nnet -\nthreshold 0x1p+0\ncomponents 2\nbound-mode \
     interval\ntime-limit -\nbox 3\n0x0p+0 0x1p+0\n";
  reject "absurd dimension"
    "verify\nnet -\nthreshold 0x1p+0\ncomponents 2\nbound-mode \
     interval\ntime-limit -\nbox 200000\n";
  reject "predict without count" "predict\n0x0p+0\n"

(* {1 Proof store} *)

let prove_into_store store net ~net_hash ~threshold p =
  let prop_hash = Certify.Certificate.property_hash ~net_hash p in
  let dir = Certify.Store.entry_dir store ~prop_hash in
  let r =
    Verify.Driver.prove_lateral_velocity_le ~time_limit:60.0
      ~certify_dir:dir ~components:2 ~threshold net
      (Array.map (fun (lo, hi) -> Interval.make lo hi)
         p.Certify.Certificate.box)
  in
  (r, Certify.Store.record store ~net_hash p)

let test_store_exact_subsumed_miss () =
  let net = mini_predictor 81 in
  let net_hash = Nn.Io.content_hash net in
  let v = exact_max net (ibox 6 0.3) in
  let store = Certify.Store.open_ ~dir:(fresh_dir "store") in
  let p = prop ~threshold:(v +. 0.5) () in
  let r, entry = prove_into_store store net ~net_hash ~threshold:(v +. 0.5) p in
  Alcotest.(check bool) "proved" true (r.Verify.Driver.proof = Verify.Driver.Proved);
  Alcotest.(check bool) "recorded" true (entry <> None);
  Alcotest.(check int) "one entry" 1 (Certify.Store.size store);
  (* Exact hit. *)
  (match Certify.Store.lookup store ~net_hash p with
   | Some { exact = true; entry } ->
       Alcotest.(check bool) "proved entry" true
         (entry.Certify.Store.verdict = Certify.Store.Proved)
   | _ -> Alcotest.fail "expected exact hit");
  (* Subsumed: contained box, no-tighter threshold. *)
  (match
     Certify.Store.lookup store ~net_hash
       (prop ~threshold:(v +. 1.0) ~radius:0.2 ())
   with
   | Some { exact = false; _ } -> ()
   | _ -> Alcotest.fail "expected subsumed hit");
  (* Must miss: tighter threshold than anything proved. *)
  Alcotest.(check bool) "tighter threshold misses" true
    (Certify.Store.lookup store ~net_hash
       (prop ~threshold:(v +. 0.1) ~radius:0.2 ())
     = None);
  (* Must miss: larger box than anything proved. *)
  Alcotest.(check bool) "larger box misses" true
    (Certify.Store.lookup store ~net_hash
       (prop ~threshold:(v +. 1.0) ~radius:0.4 ())
     = None);
  (* Must miss: same question under a different bound mode. *)
  Alcotest.(check bool) "different bound mode misses" true
    (Certify.Store.lookup store ~net_hash
       (prop ~threshold:(v +. 0.5) ~mode:"symbolic" ())
     = None);
  (* Must miss: perturbed weights change the network hash. *)
  let mutated =
    Fault.Model.inject
      (Fault.Model.Weight_bit_flip { layer = 1; row = 2; col = 3; bit = 0 })
      net
  in
  Alcotest.(check bool) "perturbed network misses" true
    (Certify.Store.lookup store ~net_hash:(Nn.Io.content_hash mutated) p
     = None);
  (* exact_only suppresses the subsumption fallback. *)
  Alcotest.(check bool) "exact_only misses on subsumable" true
    (Certify.Store.lookup ~exact_only:true store ~net_hash
       (prop ~threshold:(v +. 1.0) ~radius:0.2 ())
     = None);
  (* A reopened store recovers the entry from disk alone. *)
  let store2 = Certify.Store.open_ ~dir:(Certify.Store.root store) in
  Alcotest.(check int) "recovered after reopen" 1 (Certify.Store.size store2);
  match Certify.Store.lookup store2 ~net_hash p with
  | Some { exact = true; entry } ->
      let rep = Certify.Audit.run ~net ~dir:entry.Certify.Store.dir in
      Alcotest.(check bool) "recovered entry audits" true
        (rep.Certify.Audit.ok && rep.Certify.Audit.verdict = `Proved)
  | _ -> Alcotest.fail "expected exact hit after reopen"

let test_store_disproof_subsumption () =
  let net = mini_predictor 82 in
  let net_hash = Nn.Io.content_hash net in
  let v = exact_max net (ibox 6 0.3) in
  let store = Certify.Store.open_ ~dir:(fresh_dir "store_dis") in
  let p = prop ~threshold:(v -. 0.2) () in
  let r, entry = prove_into_store store net ~net_hash ~threshold:(v -. 0.2) p in
  let achieved =
    match r.Verify.Driver.proof with
    | Verify.Driver.Disproved w -> w.Verify.Driver.achieved
    | _ -> Alcotest.fail "expected a falsification"
  in
  Alcotest.(check bool) "recorded" true (entry <> None);
  (* The witness refutes any containing box at any beatable threshold. *)
  (match
     Certify.Store.lookup store ~net_hash
       (prop ~threshold:(v -. 0.3) ~radius:0.4 ())
   with
   | Some { exact = false; entry } ->
       Alcotest.(check bool) "disproved entry" true
         (match entry.Certify.Store.verdict with
          | Certify.Store.Disproved _ -> true
          | _ -> false)
   | _ -> Alcotest.fail "expected subsumed disproof");
  (* Must miss: threshold the witness does not beat. *)
  Alcotest.(check bool) "unbeatable threshold misses" true
    (Certify.Store.lookup store ~net_hash
       (prop ~threshold:(achieved +. 0.1) ~radius:0.4 ())
     = None)

let test_store_never_caches_unknown () =
  let net = mini_predictor 83 in
  let net_hash = Nn.Io.content_hash net in
  let store = Certify.Store.open_ ~dir:(fresh_dir "store_unk") in
  let p = prop ~threshold:0.0 () in
  let prop_hash = Certify.Certificate.property_hash ~net_hash p in
  (* A hopeless budget forces an honest Unknown. *)
  let r =
    Verify.Driver.prove_lateral_velocity_le ~time_limit:1e-9
      ~certify_dir:(Certify.Store.entry_dir store ~prop_hash) ~components:2
      ~threshold:0.0 net
      (Array.map (fun (lo, hi) -> Interval.make lo hi)
         p.Certify.Certificate.box)
  in
  (match r.Verify.Driver.proof with
   | Verify.Driver.Unknown _ -> ()
   | _ -> Alcotest.fail "expected Unknown under a hopeless budget");
  Alcotest.(check bool) "unknown not recorded" true
    (Certify.Store.record store ~net_hash p = None);
  Alcotest.(check int) "store stays empty" 0 (Certify.Store.size store)

(* {1 The daemon end to end} *)

let with_server ?(workers = 2) ?worker_hook ?root ?split net f =
  let dir = match root with Some d -> d | None -> fresh_dir "daemon" in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let sock = Filename.concat dir "sock" in
  let address = Serve.Protocol.Unix_socket sock in
  let config =
    {
      (Serve.Server.default_config ~address ~cache_dir:(Filename.concat dir "cache") ()) with
      Serve.Server.workers;
      split;
      stats_interval = 0.0;
      log = ignore;
    }
  in
  let d =
    Domain.spawn (fun () -> Serve.Server.run ?worker_hook config net)
  in
  Fun.protect
    ~finally:(fun () ->
      ignore (Serve.Client.call address Serve.Protocol.Shutdown);
      Domain.join d)
    (fun () ->
      match Serve.Client.wait_ready address with
      | Ok _ -> f address
      | Error e -> Alcotest.fail e)

let call_ok address request =
  match Serve.Client.call address request with
  | Ok r -> r
  | Error e -> Alcotest.fail e

let verify_answer address ?exact_only ?net_hash p =
  match call_ok address (Serve.Protocol.Verify (query ?exact_only ?net_hash p)) with
  | Serve.Protocol.Answer a -> a
  | Serve.Protocol.Refused r -> Alcotest.fail ("refused: " ^ r)
  | _ -> Alcotest.fail "unexpected response"

let check_cache what expected (a : Serve.Protocol.answer) =
  Alcotest.(check string) what
    (Serve.Protocol.cache_string expected)
    (Serve.Protocol.cache_string a.Serve.Protocol.cache)

let test_server_cache_flow () =
  let net = mini_predictor 90 in
  let v = exact_max net (ibox 6 0.3) in
  with_server net (fun address ->
      let p = prop ~threshold:(v +. 0.5) () in
      (* Cold: solved, certified, auditable. *)
      let a1 = verify_answer address p in
      check_cache "first query misses" Serve.Protocol.Cache_miss a1;
      Alcotest.(check bool) "proved" true
        (a1.Serve.Protocol.verdict = Serve.Protocol.V_proved);
      Alcotest.(check bool) "certified" true (a1.Serve.Protocol.certified > 0);
      let rep = Certify.Audit.run ~net ~dir:a1.Serve.Protocol.cert_dir in
      Alcotest.(check bool) "cache-backing certificates audit" true
        (rep.Certify.Audit.ok && rep.Certify.Audit.verdict = `Proved);
      (* Warm: exact hit, same verdict, same backing directory. *)
      let a2 = verify_answer address p in
      check_cache "repeat hits exactly" Serve.Protocol.Cache_exact a2;
      Alcotest.(check string) "same backing dir" a1.Serve.Protocol.cert_dir
        a2.Serve.Protocol.cert_dir;
      (* Contained box at a looser threshold: subsumed. *)
      let a3 = verify_answer address (prop ~threshold:(v +. 1.0) ~radius:0.2 ()) in
      check_cache "contained box subsumed" Serve.Protocol.Cache_subsumed a3;
      Alcotest.(check bool) "subsumed verdict proved" true
        (a3.Serve.Protocol.verdict = Serve.Protocol.V_proved);
      (* certify op: exact key only, so the same question misses. *)
      let a4 =
        verify_answer address ~exact_only:true
          (prop ~threshold:(v +. 1.0) ~radius:0.2 ())
      in
      check_cache "exact-only re-proves" Serve.Protocol.Cache_miss a4;
      Alcotest.(check bool) "distinct certificates" true
        (a4.Serve.Protocol.cert_dir <> a1.Serve.Protocol.cert_dir);
      (* Pinned hash mismatch is refused. *)
      (match
         Serve.Client.call address
           (Serve.Protocol.Verify (query ~net_hash:"deadbeefdeadbeef" p))
       with
       | Ok (Serve.Protocol.Refused _) -> ()
       | _ -> Alcotest.fail "hash mismatch not refused");
      (* A non-finite or negative budget is refused before it can poison
         the solver's deadline (NaN survives [Float.min] with the cap
         and would disarm the timeout check forever). *)
      List.iter
        (fun time_limit ->
          match
            Serve.Client.call address
              (Serve.Protocol.Verify (query ~time_limit p))
          with
          | Ok (Serve.Protocol.Refused _) -> ()
          | _ -> Alcotest.fail "bad time limit not refused")
        [ Float.nan; Float.infinity; Float.neg_infinity; -1.0 ];
      (* predict matches the in-process forward pass. *)
      let x = Array.init 6 (fun i -> 0.01 *. float_of_int i) in
      (match call_ok address (Serve.Protocol.Predict x) with
       | Serve.Protocol.Outputs out ->
           Alcotest.(check (array (float 0.0))) "forward pass served"
             (Nn.Network.forward net x) out
       | _ -> Alcotest.fail "expected outputs");
      (match Serve.Client.call address (Serve.Protocol.Predict [| 1.0 |]) with
       | Ok (Serve.Protocol.Refused _) -> ()
       | _ -> Alcotest.fail "wrong predict dim not refused");
      (* A well-formed question in a bound mode the verifier does not
         have is refused at the door; no worker sees it. *)
      (match
         Serve.Client.call address
           (Serve.Protocol.Verify (query (prop ~mode:"coarse 0x1p-7" ())))
       with
       | Ok (Serve.Protocol.Refused reason) ->
           Alcotest.(check bool)
             (Printf.sprintf "refused as an unknown bound mode (%s)" reason)
             true
             (String.starts_with ~prefix:"unknown bound mode" reason)
       | _ -> Alcotest.fail "unknown bound mode not refused");
      (* A garbage frame gets a clean error and the server lives on. *)
      let sock =
        match address with Serve.Protocol.Unix_socket s -> s | _ -> assert false
      in
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX sock);
      let garbage = Bytes.of_string "not a frame at all\n" in
      ignore (Unix.write fd garbage 0 (Bytes.length garbage));
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      (match Serve.Protocol.read_frame fd with
       | Ok payload -> (
           match Serve.Protocol.parse_response payload with
           | Ok (Serve.Protocol.Refused _) -> ()
           | _ -> Alcotest.fail "garbage not refused")
       | Error e -> Alcotest.fail ("no error frame for garbage: " ^ e));
      Unix.close fd;
      match call_ok address Serve.Protocol.Status with
      | Serve.Protocol.Stats s ->
          Alcotest.(check int) "exact hits counted" 1
            s.Serve.Protocol.served_exact;
          Alcotest.(check int) "subsumed hits counted" 1
            s.Serve.Protocol.served_subsumed;
          Alcotest.(check int) "solves counted" 2 s.Serve.Protocol.solved;
          Alcotest.(check int) "settled questions cached" 2
            s.Serve.Protocol.store_entries;
          Alcotest.(check bool) "garbage counted as rejected" true
            (s.Serve.Protocol.rejected >= 1);
          Alcotest.(check int) "no worker died" 0
            s.Serve.Protocol.failed_workers
      | _ -> Alcotest.fail "expected stats")

let test_server_worker_crash_respawn () =
  let net = mini_predictor 91 in
  let v = exact_max net (ibox 6 0.3) in
  let crashes = Atomic.make 1 in
  let hook _ = if Atomic.fetch_and_add crashes (-1) > 0 then failwith "boom" in
  with_server ~workers:1 ~worker_hook:hook net (fun address ->
      let p = prop ~threshold:(v +. 0.5) () in
      (* The poisoned job kills the worker — after the client got a
         clean protocol error, not a hang. *)
      (match Serve.Client.call address (Serve.Protocol.Verify (query p)) with
       | Ok (Serve.Protocol.Refused reason) ->
           Alcotest.(check bool) "internal error reported" true
             (String.length reason > 0)
       | _ -> Alcotest.fail "expected a refusal from the crashed worker");
      (* The accept loop respawns the worker; the same question then
         solves normally. *)
      let deadline = Unix.gettimeofday () +. 10.0 in
      let rec await_respawn () =
        match call_ok address Serve.Protocol.Status with
        | Serve.Protocol.Stats s
          when s.Serve.Protocol.failed_workers >= 1 ->
            ()
        | _ when Unix.gettimeofday () > deadline ->
            Alcotest.fail "worker death never surfaced in stats"
        | _ ->
            Unix.sleepf 0.05;
            await_respawn ()
      in
      await_respawn ();
      let a = verify_answer address p in
      check_cache "respawned worker solves" Serve.Protocol.Cache_miss a;
      Alcotest.(check bool) "proved after respawn" true
        (a.Serve.Protocol.verdict = Serve.Protocol.V_proved))

let journal_first_line dir =
  let path = Filename.concat dir "journal.log" in
  let ic = open_in_bin path in
  let line = input_line ic in
  close_in ic;
  line

let test_server_kill_restart_recover () =
  let net = mini_predictor 92 in
  let v = exact_max net (ibox 6 0.3) in
  let root = fresh_dir "restart" in
  let p = prop ~threshold:(v +. 0.5) () in
  let dir = ref "" in
  with_server ~root net (fun address ->
      let a = verify_answer address p in
      check_cache "cold miss" Serve.Protocol.Cache_miss a;
      dir := a.Serve.Protocol.cert_dir);
  (* Simulate a kill after the first component was journaled: drop all
     but the first journal line, exactly as an interrupted campaign
     would leave the directory. *)
  let first = journal_first_line !dir in
  let oc = open_out_bin (Filename.concat !dir "journal.log") in
  output_string oc (first ^ "\n");
  close_out oc;
  with_server ~root net (fun address ->
      (* The torn directory no longer settles the question... *)
      (match call_ok address Serve.Protocol.Status with
       | Serve.Protocol.Stats s ->
           Alcotest.(check int) "torn entry not recovered" 0
             s.Serve.Protocol.store_entries
       | _ -> Alcotest.fail "expected stats");
      (* ...so the query misses, resumes the journal, and re-settles. *)
      let a = verify_answer address p in
      check_cache "re-proved after the kill" Serve.Protocol.Cache_miss a;
      Alcotest.(check bool) "proved" true
        (a.Serve.Protocol.verdict = Serve.Protocol.V_proved);
      let a2 = verify_answer address p in
      check_cache "cached again" Serve.Protocol.Cache_exact a2;
      let rep = Certify.Audit.run ~net ~dir:a2.Serve.Protocol.cert_dir in
      Alcotest.(check bool) "recovered certificates audit" true
        (rep.Certify.Audit.ok && rep.Certify.Audit.verdict = `Proved))

let test_server_duplicate_misses_solve_once () =
  let net = mini_predictor 94 in
  let v = exact_max net (ibox 6 0.3) in
  (* Slow the workers so both clients' identical query is in the pool
     simultaneously: without the in-flight registry the two workers
     would solve concurrently into the same certificate directory. *)
  let hook _ = Unix.sleepf 0.2 in
  with_server ~workers:2 ~worker_hook:hook net (fun address ->
      let p = prop ~threshold:(v +. 0.5) () in
      let answers =
        Array.map Domain.join
          (Array.init 2 (fun _ ->
               Domain.spawn (fun () -> verify_answer address p)))
      in
      Array.iter
        (fun a ->
          Alcotest.(check bool) "both clients get the proof" true
            (a.Serve.Protocol.verdict = Serve.Protocol.V_proved))
        answers;
      (match call_ok address Serve.Protocol.Status with
       | Serve.Protocol.Stats s ->
           Alcotest.(check int) "solved exactly once" 1 s.Serve.Protocol.solved;
           Alcotest.(check int) "one cache entry" 1
             s.Serve.Protocol.store_entries
       | _ -> Alcotest.fail "expected stats");
      let a = verify_answer address p in
      let rep = Certify.Audit.run ~net ~dir:a.Serve.Protocol.cert_dir in
      Alcotest.(check bool) "shared directory audits clean" true
        (rep.Certify.Audit.ok && rep.Certify.Audit.verdict = `Proved))

(* [depnn serve --split]: each answer matches the partitioned driver's
   verdict and names the directory holding the question's shard
   manifest, so the shard audit replays it — the second time from leaves
   the first answer left in the store. *)
let test_server_split_answer_audits () =
  let net = mini_predictor 95 in
  let b0 = ibox 6 0.3 in
  let threshold = exact_max net b0 +. 0.05 in
  let split = Verify.Partition.Depth 1 in
  let expected =
    match
      (Verify.Driver.prove_lateral_velocity_le ~split ~components:2 ~threshold
         net b0)
        .Verify.Driver.proof
    with
    | Verify.Driver.Proved -> Serve.Protocol.V_proved
    | _ -> Alcotest.fail "expected the partitioned driver to prove it"
  in
  with_server ~split net (fun address ->
      List.iter
        (fun ask ->
          let a = verify_answer address (prop ~threshold ()) in
          Alcotest.(check bool) (ask ^ ": driver's verdict") true
            (a.Serve.Protocol.verdict = expected);
          let name =
            Certify.Shard.manifest_name ~prop_hash:a.Serve.Protocol.prop_hash
          in
          match
            Certify.Audit.run_shard ~net ~dir:a.Serve.Protocol.cert_dir ~name
          with
          | Ok rep ->
              Alcotest.(check bool) (ask ^ ": shard audit proves") true
                (rep.Certify.Audit.shard_ok
                && rep.Certify.Audit.shard_verdict = `Proved)
          | Error e -> Alcotest.failf "%s: shard audit: %s" ask e)
        [ "first"; "second" ])

(* Concurrent clients: any interleaving of queries must produce exactly
   the verdicts the sequential driver produces — the cache and the
   worker pool may change latency, never answers. *)
let prop_concurrent_matches_sequential =
  QCheck.Test.make ~count:3 ~name:"concurrent clients match sequential oracle"
    QCheck.(make Gen.(int_range 0 10_000))
    (fun case_seed ->
      let net = mini_predictor 93 in
      let v = exact_max net (ibox 6 0.3) in
      let rng = Linalg.Rng.create case_seed in
      let thresholds =
        Array.init 4 (fun _ ->
            let sign = if Linalg.Rng.bool rng then 1.0 else -1.0 in
            v +. (sign *. Linalg.Rng.uniform rng 0.05 0.5))
      in
      (* One duplicate exercises the dogpile path: two clients racing
         on the same key. *)
      thresholds.(3) <- thresholds.(0);
      let oracle =
        Array.map
          (fun threshold ->
            (Verify.Driver.prove_lateral_velocity_le ~time_limit:60.0
               ~tighten_rounds:0 ~components:2 ~threshold net (ibox 6 0.3))
              .Verify.Driver.proof)
          thresholds
      in
      let answers = Array.make (Array.length thresholds) None in
      with_server net (fun address ->
          Array.iteri
            (fun i d -> answers.(i) <- Some (Domain.join d))
            (Array.map
               (fun threshold ->
                 Domain.spawn (fun () ->
                     verify_answer address (prop ~threshold ())))
               thresholds));
      Array.for_all2
        (fun answer expected ->
          match (answer, expected) with
          | Some a, Verify.Driver.Proved ->
              a.Serve.Protocol.verdict = Serve.Protocol.V_proved
          | Some a, Verify.Driver.Disproved _ -> (
              match a.Serve.Protocol.verdict with
              | Serve.Protocol.V_disproved _ -> true
              | _ -> false)
          | Some a, Verify.Driver.Unknown _ -> (
              match a.Serve.Protocol.verdict with
              | Serve.Protocol.V_unknown _ -> true
              | _ -> false)
          | None, _ -> false)
        answers oracle)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          quick "frame round trip" test_frame_round_trip;
          quick "oversized write rejected" test_frame_oversized_write_rejected;
          quick "malformed frames rejected" test_frame_malformed_rejected;
          quick "read deadline enforced" test_frame_deadline_enforced;
          quick "bad host errors" test_client_bad_host_errors;
          quick "request round trip" test_request_round_trip;
          quick "response round trip" test_response_round_trip;
          quick "garbage requests rejected" test_garbage_requests_rejected;
        ] );
      ( "store",
        [
          slow "exact + subsumed + must-miss" test_store_exact_subsumed_miss;
          slow "disproof subsumption" test_store_disproof_subsumption;
          slow "unknown never cached" test_store_never_caches_unknown;
        ] );
      ( "daemon",
        [
          slow "cache flow over the socket" test_server_cache_flow;
          slow "duplicate misses solve once" test_server_duplicate_misses_solve_once;
          slow "worker crash + respawn" test_server_worker_crash_respawn;
          slow "kill + restart + recover" test_server_kill_restart_recover;
          slow "split answer audits" test_server_split_answer_audits;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_concurrent_matches_sequential ] );
    ]
