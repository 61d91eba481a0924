let outcome_name = function
  | Milp.Solver.Optimal -> "optimal"
  | Milp.Solver.Infeasible -> "infeasible"
  | Milp.Solver.Time_limit -> "time_limit"
  | Milp.Solver.Node_limit -> "node_limit"

let check_outcome expected r =
  Alcotest.(check string) "outcome" (outcome_name expected)
    (outcome_name r.Milp.Solver.outcome)

let incumbent_value r =
  match r.Milp.Solver.incumbent with
  | Some (_, v) -> v
  | None -> Alcotest.fail "expected an incumbent"

(* Small knapsack with known optimum. *)
let test_knapsack_known () =
  let m = Milp.Model.create () in
  let values = [| 10.0; 13.0; 7.0; 8.0 |] and weights = [| 5.0; 6.0; 3.0; 4.0 |] in
  let xs = Array.map (fun _ -> Milp.Model.add_binary m ()) values in
  Milp.Model.add_le m (Array.to_list (Array.mapi (fun i x -> (x, weights.(i))) xs)) 10.0;
  Milp.Model.set_objective m
    (Array.to_list (Array.mapi (fun i x -> (x, values.(i))) xs));
  let r = Milp.Solver.solve m in
  check_outcome Milp.Solver.Optimal r;
  (* best: items 1+4 (13+8=21, weight 10) *)
  Alcotest.(check (float 1e-6)) "optimum" 21.0 (incumbent_value r)

let test_integrality_of_incumbent () =
  let m = Milp.Model.create () in
  let x = Milp.Model.add_binary m () in
  let y = Milp.Model.add_continuous m ~lo:0.0 ~hi:1.0 () in
  Milp.Model.add_le m [ (x, 1.0); (y, 1.0) ] 1.5;
  Milp.Model.set_objective m [ (x, 1.0); (y, 1.0) ] ;
  let r = Milp.Solver.solve m in
  check_outcome Milp.Solver.Optimal r;
  (match r.Milp.Solver.incumbent with
   | Some (point, _) ->
       let frac = Float.abs (point.(x) -. Float.round point.(x)) in
       Alcotest.(check bool) "binary integral" true (frac < 1e-6)
   | None -> Alcotest.fail "no incumbent");
  Alcotest.(check (float 1e-6)) "optimum" 1.5 (incumbent_value r)

let test_integer_variable () =
  (* max x st 2x <= 7, x integer in [0, 10] -> x = 3 *)
  let m = Milp.Model.create () in
  let x = Milp.Model.add_integer m ~lo:0 ~hi:10 () in
  Milp.Model.add_le m [ (x, 2.0) ] 7.0;
  Milp.Model.set_objective m [ (x, 1.0) ];
  let r = Milp.Solver.solve m in
  Alcotest.(check (float 1e-6)) "optimum" 3.0 (incumbent_value r)

let test_infeasible_milp () =
  let m = Milp.Model.create () in
  let x = Milp.Model.add_binary m () in
  Milp.Model.add_ge m [ (x, 1.0) ] 0.4;
  Milp.Model.add_le m [ (x, 1.0) ] 0.6;
  Milp.Model.set_objective m [ (x, 1.0) ];
  (* LP relaxation feasible (x in [0.4, 0.6]) but no integral point. *)
  check_outcome Milp.Solver.Infeasible (Milp.Solver.solve m)

let test_cutoff_prunes_all () =
  (* With a cutoff above the optimum, solver certifies max <= cutoff by
     finishing without an incumbent. *)
  let m = Milp.Model.create () in
  let x = Milp.Model.add_binary m () in
  Milp.Model.set_objective m [ (x, 5.0) ];
  let r = Milp.Solver.solve ~cutoff:6.0 m in
  check_outcome Milp.Solver.Optimal r;
  Alcotest.(check bool) "no incumbent" true (r.Milp.Solver.incumbent = None);
  Alcotest.(check bool) "bound = cutoff" true (r.Milp.Solver.best_bound <= 6.0 +. 1e-9)

let test_cutoff_finds_violation () =
  let m = Milp.Model.create () in
  let x = Milp.Model.add_binary m () in
  Milp.Model.set_objective m [ (x, 5.0) ];
  let r = Milp.Solver.solve ~cutoff:3.0 m in
  check_outcome Milp.Solver.Optimal r;
  Alcotest.(check (float 1e-6)) "found violating point" 5.0 (incumbent_value r)

let test_node_limit () =
  let m = Milp.Model.create () in
  let xs = List.init 12 (fun _ -> Milp.Model.add_binary m ()) in
  Milp.Model.add_le m (List.map (fun x -> (x, 1.0)) xs) 6.5;
  Milp.Model.set_objective m (List.mapi (fun i x -> (x, 1.0 +. (0.01 *. float_of_int i))) xs);
  let r = Milp.Solver.solve ~node_limit:1 m in
  Alcotest.(check bool) "stopped early" true
    (r.Milp.Solver.outcome = Milp.Solver.Node_limit
     || r.Milp.Solver.outcome = Milp.Solver.Optimal)

let test_depth_first_same_optimum () =
  let m = Milp.Model.create () in
  let values = [| 4.0; 5.0; 3.0; 7.0; 2.0 |] and weights = [| 2.0; 3.0; 1.0; 4.0; 1.0 |] in
  let xs = Array.map (fun _ -> Milp.Model.add_binary m ()) values in
  Milp.Model.add_le m (Array.to_list (Array.mapi (fun i x -> (x, weights.(i))) xs)) 6.0;
  Milp.Model.set_objective m (Array.to_list (Array.mapi (fun i x -> (x, values.(i))) xs));
  let best = Milp.Solver.solve m in
  let dfs = Milp.Solver.solve ~portfolio:(1, 0) m in
  Alcotest.(check (float 1e-6)) "same optimum" (incumbent_value best)
    (incumbent_value dfs)

let test_branch_rules_same_optimum () =
  let m = Milp.Model.create () in
  let xs = List.init 6 (fun _ -> Milp.Model.add_binary m ()) in
  Milp.Model.add_le m (List.map (fun x -> (x, 1.0)) xs) 3.2;
  Milp.Model.set_objective m (List.mapi (fun i x -> (x, float_of_int (i + 1))) xs);
  let a = Milp.Solver.solve m in
  let b =
    Milp.Solver.solve ~branch_rule:(Milp.Solver.Priority (fun v -> v)) m
  in
  Alcotest.(check (float 1e-6)) "priority rule" (incumbent_value a) (incumbent_value b)

let test_primal_heuristic_adopted () =
  let m = Milp.Model.create () in
  let x = Milp.Model.add_binary m () in
  Milp.Model.set_objective m [ (x, 1.0) ];
  let calls = ref 0 in
  let heuristic _relax =
    incr calls;
    let point = Array.make (Milp.Model.num_vars m) 0.0 in
    point.(x) <- 1.0;
    Some (point, 1.0)
  in
  let r = Milp.Solver.solve ~primal_heuristic:heuristic m in
  Alcotest.(check bool) "heuristic called" true (!calls > 0);
  Alcotest.(check (float 1e-9)) "optimum via heuristic" 1.0 (incumbent_value r)

(* The reference knapsack from [test_knapsack_known]: optimum 21. *)
let knapsack_model () =
  let m = Milp.Model.create () in
  let values = [| 10.0; 13.0; 7.0; 8.0 |]
  and weights = [| 5.0; 6.0; 3.0; 4.0 |] in
  let xs = Array.map (fun _ -> Milp.Model.add_binary m ()) values in
  Milp.Model.add_le m
    (Array.to_list (Array.mapi (fun i x -> (x, weights.(i))) xs))
    10.0;
  Milp.Model.set_objective m
    (Array.to_list (Array.mapi (fun i x -> (x, values.(i))) xs));
  m

let test_node_bound_sound_cap_same_answer () =
  (* Any sound analysis cap must leave outcome and optimum unchanged —
     a loose one (sum of all values) and the tightest possible one
     (the optimum itself). *)
  let plain = Milp.Solver.solve (knapsack_model ()) in
  let loose =
    Milp.Solver.solve ~node_bound:(fun _ -> Some 38.0) (knapsack_model ())
  in
  let tight =
    Milp.Solver.solve ~node_bound:(fun _ -> Some 21.0) (knapsack_model ())
  in
  List.iter
    (fun r ->
      check_outcome Milp.Solver.Optimal r;
      Alcotest.(check (float 1e-6)) "optimum" 21.0 (incumbent_value r))
    [ plain; loose; tight ];
  Alcotest.(check bool) "tight cap explores no more nodes" true
    (tight.Milp.Solver.nodes <= plain.Milp.Solver.nodes)

let test_node_bound_sees_fixes () =
  (* The callback receives the node's accumulated branching fixes. *)
  let deepest = ref 0 in
  let r =
    Milp.Solver.solve
      ~node_bound:(fun fixes ->
        deepest := max !deepest (List.length fixes);
        None)
      (knapsack_model ())
  in
  check_outcome Milp.Solver.Optimal r;
  Alcotest.(check bool) "branching fixes were visible" true (!deepest > 0)

let test_node_bound_empty_subtree_prunes () =
  (* Declaring every subtree empty collapses the search at the root. *)
  let r =
    Milp.Solver.solve ~node_bound:(fun _ -> Some neg_infinity)
      (knapsack_model ())
  in
  check_outcome Milp.Solver.Infeasible r;
  Alcotest.(check int) "only the root was touched" 1 r.Milp.Solver.nodes;
  Alcotest.(check int) "no LP was solved" 0 r.Milp.Solver.lp_iterations

let test_parallel_node_bound_same_answer () =
  List.iter
    (fun cores ->
      let r =
        Milp.Solver.solve ~cores ~node_bound:(fun _ -> Some 38.0)
          (knapsack_model ())
      in
      check_outcome Milp.Solver.Optimal r;
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "optimum on %d cores" cores)
        21.0 (incumbent_value r))
    [ 1; 2; 4 ]

let test_model_bookkeeping () =
  let m = Milp.Model.create () in
  let a = Milp.Model.add_binary m ~name:"a" () in
  let b = Milp.Model.add_continuous m ~lo:0.0 ~hi:2.0 () in
  let c = Milp.Model.add_integer m ~lo:(-1) ~hi:4 () in
  Alcotest.(check int) "num vars" 3 (Milp.Model.num_vars m);
  Alcotest.(check int) "num ints" 2 (Milp.Model.num_integer_vars m);
  Alcotest.(check bool) "a integer" true (Milp.Model.is_integer m a);
  Alcotest.(check bool) "b continuous" false (Milp.Model.is_integer m b);
  Alcotest.(check (list int)) "insertion order" [ a; c ] (Milp.Model.integer_vars m);
  Alcotest.(check string) "name" "a" (Milp.Model.var_name m a);
  let lo, hi = Milp.Model.bounds m c in
  Alcotest.(check (float 0.0)) "int lo" (-1.0) lo;
  Alcotest.(check (float 0.0)) "int hi" 4.0 hi

let test_parallel_knapsack () =
  let m = Milp.Model.create () in
  let values = [| 10.0; 13.0; 7.0; 8.0 |] and weights = [| 5.0; 6.0; 3.0; 4.0 |] in
  let xs = Array.map (fun _ -> Milp.Model.add_binary m ()) values in
  Milp.Model.add_le m (Array.to_list (Array.mapi (fun i x -> (x, weights.(i))) xs)) 10.0;
  Milp.Model.set_objective m
    (Array.to_list (Array.mapi (fun i x -> (x, values.(i))) xs));
  List.iter
    (fun cores ->
      let r = Milp.Solver.solve ~cores m in
      check_outcome Milp.Solver.Optimal r;
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "optimum on %d cores" cores)
        21.0 (incumbent_value r))
    [ 1; 2; 4 ]

let test_parallel_cutoff_prunes () =
  (* Decision-query mode must hold in parallel too: a cutoff above the
     optimum certifies max <= cutoff with no incumbent. *)
  let m = Milp.Model.create () in
  let x = Milp.Model.add_binary m () in
  Milp.Model.set_objective m [ (x, 5.0) ];
  let r = Milp.Solver.solve ~cores:4 ~cutoff:6.0 m in
  check_outcome Milp.Solver.Optimal r;
  Alcotest.(check bool) "no incumbent" true (r.Milp.Solver.incumbent = None);
  Alcotest.(check bool) "bound <= cutoff" true
    (r.Milp.Solver.best_bound <= 6.0 +. 1e-9)

let test_parallel_infeasible () =
  let m = Milp.Model.create () in
  let x = Milp.Model.add_binary m () in
  Milp.Model.add_ge m [ (x, 1.0) ] 0.4;
  Milp.Model.add_le m [ (x, 1.0) ] 0.6;
  Milp.Model.set_objective m [ (x, 1.0) ];
  check_outcome Milp.Solver.Infeasible (Milp.Solver.solve ~cores:3 m)

let test_open_bound_stack_matches_heap () =
  (* Stopping at the node limit, the depth-first stack must report the
     same global open bound as the best-first heap (incremental
     max-stack vs O(1) heap peek). *)
  let m = Milp.Model.create () in
  let xs = List.init 8 (fun _ -> Milp.Model.add_binary m ()) in
  Milp.Model.add_le m (List.map (fun x -> (x, 1.0)) xs) 3.7;
  Milp.Model.set_objective m
    (List.mapi (fun i x -> (x, 1.0 +. (0.1 *. float_of_int i))) xs);
  let bfs = Milp.Solver.solve ~node_limit:1 m in
  let dfs = Milp.Solver.solve ~node_limit:1 ~portfolio:(1, 0) m in
  check_outcome Milp.Solver.Node_limit bfs;
  check_outcome Milp.Solver.Node_limit dfs;
  Alcotest.(check (float 1e-9)) "same open bound" bfs.Milp.Solver.best_bound
    dfs.Milp.Solver.best_bound

(* The Klee–Minty cube in [n] dimensions — maximise sum 2^(n-j) x_j
   subject to 2 sum_{j<i} 2^(i-j) x_j + x_i <= 5^i, x_j in [0, 5^j] —
   plus one binary z of objective 1. Its LP optimum is 5^n (+ 1 for z),
   and at n = 16 the root relaxation stops at its pivot limit on both
   LP cores. *)
let klee_minty n =
  let m = Milp.Model.create () in
  let pow b e = b ** float_of_int e in
  let xs =
    Array.init n (fun j ->
        Milp.Model.add_continuous m ~lo:0.0 ~hi:(pow 5.0 (j + 1)) ())
  in
  for i = 0 to n - 1 do
    Milp.Model.add_le m
      ((xs.(i), 1.0)
      :: List.init i (fun j -> (xs.(j), 2.0 *. pow 2.0 (i - j))))
      (pow 5.0 (i + 1))
  done;
  let z = Milp.Model.add_binary m () in
  Milp.Model.set_objective m
    ((z, 1.0) :: List.init n (fun j -> (xs.(j), pow 2.0 (n - 1 - j))));
  m

let test_lp_iteration_limit_keeps_node_open () =
  (* Closing a node whose LP stopped at its iteration limit like an
     infeasible one turns this feasible model into [Infeasible] and the
     cutoff query into a "proof" of max <= 0 with no incumbent, while
     the LP optimum is 5^16. The node must stay open, so the search
     stops short of a verdict and its bound still covers the node. The
     n = 12 cube, which solves, checks the model itself. *)
  let small = Milp.Solver.solve (klee_minty 12) in
  check_outcome Milp.Solver.Optimal small;
  Alcotest.(check (float 1e-3)) "n = 12 solves" ((5.0 ** 12.0) +. 1.0)
    (incumbent_value small);
  let m = klee_minty 16 in
  List.iter
    (fun (cores, cutoff) ->
      let r = Milp.Solver.solve ~cores ?cutoff m in
      let name =
        Printf.sprintf "%d core(s), %s: %s, bound %g" cores
          (match cutoff with
           | Some c -> Printf.sprintf "cutoff %g" c
           | None -> "no cutoff")
          (outcome_name r.Milp.Solver.outcome)
          r.Milp.Solver.best_bound
      in
      Alcotest.(check bool) (name ^ " is no verdict") true
        (r.Milp.Solver.outcome <> Milp.Solver.Optimal
        && r.Milp.Solver.outcome <> Milp.Solver.Infeasible);
      Alcotest.(check bool) (name ^ " covers the LP optimum") true
        (r.Milp.Solver.best_bound >= 5.0 ** 16.0))
    [ (1, None); (1, Some 0.0); (2, None); (2, Some 0.0) ]

(* The standard knapsack used by the degradation tests (optimum 21). *)
let degraded_knapsack () =
  let m = Milp.Model.create () in
  let values = [| 10.0; 13.0; 7.0; 8.0 |]
  and weights = [| 5.0; 6.0; 3.0; 4.0 |] in
  let xs = Array.map (fun _ -> Milp.Model.add_binary m ()) values in
  Milp.Model.add_le m
    (Array.to_list (Array.mapi (fun i x -> (x, weights.(i))) xs))
    10.0;
  Milp.Model.set_objective m
    (Array.to_list (Array.mapi (fun i x -> (x, values.(i))) xs));
  m

let test_parallel_degrades_on_worker_death () =
  (* A primal heuristic that raises exactly once kills one worker mid
     evaluation.  The node goes back to the pool, a surviving worker
     re-evaluates it, and the solve completes with the exact optimum —
     flagged as degraded via [failed_workers]. *)
  let m = degraded_knapsack () in
  let armed = Atomic.make true in
  let heuristic _ =
    if Atomic.exchange armed false then failwith "injected worker fault"
    else None
  in
  let r = Milp.Solver.solve ~cores:2 ~primal_heuristic:heuristic m in
  check_outcome Milp.Solver.Optimal r;
  Alcotest.(check (float 1e-6)) "optimum survives" 21.0 (incumbent_value r);
  Alcotest.(check int) "one worker lost" 1 r.Milp.Solver.failed_workers

let test_parallel_reraises_when_all_workers_die () =
  (* When every worker dies there is nobody left to degrade onto: the
     first failure must propagate to the caller. *)
  let m = degraded_knapsack () in
  let heuristic _ = failwith "poison" in
  Alcotest.(check bool) "exception propagates" true
    (try
       ignore (Milp.Solver.solve ~cores:2 ~primal_heuristic:heuristic m);
       false
     with Failure msg -> msg = "poison")

let test_sequential_reports_no_failed_workers () =
  let r = Milp.Solver.solve (degraded_knapsack ()) in
  Alcotest.(check int) "sequential is never degraded" 0
    r.Milp.Solver.failed_workers

let test_parallel_map_order_and_state () =
  let squares =
    Milp.Parallel.map ~cores:4
      ~init:(fun () -> ref 0)
      (fun counter x ->
        incr counter;
        x * x)
      (Array.init 33 Fun.id)
  in
  Alcotest.(check (array int)) "squares in input order"
    (Array.init 33 (fun i -> i * i))
    squares

let test_parallel_map_joins_on_throwing_init () =
  (* [init] raising used to leak the spawned domains: the coordinating
     domain's exception skipped every join (and a join that re-raised
     abandoned the rest). Every domain calls [init] first, so observing
     all [cores] increments after the exception proves each domain ran
     AND was joined before [map] re-raised. *)
  let cores = 4 in
  let started = Atomic.make 0 in
  let raised =
    try
      ignore
        (Milp.Parallel.map ~cores
           ~init:(fun () ->
             Atomic.incr started;
             failwith "init boom")
           (fun () x -> x)
           (Array.init 32 Fun.id));
      false
    with Failure msg -> msg = "init boom"
  in
  Alcotest.(check bool) "init exception propagates" true raised;
  Alcotest.(check int) "every domain ran init and was joined" cores
    (Atomic.get started)

let test_parallel_map_joins_on_throwing_f () =
  (* Same contract when the work function itself throws mid-stream. *)
  let finished = Atomic.make 0 in
  let raised =
    try
      ignore
        (Milp.Parallel.map ~cores:3
           ~init:(fun () -> ())
           (fun () x ->
             if x = 5 then failwith "item boom";
             Atomic.incr finished;
             x)
           (Array.init 32 Fun.id));
      false
    with Failure msg -> msg = "item boom"
  in
  Alcotest.(check bool) "item exception propagates" true raised

(* {2 search-structure regressions} *)

let test_heap_pop_releases_nodes () =
  (* [Heap.pop] used to leave the popped node's reference in the vacated
     slot (and [push]'s growth used to fill spare capacity with a live
     node), retaining fix chains long after the pool logically shrank.
     Push distinct fix chains tracked through weak pointers, drain the
     heap, and demand the chains become collectable. *)
  let h = Milp.Search.Heap.create () in
  let n = 64 in
  let weak = Weak.create n in
  let fill () =
    for i = 0 to n - 1 do
      let fixes = [ (i, 0.0, float_of_int i) ] in
      Weak.set weak i (Some fixes);
      Milp.Search.Heap.push h
        {
          Milp.Search.fixes;
          parent_bound = float_of_int (i mod 7);
          depth = 1;
          parent_basis = None;
        }
    done
  in
  (Sys.opaque_identity fill) ();
  Alcotest.(check int) "all pushed" n (Milp.Search.Heap.size h);
  let rec drain () =
    match Milp.Search.Heap.pop h with Some _ -> drain () | None -> ()
  in
  drain ();
  Alcotest.(check int) "heap empty" 0 (Milp.Search.Heap.size h);
  Gc.full_major ();
  let live = ref 0 in
  for i = 0 to n - 1 do
    if Weak.check weak i then incr live
  done;
  Alcotest.(check int) "drained nodes are collectable" 0 !live

let test_pool_depth_first_donates_bottom () =
  let donated = ref [] in
  let pool =
    Milp.Search.Pool.depth_first ~max_open:2
      ~donate:(fun n -> donated := n.Milp.Search.parent_bound :: !donated)
      ()
  in
  let node b =
    { Milp.Search.fixes = []; parent_bound = b; depth = 1; parent_basis = None }
  in
  List.iter (fun b -> Milp.Search.Pool.push pool (node b)) [ 5.0; 4.0; 3.0; 2.0 ];
  (* Bounded at 2: pushing 3.0 evicts the bottom (5.0), pushing 2.0
     evicts the new bottom (4.0). *)
  Alcotest.(check (list (float 0.0))) "shallowest donated first" [ 4.0; 5.0 ]
    !donated;
  Alcotest.(check int) "kept the two deepest" 2 (Milp.Search.Pool.size pool);
  (match Milp.Search.Pool.pop pool with
   | Some top ->
       Alcotest.(check (float 0.0)) "LIFO top" 2.0 top.Milp.Search.parent_bound
   | None -> Alcotest.fail "pool should not be empty");
  Alcotest.(check int) "drain returns the rest" 1
    (List.length (Milp.Search.Pool.drain pool));
  Alcotest.(check int) "empty after drain" 0 (Milp.Search.Pool.size pool)

(* {2 portfolio search} *)

let test_portfolio_knapsack_all_splits () =
  let m = knapsack_model () in
  List.iter
    (fun (d, p) ->
      let r = Milp.Solver.solve ~portfolio:(d, p) m in
      check_outcome Milp.Solver.Optimal r;
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "optimum under %d:%d" d p)
        21.0 (incumbent_value r))
    [ (1, 0); (0, 1); (1, 1); (2, 1); (1, 2); (0, 3) ]

let test_portfolio_rejects_empty_split () =
  List.iter
    (fun split ->
      Alcotest.(check bool)
        "invalid split rejected" true
        (try
           ignore (Milp.Solver.solve ~portfolio:split (knapsack_model ()));
           false
         with Invalid_argument _ -> true))
    [ (0, 0); (-1, 2); (2, -1) ]

let test_first_incumbent_reported () =
  let r = Milp.Solver.solve (knapsack_model ()) in
  (match r.Milp.Solver.first_incumbent_nodes with
   | Some n ->
       Alcotest.(check bool) "first incumbent within the run" true
         (n >= 0 && n <= r.Milp.Solver.nodes)
   | None -> Alcotest.fail "optimal solve must report a first incumbent");
  Alcotest.(check bool) "elapsed stamp present" true
    (r.Milp.Solver.first_incumbent_elapsed <> None);
  (* A cutoff above the optimum leaves no incumbent and no stamp. *)
  let m = Milp.Model.create () in
  let x = Milp.Model.add_binary m () in
  Milp.Model.set_objective m [ (x, 5.0) ];
  let pruned = Milp.Solver.solve ~cutoff:6.0 m in
  Alcotest.(check bool) "no incumbent, no stamp" true
    (pruned.Milp.Solver.first_incumbent_nodes = None
    && pruned.Milp.Solver.first_incumbent_elapsed = None)

let test_portfolio_degrades_on_worker_death () =
  (* The degradation contract must survive the portfolio split: a diver
     killed mid-evaluation flushes its private stack back to the shared
     heap, the surviving prover re-evaluates, and the exact optimum
     still comes out — flagged via [failed_workers]. *)
  let m = degraded_knapsack () in
  let armed = Atomic.make true in
  let heuristic _ =
    if Atomic.exchange armed false then failwith "injected diver fault"
    else None
  in
  let r =
    Milp.Solver.solve ~portfolio:(1, 1) ~primal_heuristic:heuristic m
  in
  check_outcome Milp.Solver.Optimal r;
  Alcotest.(check (float 1e-6)) "optimum survives" 21.0 (incumbent_value r);
  Alcotest.(check int) "one worker lost" 1 r.Milp.Solver.failed_workers

let test_portfolio_reraises_when_all_workers_die () =
  let m = degraded_knapsack () in
  let heuristic _ = failwith "poison" in
  Alcotest.(check bool) "exception propagates" true
    (try
       ignore
         (Milp.Solver.solve ~portfolio:(1, 1) ~primal_heuristic:heuristic m);
       false
     with Failure msg -> msg = "poison")

(* Strict acceptance on the NN smoke model: a single diver must reach
   its first incumbent in no more nodes than a single best-first prover.
   Single-worker configurations keep both node counts deterministic. *)
let test_portfolio_dives_to_first_incumbent_faster () =
  let rng = Linalg.Rng.create 21 in
  let net =
    Nn.Network.create ~rng [ 6; 10; 10; Nn.Gmm.output_dim ~components:2 ]
  in
  let box = Array.make 6 (Interval.make (-0.25) 0.25) in
  let enc = Encoding.Encoder.encode net box in
  let priority = Encoding.Encoder.layer_order_priority enc in
  let solve portfolio =
    Milp.Solver.solve ~portfolio
      ~branch_rule:(Milp.Solver.Priority priority)
      ~objective:
        (Encoding.Encoder.output_objective enc
           (Nn.Gmm.mu_lat_index ~components:2 1))
      enc.Encoding.Encoder.model
  in
  let diver = solve (1, 0) in
  let prover = solve (0, 1) in
  check_outcome Milp.Solver.Optimal diver;
  check_outcome Milp.Solver.Optimal prover;
  Alcotest.(check (float 1e-5)) "same maximum" (incumbent_value prover)
    (incumbent_value diver);
  match
    ( diver.Milp.Solver.first_incumbent_nodes,
      prover.Milp.Solver.first_incumbent_nodes )
  with
  | Some d, Some p ->
      Alcotest.(check bool)
        (Printf.sprintf "diver first incumbent (%d nodes) <= best-first (%d)" d
           p)
        true (d <= p)
  | _ -> Alcotest.fail "both configurations must find an incumbent"

let test_warm_matches_cold () =
  (* Warm-started B&B must agree with cold B&B on outcome, incumbent and
     bound — and spend strictly fewer LP iterations (the whole point of
     the warm start: children resume from the parent's basis). *)
  let m = Milp.Model.create () in
  let values = [| 4.0; 5.0; 3.0; 7.0; 2.0; 6.0; 9.0; 1.0 |]
  and weights = [| 2.0; 3.0; 1.0; 4.0; 1.0; 3.0; 5.0; 0.5 |] in
  let xs = Array.map (fun _ -> Milp.Model.add_binary m ()) values in
  Milp.Model.add_le m
    (Array.to_list (Array.mapi (fun i x -> (x, weights.(i))) xs))
    9.0;
  Milp.Model.set_objective m
    (Array.to_list (Array.mapi (fun i x -> (x, values.(i))) xs));
  let warm = Milp.Solver.solve ~warm:true m in
  let cold = Milp.Solver.solve ~warm:false m in
  check_outcome cold.Milp.Solver.outcome warm;
  Alcotest.(check (float 1e-6)) "same optimum" (incumbent_value cold)
    (incumbent_value warm);
  Alcotest.(check (float 1e-6)) "same bound" cold.Milp.Solver.best_bound
    warm.Milp.Solver.best_bound;
  Alcotest.(check bool)
    (Printf.sprintf "fewer lp iterations (warm %d < cold %d)"
       warm.Milp.Solver.lp_iterations cold.Milp.Solver.lp_iterations)
    true
    (warm.Milp.Solver.lp_iterations < cold.Milp.Solver.lp_iterations)

let test_objective_override () =
  (* ~objective solves under a different objective without mutating the
     model, so interleaved queries over one model stay independent. *)
  let m = Milp.Model.create () in
  let x = Milp.Model.add_integer m ~lo:0 ~hi:5 () in
  let y = Milp.Model.add_integer m ~lo:0 ~hi:5 () in
  Milp.Model.add_le m [ (x, 1.0); (y, 1.0) ] 7.0;
  Milp.Model.set_objective m [ (x, 1.0) ];
  let before = Lp.Problem.objective (Milp.Model.lp m) in
  let rx = Milp.Solver.solve m in
  let ry = Milp.Solver.solve ~objective:[ (y, 2.0) ] m in
  let after = Lp.Problem.objective (Milp.Model.lp m) in
  Alcotest.(check (float 1e-6)) "model objective: max x" 5.0
    (incumbent_value rx);
  Alcotest.(check (float 1e-6)) "override: max 2y" 10.0 (incumbent_value ry);
  Alcotest.(check (array (float 0.0))) "model objective untouched" before
    after;
  (* And again under the original objective: the override left no
     residue. *)
  Alcotest.(check (float 1e-6)) "model objective again" 5.0
    (incumbent_value (Milp.Solver.solve m));
  (* Parallel path applies the override on every domain's private copy. *)
  let rp = Milp.Solver.solve ~cores:2 ~objective:[ (y, 2.0) ] m in
  Alcotest.(check (float 1e-6)) "parallel override" 10.0 (incumbent_value rp)

(* Random knapsacks vs brute force. *)
let gen_knapsack =
  QCheck.Gen.(
    let* n = int_range 2 10 in
    let* values = list_size (return n) (float_range 0.5 10.0) in
    let* weights = list_size (return n) (float_range 0.5 5.0) in
    let* capacity = float_range 1.0 12.0 in
    return (values, weights, capacity))

(* With [tail], the optimum of the model the properties below build: a
   continuous y in [0, 1] with objective 0.7 and the row y + x0 <= 1.4,
   so the tail adds 0.7 when x0 = 0 and 0.28 when x0 = 1. *)
let brute_force ?(tail = false) values weights capacity =
  let n = List.length values in
  let values = Array.of_list values and weights = Array.of_list weights in
  let best = ref 0.0 in
  for mask = 0 to (1 lsl n) - 1 do
    let v = ref 0.0 and w = ref 0.0 in
    for i = 0 to n - 1 do
      if mask land (1 lsl i) <> 0 then begin
        v := !v +. values.(i);
        w := !w +. weights.(i)
      end
    done;
    if tail then v := !v +. if mask land 1 <> 0 then 0.28 else 0.7;
    if !w <= capacity +. 1e-9 && !v > !best then best := !v
  done;
  !best

(* Ground truth that does not use branch and bound: the configuration
   is [Optimal], its incumbent matches brute force and its bound does
   not undercut it. *)
let matches_brute_force truth r =
  outcome_name r.Milp.Solver.outcome = "optimal"
  && (match r.Milp.Solver.incumbent with
     | Some (_, v) -> Float.abs (v -. truth) < 1e-5
     | None -> false)
  && r.Milp.Solver.best_bound >= truth -. 1e-5

let prop_knapsack_matches_brute_force =
  QCheck.Test.make ~name:"knapsack matches brute force" ~count:60
    (QCheck.make gen_knapsack) (fun (values, weights, capacity) ->
      let m = Milp.Model.create () in
      let xs = List.map (fun _ -> Milp.Model.add_binary m ()) values in
      Milp.Model.add_le m (List.map2 (fun x w -> (x, w)) xs weights) capacity;
      Milp.Model.set_objective m (List.map2 (fun x v -> (x, v)) xs values);
      let r = Milp.Solver.solve m in
      match r.Milp.Solver.incumbent with
      | Some (_, v) ->
          Float.abs (v -. brute_force values weights capacity) < 1e-5
      | None -> brute_force values weights capacity = 0.0)

let prop_parallel_matches_sequential =
  QCheck.Test.make ~name:"parallel matches sequential" ~count:25
    (QCheck.make gen_knapsack) (fun (values, weights, capacity) ->
      let m = Milp.Model.create () in
      let xs = List.map (fun _ -> Milp.Model.add_binary m ()) values in
      Milp.Model.add_le m (List.map2 (fun x w -> (x, w)) xs weights) capacity;
      (* A continuous tail keeps the relaxation fractional at the root. *)
      let y = Milp.Model.add_continuous m ~lo:0.0 ~hi:1.0 () in
      Milp.Model.add_le m [ (y, 1.0); (List.hd xs, 1.0) ] 1.4;
      Milp.Model.set_objective m
        ((y, 0.7) :: List.map2 (fun x v -> (x, v)) xs values);
      let seq = Milp.Solver.solve m in
      let truth = brute_force ~tail:true values weights capacity in
      let eps = 1e-6 in
      let close a b = a = b || Float.abs (a -. b) < eps in
      let agrees cores =
        let par = Milp.Solver.solve ~cores m in
        outcome_name par.Milp.Solver.outcome
        = outcome_name seq.Milp.Solver.outcome
        && (match (seq.Milp.Solver.incumbent, par.Milp.Solver.incumbent) with
           | Some (_, a), Some (_, b) -> close a b
           | None, None -> true
           | _ -> false)
        && close par.Milp.Solver.best_bound seq.Milp.Solver.best_bound
        && matches_brute_force truth par
      in
      matches_brute_force truth seq && List.for_all agrees [ 1; 2; 4 ])

let prop_portfolio_matches_sequential =
  QCheck.Test.make ~name:"portfolio matches sequential" ~count:25
    (QCheck.make gen_knapsack) (fun (values, weights, capacity) ->
      let m = Milp.Model.create () in
      let xs = List.map (fun _ -> Milp.Model.add_binary m ()) values in
      Milp.Model.add_le m (List.map2 (fun x w -> (x, w)) xs weights) capacity;
      let y = Milp.Model.add_continuous m ~lo:0.0 ~hi:1.0 () in
      Milp.Model.add_le m [ (y, 1.0); (List.hd xs, 1.0) ] 1.4;
      Milp.Model.set_objective m
        ((y, 0.7) :: List.map2 (fun x v -> (x, v)) xs values);
      let seq = Milp.Solver.solve m in
      let truth = brute_force ~tail:true values weights capacity in
      let eps = 1e-6 in
      let close a b = a = b || Float.abs (a -. b) < eps in
      let agrees split =
        let par = Milp.Solver.solve ~portfolio:split m in
        outcome_name par.Milp.Solver.outcome
        = outcome_name seq.Milp.Solver.outcome
        && (match (seq.Milp.Solver.incumbent, par.Milp.Solver.incumbent) with
           | Some (_, a), Some (_, b) -> close a b
           | None, None -> true
           | _ -> false)
        && close par.Milp.Solver.best_bound seq.Milp.Solver.best_bound
        && matches_brute_force truth par
      in
      matches_brute_force truth seq
      && List.for_all agrees [ (1, 0); (0, 1); (1, 1); (2, 2) ])

let prop_warm_matches_cold =
  QCheck.Test.make ~name:"warm B&B matches cold B&B" ~count:40
    (QCheck.make gen_knapsack) (fun (values, weights, capacity) ->
      let m = Milp.Model.create () in
      let xs = List.map (fun _ -> Milp.Model.add_binary m ()) values in
      Milp.Model.add_le m (List.map2 (fun x w -> (x, w)) xs weights) capacity;
      let y = Milp.Model.add_continuous m ~lo:0.0 ~hi:1.0 () in
      Milp.Model.add_le m [ (y, 1.0); (List.hd xs, 1.0) ] 1.4;
      Milp.Model.set_objective m
        ((y, 0.7) :: List.map2 (fun x v -> (x, v)) xs values);
      let warm = Milp.Solver.solve ~warm:true m in
      let cold = Milp.Solver.solve ~warm:false m in
      let truth = brute_force ~tail:true values weights capacity in
      matches_brute_force truth warm
      && matches_brute_force truth cold
      && outcome_name warm.Milp.Solver.outcome
      = outcome_name cold.Milp.Solver.outcome
      && (match (warm.Milp.Solver.incumbent, cold.Milp.Solver.incumbent) with
         | Some (_, a), Some (_, b) -> Float.abs (a -. b) < 1e-6
         | None, None -> true
         | _ -> false)
      && Float.abs
           (warm.Milp.Solver.best_bound -. cold.Milp.Solver.best_bound)
         < 1e-6
      && warm.Milp.Solver.lp_iterations <= cold.Milp.Solver.lp_iterations)

(* {2 Sparse LP core} *)

let test_sparse_warm_resolve_beats_cold () =
  (* Strict acceptance for the warm restart: on the NN smoke encoding, a
     depth-12 warm node re-solve through the factored basis must take
     fewer pivots than a cold solve of the same child and beat it on the
     clock (min-of-5 each to de-noise), with the dense tableau's answer
     as the reference. *)
  let rng = Linalg.Rng.create 21 in
  let net =
    Nn.Network.create ~rng [ 6; 10; 10; Nn.Gmm.output_dim ~components:2 ]
  in
  let box = Array.make 6 (Interval.make (-0.25) 0.25) in
  let enc = Encoding.Encoder.encode net box in
  let p = Lp.Problem.copy (Milp.Model.lp enc.Encoding.Encoder.model) in
  Lp.Problem.set_objective p (Encoding.Encoder.output_objective enc 0);
  let fixes =
    List.filteri (fun i _ -> i < 12) enc.Encoding.Encoder.binaries
    |> List.mapi (fun i (v, _, _) ->
           if i mod 2 = 0 then (v, 0.0, 0.0) else (v, 1.0, 1.0))
  in
  let parent = Lp.Simplex.solve p in
  let basis =
    match parent.Lp.Simplex.basis with
    | Some b -> b
    | None -> Alcotest.fail "relaxation must yield a basis snapshot"
  in
  List.iter (fun (v, lo, hi) -> Lp.Problem.set_bounds p v ~lo ~hi) fixes;
  let min_of_5 solve =
    let best = ref infinity in
    for _ = 1 to 5 do
      let t0 = Linalg.Mclock.now () in
      ignore (solve ());
      best := Float.min !best (Linalg.Mclock.now () -. t0)
    done;
    !best
  in
  let warm = Lp.Simplex.resolve ~basis p in
  let cold = Lp.Simplex.solve p in
  let dense = Lp.Simplex.solve_dense p in
  let warm_s = min_of_5 (fun () -> Lp.Simplex.resolve ~basis p) in
  let cold_s = min_of_5 (fun () -> Lp.Simplex.solve p) in
  Alcotest.(check bool) "same status" true
    (warm.Lp.Simplex.status = dense.Lp.Simplex.status);
  Alcotest.(check (float 1e-5)) "same child objective"
    dense.Lp.Simplex.objective warm.Lp.Simplex.objective;
  Alcotest.(check bool) "sparse took the warm path" true warm.Lp.Simplex.warm;
  Alcotest.(check bool)
    (Printf.sprintf "warm pivots (%d) < cold pivots (%d)"
       warm.Lp.Simplex.iterations cold.Lp.Simplex.iterations)
    true
    (warm.Lp.Simplex.iterations < cold.Lp.Simplex.iterations);
  Alcotest.(check bool)
    (Printf.sprintf "warm re-solve (%.3f ms) < cold solve (%.3f ms)"
       (1e3 *. warm_s) (1e3 *. cold_s))
    true (warm_s < cold_s)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "milp"
    [
      ( "solver",
        [
          quick "knapsack known" test_knapsack_known;
          quick "incumbent integral" test_integrality_of_incumbent;
          quick "integer variable" test_integer_variable;
          quick "infeasible" test_infeasible_milp;
          quick "cutoff prunes" test_cutoff_prunes_all;
          quick "cutoff violation" test_cutoff_finds_violation;
          quick "node limit" test_node_limit;
          quick "depth-first optimum" test_depth_first_same_optimum;
          quick "branch rules" test_branch_rules_same_optimum;
          quick "primal heuristic" test_primal_heuristic_adopted;
          quick "warm matches cold" test_warm_matches_cold;
          quick "objective override" test_objective_override;
          quick "node bound sound cap" test_node_bound_sound_cap_same_answer;
          quick "node bound sees fixes" test_node_bound_sees_fixes;
          quick "node bound empty subtree" test_node_bound_empty_subtree_prunes;
          quick "first incumbent reported" test_first_incumbent_reported;
          quick "lp iteration limit keeps node open"
            test_lp_iteration_limit_keeps_node_open;
        ] );
      ("model", [ quick "bookkeeping" test_model_bookkeeping ]);
      ( "search",
        [
          quick "heap pop releases nodes" test_heap_pop_releases_nodes;
          quick "pool donates bottom" test_pool_depth_first_donates_bottom;
        ] );
      ( "parallel",
        [
          quick "knapsack on 1/2/4 cores" test_parallel_knapsack;
          quick "node bound on 1/2/4 cores" test_parallel_node_bound_same_answer;
          quick "cutoff prunes" test_parallel_cutoff_prunes;
          quick "infeasible" test_parallel_infeasible;
          quick "open bound stack = heap" test_open_bound_stack_matches_heap;
          quick "map order + state" test_parallel_map_order_and_state;
          quick "map joins on throwing init" test_parallel_map_joins_on_throwing_init;
          quick "map joins on throwing f" test_parallel_map_joins_on_throwing_f;
          quick "degrades on worker death" test_parallel_degrades_on_worker_death;
          quick "re-raises when all die" test_parallel_reraises_when_all_workers_die;
          quick "sequential never degraded" test_sequential_reports_no_failed_workers;
        ] );
      ( "portfolio",
        [
          quick "knapsack on all splits" test_portfolio_knapsack_all_splits;
          quick "rejects empty split" test_portfolio_rejects_empty_split;
          quick "degrades on worker death" test_portfolio_degrades_on_worker_death;
          quick "re-raises when all die" test_portfolio_reraises_when_all_workers_die;
          quick "diver reaches first incumbent no later"
            test_portfolio_dives_to_first_incumbent_faster;
        ] );
      ( "sparse core",
        [
          quick "warm re-solve beats cold" test_sparse_warm_resolve_beats_cold;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_knapsack_matches_brute_force;
            prop_parallel_matches_sequential;
            prop_portfolio_matches_sequential;
            prop_warm_matches_cold;
          ] );
    ]
