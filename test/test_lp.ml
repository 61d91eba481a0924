let status_name = function
  | Lp.Simplex.Optimal -> "optimal"
  | Lp.Simplex.Infeasible -> "infeasible"
  | Lp.Simplex.Iteration_limit -> "iteration_limit"

let check_status expected s =
  Alcotest.(check string) "status" (status_name expected)
    (status_name s.Lp.Simplex.status)

let test_basic_max () =
  (* max 3x + 2y st x + y <= 4, x + 3y <= 6 -> (4, 0), obj 12 *)
  let p = Lp.Problem.create () in
  let x = Lp.Problem.add_var p ~lo:0.0 ~hi:10.0 ~obj:3.0 () in
  let y = Lp.Problem.add_var p ~lo:0.0 ~hi:10.0 ~obj:2.0 () in
  Lp.Problem.add_constraint p [ (x, 1.0); (y, 1.0) ] Lp.Problem.Le 4.0;
  Lp.Problem.add_constraint p [ (x, 1.0); (y, 3.0) ] Lp.Problem.Le 6.0;
  let s = Lp.Simplex.solve p in
  check_status Lp.Simplex.Optimal s;
  Alcotest.(check (float 1e-6)) "objective" 12.0 s.Lp.Simplex.objective;
  Alcotest.(check (float 1e-6)) "x" 4.0 s.Lp.Simplex.x.(0)

let test_equality_row () =
  let p = Lp.Problem.create () in
  let a = Lp.Problem.add_var p ~lo:0.0 ~hi:5.0 ~obj:1.0 () in
  let b = Lp.Problem.add_var p ~lo:0.0 ~hi:5.0 ~obj:1.0 () in
  Lp.Problem.add_constraint p [ (a, 1.0); (b, 1.0) ] Lp.Problem.Eq 3.0;
  Lp.Problem.add_constraint p [ (a, 1.0) ] Lp.Problem.Ge 1.0;
  let s = Lp.Simplex.solve p in
  check_status Lp.Simplex.Optimal s;
  Alcotest.(check (float 1e-6)) "objective" 3.0 s.Lp.Simplex.objective;
  Alcotest.(check bool) "a >= 1" true (s.Lp.Simplex.x.(0) >= 1.0 -. 1e-6)

let test_minimization () =
  (* min x st x + y >= 2, y <= 0.5 -> x = 1.5 *)
  let p = Lp.Problem.create () in
  let x = Lp.Problem.add_var p ~lo:0.0 ~hi:10.0 ~obj:1.0 () in
  let y = Lp.Problem.add_var p ~lo:0.0 ~hi:0.5 ~obj:0.0 () in
  Lp.Problem.add_constraint p [ (x, 1.0); (y, 1.0) ] Lp.Problem.Ge 2.0;
  let s = Lp.Simplex.solve_min p in
  check_status Lp.Simplex.Optimal s;
  Alcotest.(check (float 1e-6)) "objective" 1.5 s.Lp.Simplex.objective

let test_infeasible () =
  let p = Lp.Problem.create () in
  let x = Lp.Problem.add_var p ~lo:0.0 ~hi:10.0 ~obj:1.0 () in
  Lp.Problem.add_constraint p [ (x, 1.0) ] Lp.Problem.Le 1.0;
  Lp.Problem.add_constraint p [ (x, 1.0) ] Lp.Problem.Ge 2.0;
  check_status Lp.Simplex.Infeasible (Lp.Simplex.solve p)

let test_infeasible_via_bounds () =
  (* Row unsatisfiable for any x in the box — caught at build time. *)
  let p = Lp.Problem.create () in
  let x = Lp.Problem.add_var p ~lo:0.0 ~hi:1.0 ~obj:1.0 () in
  Lp.Problem.add_constraint p [ (x, 1.0) ] Lp.Problem.Ge 5.0;
  check_status Lp.Simplex.Infeasible (Lp.Simplex.solve p)

let test_bounds_only () =
  (* No constraints: optimum sits at the bounds. *)
  let p = Lp.Problem.create () in
  let _ = Lp.Problem.add_var p ~lo:(-2.0) ~hi:3.0 ~obj:1.0 () in
  let _ = Lp.Problem.add_var p ~lo:(-2.0) ~hi:3.0 ~obj:(-1.0) () in
  let s = Lp.Simplex.solve p in
  check_status Lp.Simplex.Optimal s;
  Alcotest.(check (float 1e-9)) "objective" 5.0 s.Lp.Simplex.objective

let test_negative_bounds () =
  (* max x + y with x in [-5,-1], y in [-4,-2], x + y >= -7 *)
  let p = Lp.Problem.create () in
  let x = Lp.Problem.add_var p ~lo:(-5.0) ~hi:(-1.0) ~obj:1.0 () in
  let y = Lp.Problem.add_var p ~lo:(-4.0) ~hi:(-2.0) ~obj:1.0 () in
  Lp.Problem.add_constraint p [ (x, 1.0); (y, 1.0) ] Lp.Problem.Ge (-7.0);
  let s = Lp.Simplex.solve p in
  check_status Lp.Simplex.Optimal s;
  Alcotest.(check (float 1e-6)) "objective" (-3.0) s.Lp.Simplex.objective

let test_fixed_variable () =
  let p = Lp.Problem.create () in
  let x = Lp.Problem.add_var p ~lo:2.0 ~hi:2.0 ~obj:1.0 () in
  let y = Lp.Problem.add_var p ~lo:0.0 ~hi:10.0 ~obj:1.0 () in
  Lp.Problem.add_constraint p [ (x, 1.0); (y, 1.0) ] Lp.Problem.Le 5.0;
  let s = Lp.Simplex.solve p in
  check_status Lp.Simplex.Optimal s;
  Alcotest.(check (float 1e-6)) "objective" 5.0 s.Lp.Simplex.objective;
  Alcotest.(check (float 1e-9)) "x fixed" 2.0 s.Lp.Simplex.x.(0)

let test_equality_chain () =
  (* The structure the NN encoder produces: chains of definitional
     equalities z2 = 2 z1 + 1, z1 = 3 x - 1. *)
  let p = Lp.Problem.create () in
  let x = Lp.Problem.add_var p ~lo:(-1.0) ~hi:1.0 ~obj:0.0 () in
  let z1 = Lp.Problem.add_var p ~lo:(-4.0) ~hi:2.0 ~obj:0.0 () in
  let z2 = Lp.Problem.add_var p ~lo:(-7.0) ~hi:5.0 ~obj:1.0 () in
  Lp.Problem.add_constraint p [ (z1, 1.0); (x, -3.0) ] Lp.Problem.Eq (-1.0);
  Lp.Problem.add_constraint p [ (z2, 1.0); (z1, -2.0) ] Lp.Problem.Eq 1.0;
  let s = Lp.Simplex.solve p in
  check_status Lp.Simplex.Optimal s;
  (* x = 1 -> z1 = 2 -> z2 = 5 *)
  Alcotest.(check (float 1e-6)) "objective" 5.0 s.Lp.Simplex.objective;
  Alcotest.(check (float 1e-6)) "x" 1.0 s.Lp.Simplex.x.(0)

let test_duplicate_terms_merged () =
  let p = Lp.Problem.create () in
  let x = Lp.Problem.add_var p ~lo:0.0 ~hi:10.0 ~obj:1.0 () in
  (* x + x <= 4 must behave as 2x <= 4. *)
  Lp.Problem.add_constraint p [ (x, 1.0); (x, 1.0) ] Lp.Problem.Le 4.0;
  let s = Lp.Simplex.solve p in
  Alcotest.(check (float 1e-6)) "objective" 2.0 s.Lp.Simplex.objective

let test_problem_validation () =
  let p = Lp.Problem.create () in
  Alcotest.check_raises "infinite bound"
    (Invalid_argument "Problem.add_var: bounds must be finite") (fun () ->
      ignore (Lp.Problem.add_var p ~lo:0.0 ~hi:infinity ~obj:0.0 ()));
  Alcotest.check_raises "lo > hi"
    (Invalid_argument "Problem.add_var: lo (1) > hi (0)") (fun () ->
      ignore (Lp.Problem.add_var p ~lo:1.0 ~hi:0.0 ~obj:0.0 ()))

let test_problem_copy_independent () =
  let p = Lp.Problem.create () in
  let x = Lp.Problem.add_var p ~lo:0.0 ~hi:10.0 ~obj:1.0 () in
  let q = Lp.Problem.copy p in
  Lp.Problem.set_bounds q x ~lo:0.0 ~hi:1.0;
  let lo, hi = Lp.Problem.bounds p x in
  Alcotest.(check (float 0.0)) "original lo" 0.0 lo;
  Alcotest.(check (float 0.0)) "original hi" 10.0 hi;
  let s = Lp.Simplex.solve p and sq = Lp.Simplex.solve q in
  Alcotest.(check (float 1e-9)) "p unaffected" 10.0 s.Lp.Simplex.objective;
  Alcotest.(check (float 1e-9)) "q tightened" 1.0 sq.Lp.Simplex.objective

let test_bound_journal_nested () =
  (* pop_bounds must exactly restore bounds after nested pushes, even
     with repeated writes to the same variable inside one frame. *)
  let p = Lp.Problem.create () in
  let x = Lp.Problem.add_var p ~lo:(-1.0) ~hi:5.0 ~obj:1.0 () in
  let y = Lp.Problem.add_var p ~lo:0.0 ~hi:2.0 ~obj:0.0 () in
  let check_bounds msg v elo ehi =
    let lo, hi = Lp.Problem.bounds p v in
    Alcotest.(check (float 0.0)) (msg ^ " lo") elo lo;
    Alcotest.(check (float 0.0)) (msg ^ " hi") ehi hi
  in
  Lp.Problem.push_bounds p;
  Lp.Problem.set_bounds p x ~lo:0.0 ~hi:3.0;
  Lp.Problem.set_bounds p x ~lo:1.0 ~hi:2.0;
  Lp.Problem.push_bounds p;
  Lp.Problem.set_bounds p x ~lo:2.0 ~hi:2.0;
  Lp.Problem.set_bounds p y ~lo:1.0 ~hi:1.0;
  Alcotest.(check int) "two frames open" 2 (Lp.Problem.journal_depth p);
  check_bounds "inner x" x 2.0 2.0;
  Lp.Problem.pop_bounds p;
  check_bounds "after inner pop x" x 1.0 2.0;
  check_bounds "after inner pop y" y 0.0 2.0;
  Lp.Problem.pop_bounds p;
  check_bounds "after outer pop x" x (-1.0) 5.0;
  check_bounds "after outer pop y" y 0.0 2.0;
  Alcotest.(check int) "journal empty" 0 (Lp.Problem.journal_depth p);
  Alcotest.check_raises "unbalanced pop"
    (Invalid_argument "Problem.pop_bounds: no matching push_bounds")
    (fun () -> Lp.Problem.pop_bounds p)

let test_bound_journal_protects_solve () =
  (* A solve inside a journal frame sees the tightened box; popping
     restores the original optimum. *)
  let p = Lp.Problem.create () in
  let x = Lp.Problem.add_var p ~lo:0.0 ~hi:10.0 ~obj:1.0 () in
  Lp.Problem.push_bounds p;
  Lp.Problem.set_bounds p x ~lo:0.0 ~hi:1.0;
  let tight = Lp.Simplex.solve p in
  Lp.Problem.pop_bounds p;
  let loose = Lp.Simplex.solve p in
  Alcotest.(check (float 1e-9)) "tightened" 1.0 tight.Lp.Simplex.objective;
  Alcotest.(check (float 1e-9)) "restored" 10.0 loose.Lp.Simplex.objective

let test_degenerate_many_ties () =
  (* Many redundant constraints through the optimum: classic cycling
     bait for Dantzig's rule. *)
  let p = Lp.Problem.create () in
  let x = Lp.Problem.add_var p ~lo:0.0 ~hi:10.0 ~obj:1.0 () in
  let y = Lp.Problem.add_var p ~lo:0.0 ~hi:10.0 ~obj:1.0 () in
  for _ = 1 to 8 do
    Lp.Problem.add_constraint p [ (x, 1.0); (y, 1.0) ] Lp.Problem.Le 2.0
  done;
  Lp.Problem.add_constraint p [ (x, 1.0); (y, -1.0) ] Lp.Problem.Le 0.0;
  Lp.Problem.add_constraint p [ (x, -1.0); (y, 1.0) ] Lp.Problem.Le 0.0;
  let s = Lp.Simplex.solve p in
  check_status Lp.Simplex.Optimal s;
  Alcotest.(check (float 1e-6)) "objective" 2.0 s.Lp.Simplex.objective

(* NaN anywhere in the tableau makes every comparison false, so without
   an explicit check the solver would terminate "Optimal" with a garbage
   basis.  The typed [Numerical_error] turns that silent corruption into
   a fail-fast. *)
let raises_numerical_error f =
  try
    ignore (f ());
    false
  with Lp.Simplex.Numerical_error _ -> true

let test_nan_coefficient_fails_fast () =
  let p = Lp.Problem.create () in
  let x = Lp.Problem.add_var p ~lo:0.0 ~hi:1.0 ~obj:1.0 () in
  Lp.Problem.add_constraint p [ (x, Float.nan) ] Lp.Problem.Le 1.0;
  Alcotest.(check bool) "NaN coefficient rejected" true
    (raises_numerical_error (fun () -> Lp.Simplex.solve p))

let test_nan_rhs_fails_fast () =
  let p = Lp.Problem.create () in
  let x = Lp.Problem.add_var p ~lo:0.0 ~hi:1.0 ~obj:1.0 () in
  Lp.Problem.add_constraint p [ (x, 1.0) ] Lp.Problem.Le Float.nan;
  Alcotest.(check bool) "NaN rhs rejected" true
    (raises_numerical_error (fun () -> Lp.Simplex.solve p))

let test_nan_objective_fails_fast () =
  let p = Lp.Problem.create () in
  let x = Lp.Problem.add_var p ~lo:0.0 ~hi:1.0 ~obj:Float.nan () in
  let y = Lp.Problem.add_var p ~lo:0.0 ~hi:1.0 ~obj:1.0 () in
  Lp.Problem.add_constraint p [ (x, 1.0); (y, 1.0) ] Lp.Problem.Le 1.5;
  Alcotest.(check bool) "NaN objective rejected" true
    (raises_numerical_error (fun () -> Lp.Simplex.solve p))

(* Random LPs: the solver's claimed optimum must be feasible and must
   dominate every feasible sample point. *)
let gen_lp =
  QCheck.Gen.(
    let* nvars = int_range 2 5 in
    let* nrows = int_range 1 6 in
    let* objs = list_size (return nvars) (float_range (-3.0) 3.0) in
    let* rows =
      list_size (return nrows)
        (pair
           (list_size (return nvars) (float_range (-2.0) 2.0))
           (float_range (-4.0) 8.0))
    in
    return (nvars, objs, rows))

let build_random_lp (nvars, objs, rows) =
  let p = Lp.Problem.create () in
  let vars =
    List.map
      (fun o -> Lp.Problem.add_var p ~lo:(-2.0) ~hi:2.0 ~obj:o ())
      objs
  in
  List.iter
    (fun (coeffs, rhs) ->
      let terms = List.map2 (fun v c -> (v, c)) vars coeffs in
      Lp.Problem.add_constraint p terms Lp.Problem.Le rhs)
    rows;
  (p, nvars)

let prop_random_lp_optimal_dominates =
  QCheck.Test.make ~name:"random LP: optimum dominates samples" ~count:150
    (QCheck.make gen_lp) (fun spec ->
      let p, nvars = build_random_lp spec in
      let s = Lp.Simplex.solve p in
      match s.Lp.Simplex.status with
      | Lp.Simplex.Iteration_limit -> false
      | Lp.Simplex.Infeasible ->
          (* Must not have any feasible sample point. *)
          let rng = Linalg.Rng.create 4242 in
          let obj = Lp.Problem.objective p in
          ignore obj;
          List.for_all
            (fun _ ->
              let x =
                Array.init nvars (fun _ -> Linalg.Rng.uniform rng (-2.0) 2.0)
              in
              not (Lp.Simplex.primal_feasible p x))
            (List.init 200 Fun.id)
      | Lp.Simplex.Optimal ->
          Lp.Simplex.primal_feasible ~eps:1e-5 p s.Lp.Simplex.x
          && begin
               let rng = Linalg.Rng.create 777 in
               let obj = Lp.Problem.objective p in
               List.for_all
                 (fun _ ->
                   let x =
                     Array.init nvars (fun _ ->
                         Linalg.Rng.uniform rng (-2.0) 2.0)
                   in
                   (not (Lp.Simplex.primal_feasible p x))
                   || begin
                        let v = ref 0.0 in
                        Array.iteri (fun i xi -> v := !v +. (obj.(i) *. xi)) x;
                        !v <= s.Lp.Simplex.objective +. 1e-5
                      end)
                 (List.init 200 Fun.id)
             end)

(* {2 Warm restarts} *)

let test_resolve_after_bound_change () =
  (* max 3x + 2y st x + y <= 4, x + 3y <= 6; optimum (4, 0) = 12.
     Tighten x <= 1.5 (a branch-and-bound child step): the warm re-solve
     must agree with a cold solve on the child problem (x=1.5, y=1.5
     since x + 3y <= 6 now binds, obj 7.5) and must take the warm
     path. *)
  let p = Lp.Problem.create () in
  let x = Lp.Problem.add_var p ~lo:0.0 ~hi:10.0 ~obj:3.0 () in
  let y = Lp.Problem.add_var p ~lo:0.0 ~hi:10.0 ~obj:2.0 () in
  Lp.Problem.add_constraint p [ (x, 1.0); (y, 1.0) ] Lp.Problem.Le 4.0;
  Lp.Problem.add_constraint p [ (x, 1.0); (y, 3.0) ] Lp.Problem.Le 6.0;
  let parent = Lp.Simplex.solve p in
  check_status Lp.Simplex.Optimal parent;
  let basis =
    match parent.Lp.Simplex.basis with
    | Some b -> b
    | None -> Alcotest.fail "optimal solve produced no basis snapshot"
  in
  Lp.Problem.set_bounds p x ~lo:0.0 ~hi:1.5;
  let warm = Lp.Simplex.resolve ~basis p in
  let cold = Lp.Simplex.solve p in
  check_status Lp.Simplex.Optimal warm;
  Alcotest.(check bool) "took the warm path" true warm.Lp.Simplex.warm;
  Alcotest.(check (float 1e-6)) "same objective as cold"
    cold.Lp.Simplex.objective warm.Lp.Simplex.objective;
  Alcotest.(check (float 1e-6)) "child optimum" 7.5 warm.Lp.Simplex.objective;
  Alcotest.(check bool) "warm point feasible" true
    (Lp.Simplex.primal_feasible ~eps:1e-6 p warm.Lp.Simplex.x)

let test_resolve_detects_infeasible_child () =
  (* Child bounds make the constraint unsatisfiable: warm or cold, the
     answer must be Infeasible. *)
  let p = Lp.Problem.create () in
  let x = Lp.Problem.add_var p ~lo:0.0 ~hi:10.0 ~obj:1.0 () in
  let y = Lp.Problem.add_var p ~lo:0.0 ~hi:10.0 ~obj:1.0 () in
  Lp.Problem.add_constraint p [ (x, 1.0); (y, 1.0) ] Lp.Problem.Ge 5.0;
  let parent = Lp.Simplex.solve p in
  check_status Lp.Simplex.Optimal parent;
  let basis = Option.get parent.Lp.Simplex.basis in
  Lp.Problem.set_bounds p x ~lo:0.0 ~hi:1.0;
  Lp.Problem.set_bounds p y ~lo:0.0 ~hi:1.0;
  check_status Lp.Simplex.Infeasible (Lp.Simplex.resolve ~basis p)

let test_resolve_corrupted_basis_falls_back () =
  (* A garbage snapshot must degrade to a cold solve, not an error. *)
  let p = Lp.Problem.create () in
  let x = Lp.Problem.add_var p ~lo:0.0 ~hi:10.0 ~obj:3.0 () in
  let y = Lp.Problem.add_var p ~lo:0.0 ~hi:10.0 ~obj:2.0 () in
  (* z appears in no constraint: its column is all zeros, so claiming it
     basic makes the basis singular. *)
  let _z = Lp.Problem.add_var p ~lo:0.0 ~hi:1.0 ~obj:0.0 () in
  Lp.Problem.add_constraint p [ (x, 1.0); (y, 1.0) ] Lp.Problem.Le 4.0;
  let cold = Lp.Simplex.solve p in
  let corrupted =
    [
      (* wrong dimensions entirely *)
      { Lp.Simplex.bm = 7; bnstruct = 3; bbasic = [| 0; 1; 2; 3; 4; 5; 6 |];
        bupper = Array.make 10 false; bfactor = None };
      (* right shape, out-of-range basic column *)
      { Lp.Simplex.bm = 1; bnstruct = 3; bbasic = [| 99 |];
        bupper = Array.make 4 false; bfactor = None };
      (* right shape, singular basis (zero column claimed basic) *)
      { Lp.Simplex.bm = 1; bnstruct = 3; bbasic = [| 2 |];
        bupper = Array.make 4 false; bfactor = None };
    ]
  in
  List.iter
    (fun basis ->
      let r = Lp.Simplex.resolve ~basis p in
      check_status Lp.Simplex.Optimal r;
      Alcotest.(check bool) "fell back to cold" false r.Lp.Simplex.warm;
      Alcotest.(check (float 1e-9)) "same answer as cold"
        cold.Lp.Simplex.objective r.Lp.Simplex.objective)
    corrupted

let test_resolve_stale_basis_falls_back () =
  (* A snapshot from a *different* problem of the same shape is still a
     valid-looking basis; resolve may restore it, but the result must
     match the cold answer regardless of which path ran. *)
  let build c =
    let p = Lp.Problem.create () in
    let x = Lp.Problem.add_var p ~lo:0.0 ~hi:4.0 ~obj:1.0 () in
    let y = Lp.Problem.add_var p ~lo:0.0 ~hi:4.0 ~obj:1.0 () in
    Lp.Problem.add_constraint p [ (x, c); (y, 1.0) ] Lp.Problem.Le 4.0;
    p
  in
  let other = Lp.Simplex.solve (build (-1.0)) in
  let basis = Option.get other.Lp.Simplex.basis in
  let p = build 2.0 in
  let warm = Lp.Simplex.resolve ~basis p in
  let cold = Lp.Simplex.solve p in
  check_status cold.Lp.Simplex.status warm;
  Alcotest.(check (float 1e-6)) "same objective"
    cold.Lp.Simplex.objective warm.Lp.Simplex.objective

(* Equivalence property: for a random LP, a warm-started child solve
   (one random bound change on top of the parent's optimal basis) must
   agree with a cold solve of the same child. This is the correctness
   contract branch & bound relies on at every node. *)
let prop_resolve_equals_cold_after_bound_change =
  QCheck.Test.make ~name:"resolve = cold solve after one bound change"
    ~count:200
    (QCheck.make
       QCheck.Gen.(
         let* spec = gen_lp in
         let* vidx = int_range 0 100 in
         let* side = bool in
         let* frac = float_range 0.05 0.95 in
         return (spec, vidx, side, frac)))
    (fun (spec, vidx, side, frac) ->
      let p, nvars = build_random_lp spec in
      let parent = Lp.Simplex.solve p in
      match (parent.Lp.Simplex.status, parent.Lp.Simplex.basis) with
      | Lp.Simplex.Optimal, Some basis ->
          let v = vidx mod nvars in
          let lo, hi = Lp.Problem.bounds p v in
          (* Tighten one side of one variable, like a B&B child. *)
          let cut = lo +. (frac *. (hi -. lo)) in
          if side then Lp.Problem.set_bounds p v ~lo ~hi:cut
          else Lp.Problem.set_bounds p v ~lo:cut ~hi;
          let warm = Lp.Simplex.resolve ~basis p in
          let cold = Lp.Simplex.solve p in
          (match (warm.Lp.Simplex.status, cold.Lp.Simplex.status) with
           | Lp.Simplex.Optimal, Lp.Simplex.Optimal ->
               Float.abs
                 (warm.Lp.Simplex.objective -. cold.Lp.Simplex.objective)
               < 1e-5
               && Lp.Simplex.primal_feasible ~eps:1e-5 p warm.Lp.Simplex.x
           | a, b -> a = b)
      | _ -> true (* parent not optimal: nothing to warm-start *))

let prop_min_is_neg_max =
  QCheck.Test.make ~name:"solve_min = -solve(max) on negated objective"
    ~count:80 (QCheck.make gen_lp) (fun spec ->
      let p1, _ = build_random_lp spec in
      let nvars, objs, rows = spec in
      let p2, _ = build_random_lp (nvars, List.map (fun o -> -.o) objs, rows) in
      let s_min = Lp.Simplex.solve_min p1 in
      let s_max = Lp.Simplex.solve p2 in
      match (s_min.Lp.Simplex.status, s_max.Lp.Simplex.status) with
      | Lp.Simplex.Optimal, Lp.Simplex.Optimal ->
          Float.abs (s_min.Lp.Simplex.objective +. s_max.Lp.Simplex.objective)
          < 1e-5
      | a, b -> a = b)

(* {2 Sparse core}

   The revised simplex on a factored basis is the only LP engine; the
   dense tableau stays compiled in as its cold fallback and as the
   reference {!Lp.Simplex.solve_dense}. These tests pin the {!Lp.Sparse}
   primitives and the equivalence / fallback contract the dispatcher
   promises. *)

(* Columns [0;1;2] form
       | 2 0 1 |
   B = | 1 3 0 |
       | 0 0 4 |  *)
let small_mat () =
  Lp.Sparse.of_rows ~cols:3
    [| [| (0, 2.0); (2, 1.0) |]; [| (0, 1.0); (1, 3.0) |]; [| (2, 4.0) |] |]

let test_sparse_ftran_btran () =
  let a = small_mat () in
  Alcotest.(check int) "rows" 3 (Lp.Sparse.rows a);
  Alcotest.(check int) "cols" 3 (Lp.Sparse.cols a);
  Alcotest.(check int) "nnz" 5 (Lp.Sparse.nnz a);
  let basic = [| 0; 1; 2 |] in
  let f =
    match Lp.Sparse.factorize a basic with
    | Some f -> f
    | None -> Alcotest.fail "non-singular basis must factorize"
  in
  Alcotest.(check int) "dim" 3 (Lp.Sparse.dim f);
  Alcotest.(check int) "fresh factor has no etas" 0 (Lp.Sparse.eta_count f);
  (* ftran solves B x = b; with b = (3, 7, 8), x = (1/2, 13/6, 2). *)
  let b = [| 3.0; 7.0; 8.0 |] in
  let x = Lp.Sparse.ftran f b in
  Alcotest.(check (float 1e-9)) "x0" 0.5 x.(0);
  Alcotest.(check (float 1e-9)) "x1" (13.0 /. 6.0) x.(1);
  Alcotest.(check (float 1e-9)) "x2" 2.0 x.(2);
  Alcotest.(check (float 1e-9)) "residual" 0.0
    (Lp.Sparse.basis_residual a basic ~x ~b);
  (* btran solves Bᵀ y = c; checked through col_dot, which is how the
     simplex consumes it: A_{basic(k)} · y must reproduce c.(k). *)
  let c = [| 1.0; -2.0; 0.5 |] in
  let y = Lp.Sparse.btran f c in
  Array.iteri
    (fun k j ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "col_dot basic(%d)" k)
        c.(k)
        (Lp.Sparse.col_dot a j y))
    basic

let test_sparse_update_matches_refactorize () =
  let a =
    Lp.Sparse.of_rows ~cols:4
      [|
        [| (0, 2.0); (2, 1.0); (3, 1.0) |];
        [| (0, 1.0); (1, 3.0); (3, -1.0) |];
        [| (2, 4.0); (3, 2.0) |];
      |]
  in
  let f = Option.get (Lp.Sparse.factorize a [| 0; 1; 2 |]) in
  (* Bring column 3 into basis position 1 via a product-form eta... *)
  let alpha = Lp.Sparse.ftran f (Lp.Sparse.col_to_dense a 3) in
  let f' =
    match Lp.Sparse.update f ~pos:1 ~alpha with
    | Some f' -> f'
    | None -> Alcotest.fail "well-conditioned update must succeed"
  in
  Alcotest.(check int) "one eta appended" 1 (Lp.Sparse.eta_count f');
  Alcotest.(check int) "original factor untouched" 0 (Lp.Sparse.eta_count f);
  (* ...and compare every solve direction against refactorizing the new
     basis from scratch: the eta file must be transparent. *)
  let g = Option.get (Lp.Sparse.factorize a [| 0; 3; 2 |]) in
  let b = [| 1.0; -2.0; 3.0 |] in
  let xu = Lp.Sparse.ftran f' b and xr = Lp.Sparse.ftran g b in
  Array.iteri
    (fun k v ->
      Alcotest.(check (float 1e-9)) (Printf.sprintf "ftran pos %d" k) v xu.(k))
    xr;
  let c = [| 0.5; 1.0; -1.0 |] in
  let yu = Lp.Sparse.btran f' c and yr = Lp.Sparse.btran g c in
  Array.iteri
    (fun i v ->
      Alcotest.(check (float 1e-9)) (Printf.sprintf "btran row %d" i) v yu.(i))
    yr

let test_sparse_singular_is_refused () =
  let a = Lp.Sparse.of_rows ~cols:3 [| [| (0, 1.0); (1, 2.0) |]; [||] |] in
  (* Columns 0 and 1 both live in row 0; column 2 is empty. *)
  Alcotest.(check bool) "dependent columns" true
    (Option.is_none (Lp.Sparse.factorize a [| 0; 1 |]));
  Alcotest.(check bool) "zero column" true
    (Option.is_none (Lp.Sparse.factorize a [| 0; 2 |]));
  (* A degenerate eta must be refused, not applied: its diagonal is the
     pivot the product form divides by. *)
  let b = Lp.Sparse.of_rows ~cols:2 [| [| (0, 1.0) |]; [| (1, 1.0) |] |] in
  let f = Option.get (Lp.Sparse.factorize b [| 0; 1 |]) in
  Alcotest.(check bool) "zero eta diagonal refused" true
    (Option.is_none (Lp.Sparse.update f ~pos:0 ~alpha:[| 0.0; 5.0 |]));
  Alcotest.(check bool) "non-finite eta refused" true
    (Option.is_none (Lp.Sparse.update f ~pos:0 ~alpha:[| 1.0; Float.nan |]))

let test_refactor_every_pivot_matches_dense () =
  (* refactor_interval = 1: every pivot immediately rebuilds the LU, so
     the eta machinery is maximally exercised against fresh factors.
     The answer must not move. *)
  let saved = !Lp.Simplex.refactor_interval in
  Fun.protect
    ~finally:(fun () -> Lp.Simplex.refactor_interval := saved)
    (fun () ->
      Lp.Simplex.refactor_interval := 1;
      let p, _ =
        build_random_lp
          ( 4,
            [ 1.0; -2.0; 0.5; 3.0 ],
            [
              ([ 1.0; 1.0; 1.0; 1.0 ], 2.0);
              ([ 1.0; -1.0; 2.0; 0.5 ], 1.0);
              ([ 0.5; 0.5; -1.0; 1.0 ], 3.0);
            ] )
      in
      let s = Lp.Simplex.solve p in
      let d = Lp.Simplex.solve_dense p in
      check_status d.Lp.Simplex.status s;
      Alcotest.(check (float 1e-6)) "same objective" d.Lp.Simplex.objective
        s.Lp.Simplex.objective)

let test_sparse_falls_back_on_numerical_error () =
  (* A NaN coefficient trips the sparse path's fail-fast; the dispatcher
     must hand the problem to the dense oracle (and count the handoff) —
     which then raises the same typed error. *)
  let p = Lp.Problem.create () in
  let x = Lp.Problem.add_var p ~lo:0.0 ~hi:1.0 ~obj:1.0 () in
  Lp.Problem.add_constraint p [ (x, Float.nan) ] Lp.Problem.Le 1.0;
  let before = Lp.Simplex.sparse_fallbacks () in
  Alcotest.(check bool) "still fails fast" true
    (raises_numerical_error (fun () -> Lp.Simplex.solve p));
  Alcotest.(check bool) "fallback counted" true
    (Lp.Simplex.sparse_fallbacks () > before);
  (* The warm path hands over the same way: a clean parent's basis
     replayed on a same-shape child with a NaN coefficient. *)
  let build c =
    let p = Lp.Problem.create () in
    let x = Lp.Problem.add_var p ~lo:0.0 ~hi:1.0 ~obj:1.0 () in
    Lp.Problem.add_constraint p [ (x, c) ] Lp.Problem.Le 1.0;
    p
  in
  let parent = Lp.Simplex.solve (build 1.0) in
  let basis = Option.get parent.Lp.Simplex.basis in
  let before = Lp.Simplex.sparse_fallbacks () in
  Alcotest.(check bool) "warm re-solve fails fast" true
    (raises_numerical_error (fun () ->
         Lp.Simplex.resolve ~basis (build Float.nan)));
  Alcotest.(check int) "one warm fallback counted" (before + 1)
    (Lp.Simplex.sparse_fallbacks ())

let test_sparse_corrupted_basis_falls_back () =
  (* Garbage snapshots under the sparse core: degrade to a cold solve
     that agrees with the dense oracle, never an error. *)
  let p = Lp.Problem.create () in
  let x = Lp.Problem.add_var p ~lo:0.0 ~hi:10.0 ~obj:3.0 () in
  let y = Lp.Problem.add_var p ~lo:0.0 ~hi:10.0 ~obj:2.0 () in
  let _z = Lp.Problem.add_var p ~lo:0.0 ~hi:1.0 ~obj:0.0 () in
  Lp.Problem.add_constraint p [ (x, 1.0); (y, 1.0) ] Lp.Problem.Le 4.0;
  let cold = Lp.Simplex.solve_dense p in
  List.iter
    (fun basis ->
      let r = Lp.Simplex.resolve ~basis p in
      check_status Lp.Simplex.Optimal r;
      Alcotest.(check bool) "fell back to cold" false r.Lp.Simplex.warm;
      Alcotest.(check (float 1e-9)) "same answer as dense cold"
        cold.Lp.Simplex.objective r.Lp.Simplex.objective)
    [
      { Lp.Simplex.bm = 7; bnstruct = 3; bbasic = [| 0; 1; 2; 3; 4; 5; 6 |];
        bupper = Array.make 10 false; bfactor = None };
      { Lp.Simplex.bm = 1; bnstruct = 3; bbasic = [| 99 |];
        bupper = Array.make 4 false; bfactor = None };
      { Lp.Simplex.bm = 1; bnstruct = 3; bbasic = [| 2 |];
        bupper = Array.make 4 false; bfactor = None };
    ]

let test_sparse_warm_farkas_ray () =
  (* Parent: max x + y st x + y >= 6, y - x <= 1 over [0,10]², optimum
     (10, 10). The child x <= 2 is infeasible only through both rows
     together (y >= 4 from the first, y <= 3 from the second); neither
     row alone is empty over the child box, so restore cannot see it and
     the dual simplex meets a row it cannot repair. Its ray passes the
     outward check, so the sparse core prunes warm, on its own
     evidence, with no dense re-solve. *)
  let p = Lp.Problem.create () in
  let x = Lp.Problem.add_var p ~lo:0.0 ~hi:10.0 ~obj:1.0 () in
  let y = Lp.Problem.add_var p ~lo:0.0 ~hi:10.0 ~obj:1.0 () in
  Lp.Problem.add_constraint p [ (x, 1.0); (y, 1.0) ] Lp.Problem.Ge 6.0;
  Lp.Problem.add_constraint p [ (y, 1.0); (x, -1.0) ] Lp.Problem.Le 1.0;
  let parent = Lp.Simplex.solve p in
  check_status Lp.Simplex.Optimal parent;
  let basis = Option.get parent.Lp.Simplex.basis in
  Lp.Problem.set_bounds p x ~lo:0.0 ~hi:2.0;
  let before = Lp.Simplex.sparse_fallbacks () in
  let r = Lp.Simplex.resolve ~basis p in
  check_status Lp.Simplex.Infeasible r;
  Alcotest.(check bool) "pruned on the warm path" true r.Lp.Simplex.warm;
  (match r.Lp.Simplex.cert with
   | Some (Lp.Simplex.Cert_farkas ray) ->
       Alcotest.(check bool) "ray passes the outward check" true
         (Lp.Simplex.farkas_certifies p ray)
   | _ -> Alcotest.fail "expected a Farkas certificate");
  Alcotest.(check int) "no dense fallback" before
    (Lp.Simplex.sparse_fallbacks ());
  check_status Lp.Simplex.Infeasible (Lp.Simplex.solve_dense p)

let test_sparse_stale_factor_probe () =
  (* A factored snapshot from problem A replayed against a same-shape
     problem B: the residual probe must reject the stale factor and the
     result must still match B's dense cold answer. *)
  let build c =
    let p = Lp.Problem.create () in
    let x = Lp.Problem.add_var p ~lo:0.0 ~hi:4.0 ~obj:1.0 () in
    let y = Lp.Problem.add_var p ~lo:0.0 ~hi:4.0 ~obj:2.0 () in
    Lp.Problem.add_constraint p [ (x, c); (y, 1.0) ] Lp.Problem.Le 4.0;
    Lp.Problem.add_constraint p [ (x, 1.0); (y, c) ] Lp.Problem.Le 6.0;
    p
  in
  let other = Lp.Simplex.solve (build (-1.0)) in
  let basis = Option.get other.Lp.Simplex.basis in
  Alcotest.(check bool) "sparse snapshot carries a factor" true
    (Option.is_some basis.Lp.Simplex.bfactor);
  let p = build 2.0 in
  let warm = Lp.Simplex.resolve ~basis p in
  let cold = Lp.Simplex.solve_dense p in
  check_status cold.Lp.Simplex.status warm;
  Alcotest.(check (float 1e-6)) "matches dense cold"
    cold.Lp.Simplex.objective warm.Lp.Simplex.objective

let test_problem_nnz_density () =
  let p = Lp.Problem.create () in
  Alcotest.(check int) "empty nnz" 0 (Lp.Problem.nnz p);
  Alcotest.(check (float 0.0)) "empty density" 0.0 (Lp.Problem.density p);
  let x = Lp.Problem.add_var p ~lo:0.0 ~hi:1.0 ~obj:1.0 () in
  let y = Lp.Problem.add_var p ~lo:0.0 ~hi:1.0 ~obj:1.0 () in
  let z = Lp.Problem.add_var p ~lo:0.0 ~hi:1.0 ~obj:1.0 () in
  Lp.Problem.add_constraint p [ (x, 1.0); (y, 2.0) ] Lp.Problem.Le 1.0;
  Lp.Problem.add_constraint p [ (z, 1.0) ] Lp.Problem.Ge 0.2;
  (* An exact-zero coefficient is merged away at build time. *)
  Lp.Problem.add_constraint p [ (x, 1.0); (y, 0.0); (z, -1.0) ]
    Lp.Problem.Le 0.5;
  Alcotest.(check int) "nnz" 5 (Lp.Problem.nnz p);
  Alcotest.(check (float 1e-12)) "density" (5.0 /. 9.0) (Lp.Problem.density p)

(* Equivalence properties: the sparse core must agree with the dense
   oracle on every random LP, cold and warm — the contract that lets
   branch & bound run sparse by default. *)
let prop_sparse_equals_dense_cold =
  QCheck.Test.make ~name:"sparse core = dense core (cold solve)" ~count:200
    (QCheck.make gen_lp) (fun spec ->
      let p, _ = build_random_lp spec in
      let s = Lp.Simplex.solve p in
      let d = Lp.Simplex.solve_dense p in
      match (s.Lp.Simplex.status, d.Lp.Simplex.status) with
      | Lp.Simplex.Optimal, Lp.Simplex.Optimal ->
          Float.abs (s.Lp.Simplex.objective -. d.Lp.Simplex.objective) < 1e-5
          && Lp.Simplex.primal_feasible ~eps:1e-5 p s.Lp.Simplex.x
      | a, b -> a = b)

let prop_sparse_resolve_equals_dense_cold =
  QCheck.Test.make
    ~name:"sparse warm resolve = dense cold solve after bound change"
    ~count:200
    (QCheck.make
       QCheck.Gen.(
         let* spec = gen_lp in
         let* vidx = int_range 0 100 in
         let* side = bool in
         let* frac = float_range 0.05 0.95 in
         return (spec, vidx, side, frac)))
    (fun (spec, vidx, side, frac) ->
      let p, nvars = build_random_lp spec in
      let parent = Lp.Simplex.solve p in
      match (parent.Lp.Simplex.status, parent.Lp.Simplex.basis) with
      | Lp.Simplex.Optimal, Some basis ->
          let v = vidx mod nvars in
          let lo, hi = Lp.Problem.bounds p v in
          let cut = lo +. (frac *. (hi -. lo)) in
          if side then Lp.Problem.set_bounds p v ~lo ~hi:cut
          else Lp.Problem.set_bounds p v ~lo:cut ~hi;
          let warm = Lp.Simplex.resolve ~basis p in
          let cold = Lp.Simplex.solve_dense p in
          (match (warm.Lp.Simplex.status, cold.Lp.Simplex.status) with
           | Lp.Simplex.Optimal, Lp.Simplex.Optimal ->
               Float.abs
                 (warm.Lp.Simplex.objective -. cold.Lp.Simplex.objective)
               < 1e-5
               && Lp.Simplex.primal_feasible ~eps:1e-5 p warm.Lp.Simplex.x
           | a, b -> a = b)
      | _ -> true)

(* {2 Same pivots}

   Golden values for the sparse core's exact behaviour: every pivot,
   and so every bit of every answer and certificate, is pinned. A change
   to the engine that is meant to be faster, not different, must leave
   all of these as they are. *)

let hex_digest s = String.sub (Digest.to_hex (Digest.string s)) 0 12

let bits_string a =
  String.concat ","
    (Array.to_list
       (Array.map (fun v -> Printf.sprintf "%Lx" (Int64.bits_of_float v)) a))

(* Everything a solve reports, as one string: status, iterations, path,
   objective bits, basic columns, and the bits of [x] and of the
   certificate. *)
let solution_summary (s : Lp.Simplex.solution) =
  let basis =
    match s.Lp.Simplex.basis with
    | None -> "-"
    | Some b ->
        String.concat ","
          (Array.to_list (Array.map string_of_int b.Lp.Simplex.bbasic))
  in
  let cert =
    match s.Lp.Simplex.cert with
    | None -> "-"
    | Some (Lp.Simplex.Cert_duals y) -> "d" ^ bits_string y
    | Some (Lp.Simplex.Cert_farkas y) -> "f" ^ bits_string y
    | Some (Lp.Simplex.Cert_empty_row i) -> "e" ^ string_of_int i
  in
  Printf.sprintf "%s %d %b %Lx [%s] %s %s"
    (status_name s.Lp.Simplex.status)
    s.Lp.Simplex.iterations s.Lp.Simplex.warm
    (Int64.bits_of_float s.Lp.Simplex.objective)
    basis
    (hex_digest (bits_string s.Lp.Simplex.x))
    (hex_digest cert)

(* Seeded sparse LPs shaped like the encoder's: a few terms per row,
   mixed senses, some fixed variables, a sparse objective. Each row
   holds at a hidden point of the box (equalities exactly), except that
   every tenth LP gains a contradictory pair of rows no single row's
   range exposes, so phase 1 has to find the ray. *)
let seeded_lp seed =
  let rng = Linalg.Rng.create (9000 + seed) in
  let p = Lp.Problem.create () in
  let nvars = 10 + Linalg.Rng.int rng 31 in
  let nrows = 8 + Linalg.Rng.int rng 25 in
  let point =
    Array.init nvars (fun _ ->
        let lo = Linalg.Rng.uniform rng (-3.0) 0.5 in
        let hi =
          if Linalg.Rng.int rng 12 = 0 then lo
          else lo +. Linalg.Rng.uniform rng 0.25 4.0
        in
        ignore (Lp.Problem.add_var p ~lo ~hi ~obj:0.0 ());
        lo +. Linalg.Rng.float rng 1.0 *. (hi -. lo))
  in
  let nobj = 1 + Linalg.Rng.int rng 4 in
  Lp.Problem.set_objective p
    (List.init nobj (fun _ ->
         (Linalg.Rng.int rng nvars, Linalg.Rng.uniform rng (-2.0) 2.0)));
  let random_terms () =
    List.init
      (2 + Linalg.Rng.int rng 5)
      (fun _ -> (Linalg.Rng.int rng nvars, Linalg.Rng.uniform rng (-2.0) 2.0))
  in
  let at_point terms =
    List.fold_left (fun acc (v, c) -> acc +. (c *. point.(v))) 0.0 terms
  in
  for _ = 1 to nrows do
    let terms = random_terms () in
    let act = at_point terms in
    match Linalg.Rng.int rng 10 with
    | 0 -> Lp.Problem.add_constraint p terms Lp.Problem.Eq act
    | 1 | 2 ->
        Lp.Problem.add_constraint p terms Lp.Problem.Ge
          (act -. Linalg.Rng.float rng 1.0)
    | _ ->
        Lp.Problem.add_constraint p terms Lp.Problem.Le
          (act +. Linalg.Rng.float rng 1.0)
  done;
  if seed mod 10 = 9 then begin
    let terms = random_terms () in
    let act = at_point terms in
    Lp.Problem.add_constraint p terms Lp.Problem.Le (act -. 0.5);
    Lp.Problem.add_constraint p terms Lp.Problem.Ge (act +. 0.5)
  end;
  p

(* Cold max, cold min, and a warm re-solve after one bound change that
   cuts the parent's optimum off; iteration counts in clear, the rest
   as a digest. *)
let seeded_lp_trace seed =
  let p = seeded_lp seed in
  let cold = Lp.Simplex.solve p in
  let mn = Lp.Simplex.solve_min p in
  let warm =
    match (cold.Lp.Simplex.status, cold.Lp.Simplex.basis) with
    | Lp.Simplex.Optimal, Some basis ->
        let v = seed mod Lp.Problem.num_vars p in
        let lo, hi = Lp.Problem.bounds p v in
        let x = cold.Lp.Simplex.x.(v) in
        if x > lo +. (0.5 *. (hi -. lo)) then
          Lp.Problem.set_bounds p v ~lo ~hi:(lo +. (0.3 *. (hi -. lo)))
        else Lp.Problem.set_bounds p v ~lo:(lo +. (0.7 *. (hi -. lo))) ~hi;
        Some (Lp.Simplex.resolve ~basis p)
    | _ -> None
  in
  let iters =
    Option.fold ~none:"-"
      ~some:(fun s -> string_of_int s.Lp.Simplex.iterations)
      warm
  in
  Printf.sprintf "%d/%d/%s %s" cold.Lp.Simplex.iterations
    mn.Lp.Simplex.iterations iters
    (hex_digest
       (String.concat "|"
          (List.map solution_summary
             (cold :: mn :: Option.to_list warm))))

let golden_seeded_lps =
  [|
    "35/38/0 2d797cab2139";
    "78/76/0 5ac720a8f63a";
    "35/34/2 ed0b3169d134";
    "47/45/0 0f9782efcba8";
    "29/33/1 f5271ad69ad6";
    "62/54/0 8b98f0392487";
    "49/46/0 89f419b50b78";
    "41/43/0 da3011fba000";
    "48/49/0 73e475a6e83f";
    "25/25/- c3173c6f8d9b";
    "18/17/0 cb5b361ef74f";
    "19/19/0 cf93c7d6e85d";
    "14/18/1 781abbfcfeb4";
    "20/24/2 26847425c532";
    "64/64/7 5e4cfaa2dbd4";
    "28/32/2 38d853bb462c";
    "17/15/2 e88622103dcf";
    "16/22/0 e050257fc1f5";
    "18/18/0 e962bc985624";
    "17/17/- ee403ee9467d";
    "46/46/5 30dd2bc03f5b";
    "16/19/0 58483e2ccbe2";
    "29/31/1 f761b8eafa57";
    "69/70/2 dafc6706378d";
    "44/40/0 b36a6d6d275c";
    "19/19/1 1e4a2cbf98d5";
    "24/22/2 e3f65e256217";
    "35/34/0 c375a1a59246";
    "30/36/0 163d689e67fe";
    "62/62/- 7e4229380eb0";
    "30/33/2 844375fd0e05";
    "40/41/2 c5b4ee242dd6";
    "44/51/11 d414fa432b7e";
    "23/20/0 c42a6f4646c6";
    "53/51/0 d897ce8c58d9";
    "54/59/4 afc72aba35f1";
    "53/46/0 acc4192ea6b1";
    "84/78/17 b362cf1442d1";
    "30/31/0 4f55f8273ae3";
    "33/33/- 93fc8299b623";
    "56/52/1 78505bd8b766";
    "31/32/2 04d3e24259df";
    "45/49/- f1e76a23ab74";
    "28/31/1 36a651982e9f";
    "37/34/0 c5b800bbe493";
    "80/76/0 7c07f3c72d6a";
    "18/19/0 78b8dd22b2c2";
    "51/46/0 0d4beeaa9a3a";
    "68/63/0 a6c8715ec9fa";
    "75/75/- 55928af6c219";
  |]

let test_seeded_lps_golden () =
  let got = Array.init 50 seeded_lp_trace in
  if got <> golden_seeded_lps then
    Alcotest.failf "seeded LP traces moved; now:\n%s"
      (String.concat "\n"
         (Array.to_list (Array.map (Printf.sprintf "    %S;") got)))

(* OBBT on a seeded I4x10 over the Table II box: every refined
   pre-activation bound, bit for bit. *)
let test_obbt_bounds_golden () =
  let net = Nn.Network.i4xn ~rng:(Linalg.Rng.create 31) 10 in
  let box = Verify.Scenario.vehicle_on_left ~slack:0.01 () in
  let enc = Encoding.Encoder.encode ~tighten_rounds:1 net box in
  let obbt = enc.Encoding.Encoder.obbt in
  let pre = enc.Encoding.Encoder.bounds.Encoding.Bounds.pre in
  let bits =
    String.concat ";"
      (Array.to_list
         (Array.map
            (fun layer ->
              bits_string
                (Array.concat
                   (Array.to_list
                      (Array.map
                         (fun (i : Interval.t) ->
                           [| i.Interval.lo; i.Interval.hi |])
                         layer))))
            pre))
  in
  Alcotest.(check string) "probes/refined/bound bits" "16/16/0 4fcb478f59c8"
    (Printf.sprintf "%d/%d/%d %s" obbt.Encoding.Encoder.probes
       obbt.Encoding.Encoder.refined obbt.Encoding.Encoder.failed
       (hex_digest bits))

(* The pivot row ρᵀA computed row by row is [col_dot] column by column,
   bit for bit wherever either is nonzero: the same additions in the
   same order, over ρ with zeros of both signs, cancelling terms and
   magnitudes whose products overflow or underflow. *)
let prop_row_product_is_col_dot =
  let entry =
    QCheck.Gen.(
      frequency
        [
          (6, float_range (-2.0) 2.0);
          (1, oneofl [ 1e300; -1e300; 1e-300; -1e-300; 0.5; -0.5 ]);
        ])
  in
  let gen =
    QCheck.Gen.(
      let* m = int_range 1 12 in
      let* cols = int_range 1 15 in
      let* rows =
        list_size (return m)
          (list_size (int_range 0 cols) (pair (int_range 0 (cols - 1)) entry))
      in
      let* rho =
        list_size (return m)
          (frequency [ (3, entry); (1, return 0.0); (1, return (-0.0)) ])
      in
      let* signs = list_size (return m) (oneofl [ 1.0; -1.0 ]) in
      let* units = bool in
      return (m, cols, rows, rho, signs, units))
  in
  QCheck.Test.make ~name:"row-wise pivot row = col_dot, bit for bit"
    ~count:500 (QCheck.make gen)
    (fun (_m, cols, rows, rho, signs, units) ->
      (* One entry per column and row, as a problem's rows have; a
         repeated column copies an earlier row's value with its sign
         flipped, so sums cancel. *)
      let rows =
        Array.of_list
          (List.mapi
             (fun i r ->
               let seen = Hashtbl.create 8 in
               Array.of_list
                 (List.filter_map
                    (fun (j, v) ->
                      if Hashtbl.mem seen j then None
                      else begin
                        Hashtbl.add seen j ();
                        Some (j, if i mod 2 = 1 && j mod 3 = 0 then -.v else v)
                      end)
                    r))
             rows)
      in
      let a = Lp.Sparse.of_rows ~cols rows in
      let a =
        if units then Lp.Sparse.with_units a (Array.of_list signs) else a
      in
      let rho = Array.of_list rho in
      let out = Array.make (Lp.Sparse.cols a) nan in
      Lp.Sparse.row_product a rho out;
      let ok = ref true in
      for j = 0 to Lp.Sparse.cols a - 1 do
        let c = Lp.Sparse.col_dot a j rho in
        if (out.(j) <> 0.0 || c <> 0.0)
           && Int64.bits_of_float out.(j) <> Int64.bits_of_float c
        then ok := false
      done;
      !ok)

(* A problem that gains a row (or a variable) after a solve must then
   solve to the answer a fresh build of the same problem gives; a copy
   taken before the change keeps the old answer. *)
let test_problem_grows_after_solve () =
  let add_var p = ignore (Lp.Problem.add_var p ~lo:(-1.0) ~hi:2.0 ~obj:0.5 ()) in
  let add_row p =
    let n = Lp.Problem.num_vars p in
    Lp.Problem.add_constraint p
      [ (0, 1.0); (1, -1.0); (n - 1, 0.5) ] Lp.Problem.Le (-0.25)
  in
  let fresh grow =
    let p = seeded_lp 7 in
    List.iter (fun g -> g p) grow;
    Lp.Simplex.solve p
  in
  let same what a b =
    Alcotest.(check string) what (solution_summary b) (solution_summary a)
  in
  let p = seeded_lp 7 in
  let before = Lp.Simplex.solve p in
  let q = Lp.Problem.copy p in
  add_row p;
  same "row added after a solve = fresh build" (Lp.Simplex.solve p)
    (fresh [ add_row ]);
  same "copy taken before keeps its rows" (Lp.Simplex.solve q) before;
  let r = seeded_lp 7 in
  ignore (Lp.Simplex.solve r);
  add_var r;
  same "variable added after a solve = fresh build" (Lp.Simplex.solve r)
    (fresh [ add_var ]);
  add_row r;
  same "then a row = fresh build" (Lp.Simplex.solve r)
    (fresh [ add_var; add_row ])

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "lp"
    [
      ( "simplex",
        [
          quick "basic max" test_basic_max;
          quick "equality row" test_equality_row;
          quick "minimization" test_minimization;
          quick "infeasible" test_infeasible;
          quick "infeasible via bounds" test_infeasible_via_bounds;
          quick "bounds only" test_bounds_only;
          quick "negative bounds" test_negative_bounds;
          quick "fixed variable" test_fixed_variable;
          quick "equality chain" test_equality_chain;
          quick "duplicate terms" test_duplicate_terms_merged;
          quick "degenerate ties" test_degenerate_many_ties;
          quick "nan coefficient" test_nan_coefficient_fails_fast;
          quick "nan rhs" test_nan_rhs_fails_fast;
          quick "nan objective" test_nan_objective_fails_fast;
        ] );
      ( "warm start",
        [
          quick "resolve after bound change" test_resolve_after_bound_change;
          quick "resolve infeasible child" test_resolve_detects_infeasible_child;
          quick "corrupted basis falls back"
            test_resolve_corrupted_basis_falls_back;
          quick "stale basis falls back" test_resolve_stale_basis_falls_back;
        ] );
      ( "sparse core",
        [
          quick "ftran/btran" test_sparse_ftran_btran;
          quick "eta update = refactorize" test_sparse_update_matches_refactorize;
          quick "singular refused" test_sparse_singular_is_refused;
          quick "refactor every pivot" test_refactor_every_pivot_matches_dense;
          quick "numerical error falls back"
            test_sparse_falls_back_on_numerical_error;
          quick "corrupted basis falls back"
            test_sparse_corrupted_basis_falls_back;
          quick "stale factor probe" test_sparse_stale_factor_probe;
          quick "warm farkas ray" test_sparse_warm_farkas_ray;
        ] );
      ( "problem",
        [
          quick "validation" test_problem_validation;
          quick "copy independent" test_problem_copy_independent;
          quick "bound journal nested" test_bound_journal_nested;
          quick "bound journal solve" test_bound_journal_protects_solve;
          quick "nnz and density" test_problem_nnz_density;
          quick "grows after a solve" test_problem_grows_after_solve;
        ] );
      ( "same pivots",
        [
          quick "seeded LPs" test_seeded_lps_golden;
          quick "OBBT bounds" test_obbt_bounds_golden;
          QCheck_alcotest.to_alcotest prop_row_product_is_col_dot;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_random_lp_optimal_dominates;
            prop_min_is_neg_max;
            prop_resolve_equals_cold_after_bound_change;
            prop_sparse_equals_dense_cold;
            prop_sparse_resolve_equals_dense_cold;
          ] );
    ]
