type bound_mode = Interval_bounds | Symbolic_bounds

let symbolic_bounds net box =
  let s = Absint.Symbolic.propagate net box in
  { Bounds.pre = s.Absint.Symbolic.pre; post = s.Absint.Symbolic.post }

type stats = {
  stable_active : int;
  stable_inactive : int;
  unstable : int;
  rows : int;
  cols : int;
  nnz : int;
  density : float;
}

type obbt_stats = {
  probes : int;
  refined : int;
  failed : int;
  skipped_budget : int;
}

let no_obbt = { probes = 0; refined = 0; failed = 0; skipped_budget = 0 }

type neuron = {
  z : Milp.Model.var;
  relu : (Milp.Model.var * Milp.Model.var) option;
}

type t = {
  model : Milp.Model.t;
  input_vars : Milp.Model.var array;
  output_vars : Milp.Model.var array;
  binaries : (Milp.Model.var * int * int) list;
  neurons : neuron array array;
  bounds : Bounds.t;
  stats : stats;
  obbt : obbt_stats;
}

(* How a neuron's post-activation enters the next layer: either a model
   variable or the constant zero (stable-inactive neurons need no
   variable at all). *)
type repr = Var of Milp.Model.var | Zero

(* Bounds straight out of interval arithmetic can be violated by a few
   ulps once the LP works in floating point; widen them slightly. *)
let widen (i : Interval.t) =
  let pad v = 1e-6 +. (1e-9 *. Float.abs v) in
  Interval.make (i.Interval.lo -. pad i.Interval.lo) (i.Interval.hi +. pad i.Interval.hi)

let build net box (bounds : Bounds.t) =
  let model = Milp.Model.create () in
  let input_vars =
    Array.mapi
      (fun i (iv : Interval.t) ->
        Milp.Model.add_continuous model
          ~name:(Printf.sprintf "x%d" i)
          ~lo:iv.Interval.lo ~hi:iv.Interval.hi ())
      box
  in
  let binaries = ref [] in
  let stable_active = ref 0 and stable_inactive = ref 0 and unstable = ref 0 in
  let nlayers = Nn.Network.num_layers net in
  let previous = ref (Array.map (fun v -> Var v) input_vars) in
  let neurons = Array.make nlayers [||] in
  for li = 0 to nlayers - 1 do
    let layer = Nn.Network.layer net li in
    let weights = layer.Nn.Layer.weights and bias = layer.Nn.Layer.bias in
    let out_dim = Nn.Layer.output_dim layer in
    let pre_vars =
      Array.init out_dim (fun r ->
          let zb = widen bounds.Bounds.pre.(li).(r) in
          let z =
            Milp.Model.add_continuous model
              ~name:(Printf.sprintf "z_%d_%d" li r)
              ~lo:zb.Interval.lo ~hi:zb.Interval.hi ()
          in
          (* z = sum_j w_rj * a_prev_j + b_r *)
          let terms = ref [ (z, -1.0) ] in
          Array.iteri
            (fun j repr ->
              match repr with
              | Var a ->
                  let w = Linalg.Mat.get weights r j in
                  if w <> 0.0 then terms := (a, w) :: !terms
              | Zero -> ())
            !previous;
          Milp.Model.add_eq model !terms (-.bias.(r));
          z)
    in
    let relu = Array.make out_dim None in
    let post =
      match layer.Nn.Layer.activation with
      | Nn.Activation.Identity ->
          Array.map (fun z -> Var z) pre_vars
      | Nn.Activation.Relu ->
          Array.init out_dim (fun r ->
              let zb = bounds.Bounds.pre.(li).(r) in
              match Bounds.relu_stability zb with
              | Bounds.Stable_active ->
                  incr stable_active;
                  Var pre_vars.(r)
              | Bounds.Stable_inactive ->
                  incr stable_inactive;
                  Zero
              | Bounds.Unstable ->
                  incr unstable;
                  let lo = zb.Interval.lo and hi = zb.Interval.hi in
                  let a =
                    Milp.Model.add_continuous model
                      ~name:(Printf.sprintf "a_%d_%d" li r)
                      ~lo:0.0
                      ~hi:(Float.max 0.0 hi +. 1e-6)
                      ()
                  in
                  let d =
                    Milp.Model.add_binary model
                      ~name:(Printf.sprintf "d_%d_%d" li r)
                      ()
                  in
                  binaries := (d, li, r) :: !binaries;
                  relu.(r) <- Some (a, d);
                  let z = pre_vars.(r) in
                  (* a >= z *)
                  Milp.Model.add_ge model [ (a, 1.0); (z, -1.0) ] 0.0;
                  (* a <= U d *)
                  Milp.Model.add_le model [ (a, 1.0); (d, -.hi) ] 0.0;
                  (* a <= z - L (1 - d) *)
                  Milp.Model.add_le model
                    [ (a, 1.0); (z, -1.0); (d, -.lo) ]
                    (-.lo);
                  Var a)
      | (Nn.Activation.Tanh | Nn.Activation.Sigmoid) as act ->
          invalid_arg
            (Printf.sprintf
               "Encoder.encode: activation %s is not piecewise linear; only \
                relu/identity networks are MILP-encodable"
               (Nn.Activation.name act))
    in
    neurons.(li) <- Array.mapi (fun r z -> { z; relu = relu.(r) }) pre_vars;
    previous := post
  done;
  let output_vars =
    Array.map
      (function
        | Var v -> v
        | Zero ->
            (* An always-zero output still needs a variable to expose. *)
            Milp.Model.add_continuous model ~name:"zero_out" ~lo:0.0 ~hi:0.0 ())
      !previous
  in
  (* Build the constraint set's column form while the model is still
     private: OBBT's probes and every search copy the model, and the
     copies share it, so it is built once per encoding rather than once
     per copy, and searches fanned out over one encoding never write to
     it. *)
  ignore (Lp.Problem.form (Milp.Model.lp model));
  {
    model;
    input_vars;
    output_vars;
    binaries = List.rev !binaries;
    neurons;
    bounds;
    stats =
      (* Sparsity of the emitted LP: each big-M row touches one
         neuron's fan-in plus a handful of bookkeeping variables, so
         density collapses as networks widen — the figure that makes
         the sparse LP core pay off. Reported so bench claims are
         auditable from [depnn_cli verify] output. *)
      (let lp = Milp.Model.lp model in
       let rows = Lp.Problem.num_constraints lp in
       let cols = Lp.Problem.num_vars lp in
       {
         stable_active = !stable_active;
         stable_inactive = !stable_inactive;
         unstable = !unstable;
         rows;
         cols;
         nnz = Lp.Problem.nnz lp;
         density = Lp.Problem.density lp;
       });
    obbt = no_obbt;
  }

(* LP-based bound tightening (OBBT): for every unstable neuron,
   maximise and minimise its pre-activation over the LP relaxation of
   the current encoding and intersect with the interval bounds. The LP
   relaxation over-approximates the network's graph, so the refined
   bounds stay sound, while the tightened big-M constants both stabilise
   neurons outright and strengthen the relaxation the branch & bound
   searches on.

   Probes are independent of one another (each only changes the private
   copy's objective), so with [cores > 1] they fan out across a domain
   pool; the shared model is never mutated. *)
let refine_bounds_lp ?(budget = infinity) ?(cores = 1) t net box =
  let started = Linalg.Mclock.now () in
  let lp = Milp.Model.lp t.model in
  let nlayers = Nn.Network.num_layers net in
  let pre = Array.map Array.copy t.bounds.Bounds.pre in
  let targets = ref [] in
  for li = nlayers - 2 downto 0 do
    let layer = Nn.Network.layer net li in
    if layer.Nn.Layer.activation = Nn.Activation.Relu then
      for r = Array.length pre.(li) - 1 downto 0 do
        if Bounds.relu_stability pre.(li).(r) = Bounds.Unstable then
          targets := (li, r, t.neurons.(li).(r).z) :: !targets
      done
  done;
  (* A probe that runs out of wall-clock budget is *skipped*, which is a
     different outcome from an LP that ran and failed: truncated OBBT is
     an operator tuning signal (raise the budget), failed OBBT is a
     solver health signal. Both leave the interval bound in place. *)
  let probe problem (li, r, z) =
    if Linalg.Mclock.now () -. started >= budget then `Skipped_budget
    else begin
      Lp.Problem.set_objective problem [ (z, 1.0) ];
      let up = Lp.Simplex.solve problem in
      let down = Lp.Simplex.solve_min problem in
      match (up.Lp.Simplex.status, down.Lp.Simplex.status) with
      | Lp.Simplex.Optimal, Lp.Simplex.Optimal ->
          `Refined (li, r, down.Lp.Simplex.objective, up.Lp.Simplex.objective)
      | (Lp.Simplex.Optimal | Lp.Simplex.Infeasible
         | Lp.Simplex.Iteration_limit), _ ->
          `Failed
    end
  in
  let outcomes =
    Milp.Parallel.map ~cores
      ~init:(fun () -> Lp.Problem.copy lp)
      probe
      (Array.of_list !targets)
  in
  let refined_n = ref 0 and failed_n = ref 0 and skipped_n = ref 0 in
  Array.iter
    (function
      | `Refined (li, r, down_obj, up_obj) ->
          incr refined_n;
          let iv = pre.(li).(r) in
          let lo = Float.max iv.Interval.lo (down_obj -. 1e-6) in
          let hi = Float.min iv.Interval.hi (up_obj +. 1e-6) in
          if lo <= hi then pre.(li).(r) <- Interval.make lo hi
      | `Failed -> incr failed_n
      | `Skipped_budget -> incr skipped_n)
    outcomes;
  let stats =
    {
      probes = Array.length outcomes;
      refined = !refined_n;
      failed = !failed_n;
      skipped_budget = !skipped_n;
    }
  in
  (* Re-propagate forward, intersecting with the refined pre-bounds, so
     downstream layers benefit from upstream tightening. *)
  let post = Array.make nlayers [||] in
  let current = ref box in
  for li = 0 to nlayers - 1 do
    let layer = Nn.Network.layer net li in
    let weights = layer.Nn.Layer.weights and bias = layer.Nn.Layer.bias in
    let z =
      Array.init (Nn.Layer.output_dim layer) (fun r ->
          let propagated =
            Interval.affine (Linalg.Mat.row weights r) bias.(r) !current
          in
          match Interval.intersect propagated pre.(li).(r) with
          | Some refined -> refined
          | None -> propagated)
    in
    pre.(li) <- z;
    post.(li) <- Array.map (Nn.Activation.interval layer.Nn.Layer.activation) z;
    current := post.(li)
  done;
  ({ Bounds.pre; post }, stats)

let encode ?(bound_mode = Interval_bounds) ?(tighten_rounds = 0)
    ?(tighten_budget = infinity) ?(cores = 1) net box =
  if Array.length box <> Nn.Network.input_dim net then
    invalid_arg "Encoder.encode: box dimension mismatch";
  let bounds =
    match bound_mode with
    | Interval_bounds -> Bounds.propagate net box
    | Symbolic_bounds -> symbolic_bounds net box
  in
  let started = Linalg.Mclock.now () in
  let acc = ref no_obbt in
  (* Exhausted budget still runs the round: every remaining probe then
     reports [skipped_budget], so the caller can tell truncated OBBT
     apart from OBBT that ran and failed. *)
  let rec tighten rounds t =
    if rounds <= 0 then t
    else begin
      let remaining = tighten_budget -. (Linalg.Mclock.now () -. started) in
      let refined, stats =
        refine_bounds_lp ~budget:(Float.max 0.0 remaining) ~cores t net box
      in
      acc :=
        {
          probes = !acc.probes + stats.probes;
          refined = !acc.refined + stats.refined;
          failed = !acc.failed + stats.failed;
          skipped_budget = !acc.skipped_budget + stats.skipped_budget;
        };
      tighten (rounds - 1) (build net box refined)
    end
  in
  let t = tighten tighten_rounds (build net box bounds) in
  { t with obbt = !acc }

(* Objective terms maximising output coordinate [k]; pure data, meant to
   be passed per solve call ([Milp.Solver.solve ~objective]) so the
   shared encoding is never mutated and queries can fan out. *)
let output_objective t k = [ (t.output_vars.(k), 1.0) ]

(* Branch-aware symbolic re-propagation for [Milp.Solver.solve
   ~node_bound]: a node's fixed binaries are ReLU phase decisions, so
   re-running the DeepPoly analyzer on the phase-restricted region gives
   an independent sound upper bound on output [output] over the whole
   subtree. The LP relaxation uses the *root* big-M constants; the
   re-propagation recomputes every bound downstream of a fix, which is
   what lets it prune subtrees the LP bound cannot. Pure and
   allocation-only, hence safe to call concurrently from worker
   domains. *)
let symbolic_node_bound t net box ~output =
  let binary = Hashtbl.create 64 in
  List.iter (fun (v, li, r) -> Hashtbl.replace binary v (li, r)) t.binaries;
  (* Computed eagerly: [lazy] would race when the closure is shared by
     worker domains ({!Milp.Solver.solve} calls it concurrently). *)
  let root_bound =
    let s = Absint.Symbolic.propagate net box in
    (Absint.Symbolic.output_bounds s).(output).Interval.hi
  in
  fun fixes ->
    let phases = Absint.Symbolic.no_phases net in
    let fixed = ref false in
    List.iter
      (fun (v, lo, hi) ->
        match Hashtbl.find_opt binary v with
        | Some (li, r) ->
            (* d = 0 forces the neuron inactive (a = 0); d = 1 forces
               a = z >= 0. A binary is fixed at most once per path. *)
            if hi <= 0.5 then begin
              phases.(li).(r) <- Absint.Symbolic.Fixed_inactive;
              fixed := true
            end
            else if lo >= 0.5 then begin
              phases.(li).(r) <- Absint.Symbolic.Fixed_active;
              fixed := true
            end
        | None -> ())
      fixes;
    if not !fixed then Some root_bound
    else
      match Absint.Symbolic.propagate_phases ~phases net box with
      | None -> Some neg_infinity (* the fixes contradict the bounds *)
      | Some s ->
          Some (Absint.Symbolic.output_bounds s).(output).Interval.hi

let layer_order_priority t =
  let table = Hashtbl.create 64 in
  List.iter (fun (v, layer, _) -> Hashtbl.replace table v layer) t.binaries;
  fun v -> try Hashtbl.find table v with Not_found -> max_int

let input_point t solution =
  Array.map (fun v -> solution.(v)) t.input_vars

let assignment_of_input t net x =
  let trace = Nn.Network.forward_trace net x in
  let point = Array.make (Milp.Model.num_vars t.model) 0.0 in
  Array.iteri (fun i v -> point.(v) <- x.(i)) t.input_vars;
  Array.iteri
    (fun li layer ->
      let pre = trace.Nn.Network.pre.(li) in
      Array.iteri
        (fun r n ->
          point.(n.z) <- pre.(r);
          match n.relu with
          | Some (a, d) ->
              point.(a) <- trace.Nn.Network.post.(li).(r);
              point.(d) <- (if pre.(r) > 0.0 then 1.0 else 0.0)
          | None -> ())
        layer)
    t.neurons;
  point

let check_faithful t net x =
  Lp.Simplex.primal_feasible ~eps:1e-5 (Milp.Model.lp t.model)
    (assignment_of_input t net x)
