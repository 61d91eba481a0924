type witness = {
  input : Linalg.Vec.t;
  outputs : Linalg.Vec.t;
  achieved : float;
  component : int;
}

type max_result = {
  value : float option;
  upper_bound : float;
  optimal : bool;
  timed_out : bool;
  witness : witness option;
  elapsed : float;
  component_elapsed : float array;
  nodes : int;
  lp_iterations : int;
  unstable_neurons : int;
  encoder_stats : Encoding.Encoder.stats;
  obbt : Encoding.Encoder.obbt_stats;
}

(* Equal-share budget slicing used to be a bare
   [remaining / queue_len], which underflows to a near-zero slice once
   the queue holds hundreds of partition leaves — every query then hits
   its time limit during the root relaxation and the whole queue
   degenerates into instant Unknowns. The floor gives every query a
   slice worth starting; clamping to the live remaining time keeps the
   whole-call deadline binding, and unused share still rolls forward
   because callers recompute the slice from the clock as each query
   starts. *)
let min_query_slice = 0.2

let budget_slice ?now ~deadline ~queue_len () =
  let now = match now with Some t -> t | None -> Linalg.Mclock.now () in
  let remaining = Float.max 0.0 (deadline -. now) in
  Float.min remaining
    (Float.max min_query_slice (remaining /. float_of_int (max 1 queue_len)))

let witness_at net ~component ~output input =
  let outputs = Nn.Network.forward net input in
  { input; outputs; achieved = outputs.(output); component }

(* The analysis upper bound on output [k] over the whole box: the last
   post-activation bound of the encoding. Sound in every bound mode and
   tightest under [Symbolic_bounds] — this is what the incomplete
   pre-pass and the solver-bound capping read. *)
let output_upper enc k =
  let post = enc.Encoding.Encoder.bounds.Encoding.Bounds.post in
  post.(Array.length post - 1).(k).Interval.hi

(* The branch-aware analysis callback: only the symbolic analyzer can
   re-propagate a node's fixed ReLU phases, so the hook exists only in
   [Symbolic_bounds] mode. *)
let node_bound_for ~bound_mode enc net box ~output =
  match bound_mode with
  | Encoding.Encoder.Symbolic_bounds ->
      Some (Encoding.Encoder.symbolic_node_bound enc net box ~output)
  | Encoding.Encoder.Interval_bounds | Encoding.Encoder.Coarse _ -> None

(* Maximise a set of output coordinates one by one over the same
   encoding; the overall maximum is the max of the per-coordinate
   results.

   Budget contract: [time_limit] covers *everything* — OBBT tightening
   during [encode] and every output query. OBBT may take at most half
   the budget. Sequentially ([cores = 1] or a single query) each query
   gets an equal share of whatever is left *at the moment it starts*,
   so time unspent by fast early queries (or by cheap OBBT) rolls over
   to later ones. With [cores > 1] and several queries, the queries
   themselves run concurrently on the worker domains and each receives
   an equal share of the remaining budget up front — the shares are
   spent in parallel, so the wall-clock total still respects the
   caller's limit. Either way the total can never exceed the limit by
   more than one node's slack. *)
let maximize_outputs ?(time_limit = 60.0)
    ?(bound_mode = Encoding.Encoder.Interval_bounds) ?(tighten_rounds = 1)
    ?(cores = 1) ?portfolio ?lp_core ~outputs:output_indices net box =
  let started = Linalg.Mclock.now () in
  let deadline = started +. time_limit in
  let enc =
    Encoding.Encoder.encode ~bound_mode ~tighten_rounds
      ~tighten_budget:(0.5 *. time_limit) ~cores ?lp_core net box
  in
  let priority = Encoding.Encoder.layer_order_priority enc in
  let queries = Array.of_list output_indices in
  let n_queries = Array.length queries in
  let run_query ~cores ~portfolio ~per_query_limit k =
    (* Any relaxation point projects to a feasible incumbent: forward-
       run the network on its input block. *)
    let primal_heuristic relaxation =
      let input = Encoding.Encoder.input_point enc relaxation in
      let point = Encoding.Encoder.assignment_of_input enc net input in
      Some (point, point.(enc.Encoding.Encoder.output_vars.(k)))
    in
    Milp.Solver.solve ~cores ?portfolio ~time_limit:per_query_limit
      ~branch_rule:(Milp.Solver.Priority priority) ~primal_heuristic
      ?node_bound:(node_bound_for ~bound_mode enc net box ~output:k)
      ~objective:(Encoding.Encoder.output_objective enc k)
      ?lp_core enc.Encoding.Encoder.model
  in
  let results =
    if cores > 1 && n_queries > 1 && portfolio = None then begin
      (* Per-component parallelism: the queries fan out over the worker
         domains (each solving sequentially inside — no nested domain
         oversubscription, so the inner solves carry no portfolio
         either), every query granted an equal share of the remaining
         budget up front. An explicit portfolio split takes the other
         branch: the caller asked for within-query parallelism. *)
      (* Shares are spent concurrently, so the slice is sized for one
         domain's sequential chain of queries, not for the whole queue —
         which also stops under-granting by a factor of [cores]. *)
      let fan_cores = min cores n_queries in
      let per_domain = (n_queries + fan_cores - 1) / fan_cores in
      let share = budget_slice ~deadline ~queue_len:per_domain () in
      Milp.Parallel.map ~cores:fan_cores
        ~init:(fun () -> ())
        (fun () k -> run_query ~cores:1 ~portfolio:None ~per_query_limit:share k)
        queries
    end
    else begin
      let results = Array.make n_queries None in
      for qi = 0 to n_queries - 1 do
        let per_query_limit =
          budget_slice ~deadline ~queue_len:(n_queries - qi) ()
        in
        results.(qi) <-
          Some (run_query ~cores ~portfolio ~per_query_limit queries.(qi))
      done;
      Array.map (function Some r -> r | None -> assert false) results
    end
  in
  let best_value = ref None and best_witness = ref None in
  let upper = ref neg_infinity in
  let any_timeout = ref false and all_optimal = ref true in
  let nodes = ref 0 and lp_iters = ref 0 in
  let component_elapsed = Array.make n_queries 0.0 in
  Array.iteri
    (fun qi r ->
      let k = queries.(qi) in
      component_elapsed.(qi) <- r.Milp.Solver.elapsed;
      nodes := !nodes + r.Milp.Solver.nodes;
      lp_iters := !lp_iters + r.Milp.Solver.lp_iterations;
      (match r.Milp.Solver.outcome with
       | Milp.Solver.Optimal -> ()
       | Milp.Solver.Time_limit | Milp.Solver.Node_limit ->
           any_timeout := true;
           all_optimal := false
       | Milp.Solver.Infeasible ->
           (* An empty box cannot happen for well-formed scenarios; treat
              as an unfinished query. *)
           all_optimal := false);
      (* Two sound upper bounds on this output — the solver's and the
         analysis one — so the tighter of the two stands. *)
      upper :=
        Float.max !upper
          (Float.min r.Milp.Solver.best_bound (output_upper enc k));
      match r.Milp.Solver.incumbent with
      | Some (solution, objective) ->
          let better =
            match !best_value with None -> true | Some v -> objective > v
          in
          if better then begin
            best_value := Some objective;
            best_witness :=
              Some
                (witness_at net ~component:qi ~output:k
                   (Encoding.Encoder.input_point enc solution))
          end
      | None -> ())
    results;
  {
    value = !best_value;
    upper_bound = !upper;
    optimal = !all_optimal && !best_value <> None;
    timed_out = !any_timeout;
    witness = !best_witness;
    elapsed = Linalg.Mclock.now () -. started;
    component_elapsed;
    nodes = !nodes;
    lp_iterations = !lp_iters;
    unstable_neurons = enc.Encoding.Encoder.stats.Encoding.Encoder.unstable;
    encoder_stats = enc.Encoding.Encoder.stats;
    obbt = enc.Encoding.Encoder.obbt;
  }

let max_lateral_velocity ?time_limit ?bound_mode ?tighten_rounds ?cores
    ?portfolio ?lp_core ~components net box =
  let outputs =
    List.init components (fun k -> Nn.Gmm.mu_lat_index ~components k)
  in
  maximize_outputs ?time_limit ?bound_mode ?tighten_rounds ?cores ?portfolio
    ?lp_core ~outputs net box

let maximize_output ?time_limit ?bound_mode ?tighten_rounds ?cores ?portfolio
    ?lp_core ~output net box =
  maximize_outputs ?time_limit ?bound_mode ?tighten_rounds ?cores ?portfolio
    ?lp_core ~outputs:[ output ] net box

type proof = Proved | Disproved of witness | Unknown of { best_bound : float }

type proof_result = {
  proof : proof;
  proof_elapsed : float;
  proof_nodes : int;
  presolved : int;
  certified : int;
  resumed : int;
  degraded : int;
  partition : Partition.stats option;
}

(* {2 Sessions}

   The encoding memo (see driver.mli) is sound because a session never
   applies OBBT (the encoding depends only on the key) and the solver
   copies the LP before mutating it. *)
type session = {
  session_net : Nn.Network.t;
  session_net_hash : string;
  mutable session_enc :
    ((Encoding.Encoder.bound_mode * (float * float) array
     * Lp.Simplex.core option)
    * Encoding.Encoder.t)
    option;
}

let create_session net =
  { session_net = net; session_net_hash = Nn.Io.content_hash net;
    session_enc = None }

let session_net s = s.session_net
let session_net_hash s = s.session_net_hash

(* {2 The settle ladder}

   One walk over the leaf boxes takes every component down store,
   revalidation, resume, presolve, MILP and Unknown (driver.mli states
   the contract). The evidence sink is the only switch. With a sink
   every settled component leaves a replayable certificate and a
   fsynced journal line, so a kill at any instant loses at most the
   component in flight. Certificates must be independently rebuildable,
   so the sink alone forces [tighten_rounds = 0] (an OBBT-tightened
   model embeds thousands of LP conclusions the checker would have to
   take on faith) and searches without analysis node bounds (prunes
   against a bound the certificate cannot replay would be
   [Leaf_uncertified]): certified campaigns trade speed for
   auditability. The search itself keeps [cores] and [portfolio], since
   every worker streams its closed leaves. One disproved leaf disproves
   the parent (its witness lies inside the leaf box, hence inside the
   parent box). *)

module Cert = Certify.Certificate
module Journal = Certify.Journal
module Store = Certify.Store

type query = {
  net : Nn.Network.t;
  session : session option;
  net_hash : string Lazy.t;
  bound_mode : Encoding.Encoder.bound_mode;
  tighten_rounds : int;
  cores : int;
  portfolio : (int * int) option;
  lp_core : Lp.Simplex.core option;
  watchdog : bool;
  components : int;
  threshold : float;
}

(* Where a leaf's certificates go, and the question they answer. *)
type sink = { dir : string; property : Cert.property; prop_hash : string }

let output_of q k = Nn.Gmm.mu_lat_index ~components:q.components k

let bounds box =
  Array.map (fun (iv : Interval.t) -> (iv.Interval.lo, iv.Interval.hi)) box

let sink_at q dir_of box =
  let p =
    { Cert.threshold = q.threshold; components = q.components;
      bound_mode = Certify.Checker.mode_string q.bound_mode; box = bounds box }
  in
  let prop_hash = Cert.property_hash ~net_hash:(Lazy.force q.net_hash) p in
  { dir = dir_of prop_hash; property = p; prop_hash }

(* A disproving input from the store names no component: it is
   attributed to the one it drives highest. *)
let stored_witness q input =
  let out = Nn.Network.forward q.net input in
  let k =
    List.fold_left
      (fun b c -> if out.(output_of q c) > out.(output_of q b) then c else b)
      0 (List.init q.components Fun.id)
  in
  witness_at q.net ~component:k ~output:(output_of q k) input

(* Same budget contract as [maximize_outputs]: OBBT spends at most half
   of the leaf's limit, the rest is re-split before each query. *)
let encode q ~time_limit box =
  let fresh () =
    Encoding.Encoder.encode ~bound_mode:q.bound_mode
      ~tighten_rounds:q.tighten_rounds ~tighten_budget:(0.5 *. time_limit)
      ~cores:q.cores ?lp_core:q.lp_core q.net box
  in
  let key = (q.bound_mode, bounds box, q.lp_core) in
  match q.session with
  | Some { session_enc = Some (k, enc); _ } when k = key -> enc
  | session ->
      let enc = fresh () in
      Option.iter (fun s -> s.session_enc <- Some (key, enc)) session;
      enc

let witness_body w =
  lazy (Cert.Witness { input = w.input; achieved = w.achieved })

(* One leaf down the ladder; also returns the rung that settled it, for
   the partition stats. [upper] is an analysis bound over the whole
   leaf known before it is encoded (the planner's; [infinity] for an
   unplanned box): a leaf it discharges needs no encoding. *)
let settle_leaf q ~store ~sink ~resume ~attempt ~time_limit ~upper box =
  let started = Linalg.Mclock.now () and threshold = q.threshold in
  let deadline = started +. time_limit in
  let nodes = ref 0 and presolved = ref 0 and certified = ref 0 in
  let resumed = ref 0 and degraded = ref 0 in
  let enc = lazy (encode q ~time_limit box) in
  let analysis k =
    if upper <= threshold then upper
    else output_upper (Lazy.force enc) (output_of q k)
  in
  let journal s k verdict cert_file =
    Journal.append ~dir:s.dir
      { Journal.component = k; verdict; cert_file;
        net_hash = Lazy.force q.net_hash; prop_hash = s.prop_hash }
  in
  (* Write a certificate, then its journal line, after the exact replay
     the independent audit runs: evidence that fails it is still written
     (the rejection stays explainable) but journaled [unknown], so no
     resume or serve cache ever trusts a verdict whose own evidence does
     not replay. [true] when it replays, and always without a sink. *)
  let emit k body =
    match sink with
    | None -> true
    | Some s ->
        let body = Lazy.force body in
        let cert =
          { Cert.net_hash = Lazy.force q.net_hash; property = s.property;
            component = k; output = output_of q k; body }
        in
        let ok = Result.is_ok (Certify.Audit.check_certificate q.net cert) in
        let name = Printf.sprintf "component-%d.cert" k in
        Journal.write_cert ~dir:s.dir ~name (Cert.to_string cert);
        journal s k
          (if not ok then "unknown"
           else match body with Cert.Witness _ -> "disproved" | _ -> "proved")
          (Some name);
        if ok then incr certified;
        ok
  in
  (* The symbolic upper bounding form is only built when some component
     is actually discharged by presolve. *)
  let symbolic = lazy (Absint.Symbolic.propagate q.net box) in
  (* A component whose analysis bound already meets the threshold is
     discharged with zero search nodes (under [Symbolic_bounds] this
     alone often proves the property). A sink certifies it with the
     analysis's bounding hyperplane if that survives the audit's
     outward-rounded replay; a marginal bound (analysis [<=], replay
     [>]) must not settle on unreplayable evidence, so it falls through
     to the MILP rung, whose tree certificate replays leaf by leaf. *)
  let presolve k bound =
    bound <= threshold
    && emit k
         (lazy
           (let coeffs, const =
              Absint.Symbolic.output_upper_form (Lazy.force symbolic) q.net
                ~output:(output_of q k)
            in
            Cert.Presolve { coeffs; const; bound }))
  in
  let search k ~share ~bound =
    let enc = Lazy.force enc and output = output_of q k in
    let share_end = Linalg.Mclock.now () +. share in
    let model = enc.Encoding.Encoder.model in
    let objective = Encoding.Encoder.output_objective enc output in
    let branch_rule =
      Milp.Solver.Priority (Encoding.Encoder.layer_order_priority enc)
    in
    (* A rung streams every closed search leaf as evidence when
       certificates are wanted, and takes the analysis node bound
       otherwise. *)
    let solve lp_core ~time_limit =
      let leaves = ref [] in
      let collect fixes c = leaves := Cert.leaf_of_search fixes c :: !leaves in
      let node_bound, on_leaf =
        match sink with
        | None ->
            ( node_bound_for ~bound_mode:q.bound_mode enc q.net box ~output,
              None )
        | Some _ -> (None, Some collect)
      in
      let r =
        Milp.Solver.solve ~cores:q.cores ?portfolio:q.portfolio ~time_limit
          ~cutoff:threshold ~branch_rule ~objective ?node_bound ?on_leaf
          ?lp_core model
      in
      (r, Array.of_list (List.rev !leaves))
    in
    let rec fall = function
      | [] -> `Bound bound
      | lp_core :: lower -> (
          let time_limit =
            if lower = [] then Float.max 0.0 (share_end -. Linalg.Mclock.now ())
            else 0.6 *. share
          in
          match solve lp_core ~time_limit with
          | exception (Lp.Simplex.Numerical_error _ | Failure _)
            when q.watchdog ->
              incr degraded;
              fall lower
          | r, leaves -> (
              nodes := !nodes + r.Milp.Solver.nodes;
              match (r.Milp.Solver.incumbent, r.Milp.Solver.outcome) with
              | Some (solution, _), _ ->
                  (* A feasible point above the cutoff refutes the
                     property. *)
                  let w =
                    witness_at q.net ~component:k ~output
                      (Encoding.Encoder.input_point enc solution)
                  in
                  ignore (emit k (witness_body w));
                  `Disproved w
              | None, Milp.Solver.Optimal ->
                  ignore
                    (emit k
                       (lazy
                         (let model_hash = Cert.model_fingerprint model in
                          Cert.Milp_tree { model_hash; leaves })));
                  `Proved
              | None, _ when lower = [] ->
                  `Bound (Float.min r.Milp.Solver.best_bound bound)
              | None, _ ->
                  incr degraded;
                  fall lower))
    in
    fall
      (if q.watchdog then [ Some Lp.Simplex.Sparse; Some Lp.Simplex.Dense ]
       else [ q.lp_core ])
  in
  let settled = Hashtbl.create 8 in
  let rec ladder worst = function
    | [] ->
        if worst <= threshold then Proved else Unknown { best_bound = worst }
    | k :: rest as queue -> (
        match Hashtbl.find_opt settled k with
        | Some { Cert.body = Cert.Witness { input; _ }; _ } ->
            incr resumed;
            Disproved
              (witness_at q.net ~component:k ~output:(output_of q k) input)
        | Some _ ->
            incr resumed;
            ladder (Float.max worst threshold) rest
        | None when presolve k (analysis k) ->
            incr presolved;
            ladder (Float.max worst (analysis k)) rest
        | None -> (
            let share =
              budget_slice ~deadline ~queue_len:(List.length queue) ()
            in
            match search k ~share ~bound:(analysis k) with
            | `Disproved w -> Disproved w
            | `Proved -> ladder (Float.max worst threshold) rest
            | `Bound b ->
                Option.iter (fun s -> journal s k "unknown" None) sink;
                ladder (Float.max worst b) rest))
  in
  let result proof via =
    ( { proof; proof_elapsed = Linalg.Mclock.now () -. started;
        proof_nodes = !nodes; presolved = !presolved; certified = !certified;
        resumed = !resumed; degraded = !degraded; partition = None },
      via )
  in
  let climb () =
    if not attempt then
      (* Out of budget: an honest unattempted Unknown — paying the leaf
         encoding would overrun the whole-call deadline. *)
      result (Unknown { best_bound = upper }) `Unsettled
    else begin
      (* Resume: the last journal entry per component, admitted only on a
         certificate that still backs it; anything else is re-proved. *)
      (match sink with
       | Some s when resume ->
           let net_hash = Lazy.force q.net_hash and prop_hash = s.prop_hash in
           List.iter
             (fun (e : Journal.entry) ->
               Result.iter (Hashtbl.replace settled e.Journal.component)
                 (Journal.trusted ~dir:s.dir ~net_hash ~prop_hash e))
             (Journal.latest (Journal.load ~dir:s.dir))
       | _ -> ());
      match ladder neg_infinity (List.init q.components Fun.id) with
      | Proved when !presolved = q.components && !nodes = 0 ->
          result Proved `Presolved
      | (Proved | Disproved _) as proof -> result proof `Solved
      | Unknown _ as proof -> result proof `Unsettled
    end
  in
  match (store, sink) with
  | Some st, Some s -> (
      let net_hash = Lazy.force q.net_hash in
      match Store.lookup st ~net_hash s.property with
      | Some { Store.entry = { Store.verdict = Store.Proved; _ }; _ } ->
          result Proved `Cached
      | Some { Store.entry = { Store.verdict = Store.Disproved d; _ }; _ } ->
          result (Disproved (stored_witness q d.witness)) `Cached
      | None ->
          (* Another network's entry for this leaf question is never
             served as-is, but its disproving witness replays through
             this network in one forward pass, which makes re-verifying
             after a retrain or a weight nudge mostly O(1); a proved one
             revalidates through the presolve rung. The replayed witness
             is self-checked and journaled like any other, so the shard
             audit never trusts the foreign entry. *)
          let others = Store.revalidation_candidates st ~net_hash s.property in
          let replayed (e : Store.entry) =
            match e.Store.verdict with
            | Store.Disproved { witness; _ }
              when Interval.Box.contains box witness ->
                let w = stored_witness q witness in
                if w.achieved > threshold then Some w else None
            | _ -> None
          in
          let r, via =
            match List.find_map replayed others with
            | Some w when emit w.component (witness_body w) ->
                result (Disproved w) `Revalidated
            | _ -> climb ()
          in
          ignore (Store.record st ~net_hash s.property);
          let proved (e : Store.entry) = e.Store.verdict = Store.Proved in
          let revalidated = via = `Presolved && List.exists proved others in
          (r, if revalidated then `Revalidated else via))
  | _ -> climb ()

let decide q ~split ~store ~certify_dir ~resume ~time_limit box =
  let started = Linalg.Mclock.now () in
  let deadline = started +. time_limit in
  (* Planning is cheap symbolic work, but it must never starve the
     solves it feeds: a quarter of the budget at most. *)
  let plan =
    Option.map
      (fun policy ->
        Partition.plan ~policy ~deadline:(started +. (0.25 *. time_limit))
          ~components:q.components ~threshold:q.threshold q.net box)
      split
  in
  (* A partitioned run certifies into a store (the caller's, or one
     opened on the certification directory), one directory per leaf. *)
  let store =
    match (store, certify_dir) with
    | _ when plan = None -> None
    | None, Some dir -> Some (Store.open_ ~dir)
    | s, _ -> s
  in
  let boxes, upper =
    match plan with
    | None -> ([| box |], [| infinity |])
    | Some p -> (p.Partition.boxes, p.Partition.upper)
  in
  let sinks =
    Array.map
      (fun b ->
        match (store, certify_dir) with
        | Some st, _ -> Some (sink_at q (Filename.concat (Store.root st)) b)
        | None, dir -> Option.map (fun dir -> sink_at q (fun _ -> dir) b) dir)
      boxes
  in
  (* The manifest pins the split tree, so [depnn audit] re-establishes
     the tiling as well as the leaf verdicts. It goes down before any
     leaf is attempted: a killed campaign still audits (to Unknown), and
     a re-run of the same question overwrites it with identical bytes. *)
  (match (store, plan) with
   | Some st, Some p ->
       let parent = sink_at q Fun.id box in
       Journal.write_cert ~dir:(Store.root st)
         ~name:(Certify.Shard.manifest_name ~prop_hash:parent.prop_hash)
         (Certify.Shard.to_string
            { Certify.Shard.net_hash = Lazy.force q.net_hash;
              property = parent.property; tree = p.Partition.tree;
              leaf_hashes =
                Array.map (fun s -> (Option.get s).prop_hash) sinks })
   | _ -> ());
  let n = Array.length boxes in
  (* Without a sink the leaves fan out over the worker domains, each
     solving sequentially (no nested oversubscription); an explicit
     portfolio keeps them in turn, as within-query parallelism. *)
  let fan =
    if sinks.(0) = None && q.portfolio = None then max 1 (min q.cores n)
    else 1
  in
  let leaf_q = if fan > 1 then { q with cores = 1; portfolio = None } else q in
  let stop = Atomic.make false in
  let settle () i =
    if Atomic.get stop then None
    else
      (* Leaves are claimed in order, [n - i] are left: an equal share of
         the time left, per domain when they fan out (shares are spent
         concurrently); unused time rolls forward. *)
      let time_limit =
        budget_slice ~deadline ~queue_len:((n - i + fan - 1) / fan) ()
      in
      let r, via =
        settle_leaf leaf_q ~store ~sink:sinks.(i) ~time_limit ~upper:upper.(i)
          ~resume:(resume || plan <> None) boxes.(i)
          ~attempt:
            (plan = None || upper.(i) <= q.threshold
            || Linalg.Mclock.now () < deadline)
      in
      let bound =
        match r.proof with
        | Proved -> Float.min upper.(i) q.threshold
        | Unknown { best_bound } -> best_bound
        | Disproved _ -> Atomic.set stop true; neg_infinity
      in
      Some (r, via, bound)
  in
  let leaves =
    Milp.Parallel.map ~cores:fan ~init:ignore settle (Array.init n Fun.id)
    |> Array.to_list |> List.filter_map Fun.id
  in
  let count v = List.length (List.filter (fun (_, u, _) -> u = v) leaves) in
  let sum f = List.fold_left (fun acc (r, _, _) -> acc + f r) 0 leaves in
  let worst = List.fold_left (fun w (_, _, b) -> Float.max w b) neg_infinity in
  let disproof (r, _, _) =
    match r.proof with Disproved w -> Some w | _ -> None
  in
  {
    proof =
      (match List.find_map disproof leaves with
       | Some w -> Disproved w
       | None when count `Unsettled = 0 && worst leaves <= q.threshold ->
           Proved
       | None -> Unknown { best_bound = worst leaves });
    proof_elapsed = Linalg.Mclock.now () -. started;
    proof_nodes = sum (fun r -> r.proof_nodes);
    presolved = sum (fun r -> r.presolved);
    certified = sum (fun r -> r.certified);
    resumed = sum (fun r -> r.resumed);
    degraded = sum (fun r -> r.degraded);
    partition =
      Option.map
        (fun (p : Partition.plan) ->
          { Partition.leaves = n; depth = p.plan_depth; cached = count `Cached;
            presolved = count `Presolved; revalidated = count `Revalidated;
            solved = count `Solved; unsettled = count `Unsettled })
        plan;
  }

let prove_lateral_velocity_le ?(time_limit = 60.0)
    ?(bound_mode = Encoding.Encoder.Interval_bounds) ?(tighten_rounds = 1)
    ?(cores = 1) ?portfolio ?lp_core ?certify_dir ?(resume = false)
    ?(watchdog = false) ?split ?store ~components ~threshold net box =
  (* OBBT is off under a sink (see above), and per leaf under a split:
     its budget share would dominate hundreds of small boxes, and the
     planner's symbolic pre-pass is what partitioning relies on. *)
  decide
    { net; session = None; net_hash = lazy (Nn.Io.content_hash net);
      tighten_rounds =
        (if certify_dir = None && split = None then tighten_rounds else 0);
      bound_mode; cores; portfolio; lp_core; watchdog; components; threshold }
    ~split ~store ~certify_dir ~resume ~time_limit box

let prove_in_session session ?(time_limit = 60.0)
    ?(bound_mode = Encoding.Encoder.Interval_bounds) ?lp_core ?certify_dir
    ?(resume = false) ?(watchdog = true) ?split ?store ~components ~threshold
    box =
  decide
    { net = session.session_net; session = Some session;
      net_hash = Lazy.from_val session.session_net_hash; bound_mode;
      tighten_rounds = 0; cores = 1; portfolio = None; lp_core; watchdog;
      components; threshold }
    ~split ~store ~certify_dir ~resume ~time_limit box

let sampled_max_lateral_velocity ~rng ~samples ~components net box =
  if samples <= 0 then invalid_arg "Driver.sampled_max_lateral_velocity";
  let best = ref neg_infinity and best_input = ref [||] in
  for _ = 1 to samples do
    let x = Interval.Box.sample box rng in
    let out = Nn.Network.forward net x in
    let v =
      List.fold_left
        (fun acc k -> Float.max acc out.(Nn.Gmm.mu_lat_index ~components k))
        neg_infinity
        (List.init components Fun.id)
    in
    if v > !best then begin
      best := v;
      best_input := x
    end
  done;
  (!best, !best_input)
