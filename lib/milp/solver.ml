(* Branch & bound on a pool of OCaml 5 domains.

   Worker domains pull open nodes from a shared pool, publish the
   incumbent through an [Atomic], and prune against it. The workers are
   split into a portfolio of two groups sharing that incumbent:

   - provers run the shared best-first pool (mutex-protected max-heap,
     condition-variable wakeups), driving the proven bound down;
   - divers run depth-first on a private LIFO stack — the inactive-
     neuron side first, cf. {!Search.branch} — producing feasible
     incumbents early. A diver steals from the shared heap when its
     stack empties and donates its shallowest entries back when the
     stack exceeds [dive_open], so the provers are never starved.

   Every diver incumbent immediately prunes the provers through the
   shared atomic, and vice versa: the portfolio attacks time-to-first-
   incumbent without giving up the best-first bound proof. One core is
   one prover on the calling domain, which pops the heap in plain
   best-first order.

   Each domain owns a private copy of the root LP plus its own simplex
   workspace; a node is evaluated through the {!Lp.Problem} bound
   journal (O(depth) bound writes), so nothing is copied per node and
   domains never share mutable LP state.

   Robustness: a worker that raises while evaluating a node pushes the
   node — and, for a diver, its whole private stack — back into the
   shared heap, bumps [failed_workers] and retires; the search only
   fails as a whole when every domain has died (see the degradation
   contract in the interface). *)

type outcome = Optimal | Infeasible | Time_limit | Node_limit

type result = {
  outcome : outcome;
  incumbent : (float array * float) option;
  best_bound : float;
  nodes : int;
  elapsed : float;
  lp_iterations : int;
  failed_workers : int;
  first_incumbent_nodes : int option;
  first_incumbent_elapsed : float option;
}

type branch_rule = Search.branch_rule =
  | Most_fractional
  | Priority of (Model.var -> int)
  | Pseudo_first of int array

type leaf_cert =
  | Leaf_bounded of float array
  | Leaf_infeasible of float array
  | Leaf_empty_row of int
  | Leaf_uncertified of string

(* A diver's private stack is bounded: past this many open nodes the
   shallowest entries are donated back to the shared heap, where the
   best-first provers (or an idle diver) pick them up. The stack grows
   by one sibling per dive level, so the bound must sit well below the
   typical dive depth (#unstable neurons, 20+ even on the smoke model)
   or the diver hoards the whole tree and the provers starve — 4 keeps
   the current dive path private and streams every shallower sibling,
   the nodes with the best bounds, out to the provers. *)
let dive_open = 4

let solve ?(cores = 1) ?portfolio ?(time_limit = infinity)
    ?(node_limit = max_int) ?(eps = 1e-6) ?(int_eps = 1e-6)
    ?(branch_rule = Most_fractional) ?(cutoff = neg_infinity)
    ?primal_heuristic ?node_bound ?objective ?(warm = true) ?lp_core ?on_leaf
    model =
  let divers, provers =
    match portfolio with
    | Some (divers, provers) ->
        if divers < 0 || provers < 0 || divers + provers < 1 then
          invalid_arg
            "Milp.Solver.solve: portfolio needs divers >= 0, provers >= 0 \
             and at least one worker";
        (divers, provers)
    | None -> if cores <= 1 then (0, 1) else (1, cores - 1)
  in
  let workers = divers + provers in
  let base = Model.lp model in
  let ints = Model.integer_vars model in
  let start = Linalg.Mclock.now () in
  let pool = Search.Heap.create () in
  Search.Heap.push pool Search.root;
  let mutex = Mutex.create () in
  let work_available = Condition.create () in
  (* Guarded by [mutex]: the count of open nodes living outside the
     shared heap — nodes under evaluation plus nodes parked in diver
     stacks — and the stop reason once a limit fires. The search is
     exhausted exactly when the heap is empty and [in_flight] is 0;
     because parked diver nodes are counted, no worker can conclude
     termination while any private stack is nonempty. *)
  let in_flight = ref 0 in
  let stopped : outcome option ref = ref None in
  let failure : exn option ref = ref None in
  let failed = ref 0 in
  (* Incumbent published to every domain; monotone under CAS. *)
  let best : (float array * float) option Atomic.t = Atomic.make None in
  let nodes = Atomic.make 0 in
  let lp_iters = Atomic.make 0 in
  let first : (int * float) option Atomic.t = Atomic.make None in
  let incumbent_value () =
    match Atomic.get best with Some (_, v) -> v | None -> cutoff
  in
  let rec offer point value =
    let cur = Atomic.get best in
    let cur_v = match cur with Some (_, v) -> v | None -> cutoff in
    if value > cur_v +. eps then
      if Atomic.compare_and_set best cur (Some (point, value)) then begin
        (* Exactly one CAS wins the None -> Some transition, so the
           first-incumbent stamp has a single writer. *)
        if cur = None then
          Atomic.set first
            (Some (Atomic.get nodes, Linalg.Mclock.now () -. start))
      end
      else offer point value
  in
  (* Certificate stream: every closed subtree (a leaf of the explored
     tree) is reported to [on_leaf] with the branching fixes that define
     it and the evidence that closes it, one call at a time under the
     pool mutex. The collector replays the evidence independently;
     anything it cannot replay is [Leaf_uncertified] and downgrades the
     proof honestly. *)
  let leaf fixes cert =
    match on_leaf with
    | Some f -> Mutex.protect mutex (fun () -> f fixes cert)
    | None -> ()
  in
  let relax_leaf fixes (relax : Lp.Simplex.solution) ~bounded =
    match relax.Lp.Simplex.cert with
    | Some (Lp.Simplex.Cert_duals y) when bounded ->
        leaf fixes (Leaf_bounded y)
    | Some (Lp.Simplex.Cert_farkas y) when not bounded ->
        leaf fixes (Leaf_infeasible y)
    | Some (Lp.Simplex.Cert_empty_row i) when not bounded ->
        leaf fixes (Leaf_empty_row i)
    | Some _ | None ->
        leaf fixes
          (Leaf_uncertified
             (if bounded then "lp optimum carried no dual certificate"
              else "lp infeasibility carried no certificate"))
  in
  (* The one node step, on the domain-private [problem]: prune against
     the incumbent, the analysis bound, the warm or cold LP, the primal
     heuristic, then branch (the children to enqueue) or close the node
     with its evidence ([Some []]). [None]: the LP stopped at its
     iteration limit, which decides nothing about the subtree, so the
     node must stay open. *)
  let evaluate problem node =
    let fixes = node.Search.fixes in
    if node.Search.parent_bound <= incumbent_value () +. eps then begin
      (* Pruned by an incumbent published after this node was queued. *)
      leaf fixes (Leaf_uncertified "pruned against a later incumbent");
      Some []
    end
    else begin
      Atomic.incr nodes;
      (* Independent analysis bound over the node's subtree (e.g.
         symbolic re-propagation of its fixed ReLU phases); callers
         promise it is domain-safe. When it already prunes, the node
         costs no LP at all; otherwise it caps the LP bound below. *)
      let analysis_cap =
        match node_bound with Some f -> f fixes | None -> None
      in
      match analysis_cap with
      | Some b when b <= incumbent_value () +. eps ->
          leaf fixes (Leaf_uncertified "pruned by the analysis bound");
          Some []
      | _ ->
          Search.with_node_bounds problem node (fun () ->
              (* Basis snapshots are immutable values, so a node stolen
                 from another domain warm-starts on this domain's private
                 LP copy without any sharing hazard. Factored snapshots
                 ride along: the sparse core re-uses a stolen node's LU +
                 eta file directly after an O(nnz) consistency probe. *)
              let relax =
                match (if warm then node.Search.parent_basis else None) with
                | Some b -> Lp.Simplex.resolve ?core:lp_core ~basis:b problem
                | None -> Lp.Simplex.solve ?core:lp_core problem
              in
              ignore
                (Atomic.fetch_and_add lp_iters relax.Lp.Simplex.iterations);
              match relax.Lp.Simplex.status with
              | Lp.Simplex.Iteration_limit -> None
              | Lp.Simplex.Infeasible ->
                  relax_leaf fixes relax ~bounded:false;
                  Some []
              | Lp.Simplex.Optimal ->
                  let lp_bound = relax.Lp.Simplex.objective in
                  (* The subtree bound is the tighter of the LP relaxation
                     and the analysis cap; a feasible integral point still
                     scores its true LP value. *)
                  let bound =
                    match analysis_cap with
                    | Some b -> Float.min b lp_bound
                    | None -> lp_bound
                  in
                  (* Caller-supplied rounding heuristic: project the
                     relaxation point onto a feasible integral one. *)
                  (match primal_heuristic with
                   | Some heuristic ->
                       Option.iter
                         (fun (point, value) -> offer point value)
                         (heuristic relax.Lp.Simplex.x)
                   | None -> ());
                  if bound > incumbent_value () +. eps then begin
                    match
                      Search.select_branch_var branch_rule ints int_eps
                        relax.Lp.Simplex.x
                    with
                    | None ->
                        (* Integral: new incumbent. *)
                        offer relax.Lp.Simplex.x lp_bound;
                        leaf fixes (Leaf_uncertified "integral incumbent");
                        Some []
                    | Some v ->
                        let xv = relax.Lp.Simplex.x.(v) in
                        let lo, hi = Lp.Problem.bounds problem v in
                        Some
                          (Search.branch node ~v ~xv ~lo ~hi ~bound
                             ~basis:
                               (if warm then relax.Lp.Simplex.basis else None))
                  end
                  else begin
                    if lp_bound <= incumbent_value () +. eps then
                      (* Pruned by the LP bound itself: the duals
                         certify it. *)
                      relax_leaf fixes relax ~bounded:true
                    else
                      (* Pruned only through the analysis cap — the LP
                         duals certify a looser bound, so there is no
                         replayable evidence for this prune. *)
                      leaf fixes
                        (Leaf_uncertified "pruned by the analysis cap");
                    Some []
                  end)
    end
  in
  let worker ~diver () =
    let problem = Lp.Problem.copy base in
    Option.iter (Lp.Problem.set_objective problem) objective;
    (* A diver explores depth-first on this private stack, bounded at
       [dive_open] with overflow donated to the shared heap. A prover is
       the degenerate diver with a zero-capacity stack: every child it
       pushes lands straight in the shared best-first heap, so both
       roles share one code path. [donate] runs only from push/drain
       calls made with [mutex] held. *)
    let private_pool =
      Search.Pool.depth_first
        ~max_open:(if diver then dive_open else 0)
        ~donate:(Search.Heap.push pool) ()
    in
    (* Pop the next node — own stack first, then the shared heap —
       sleeping while both are empty but open nodes exist elsewhere
       (their children may land here). Called and returning with [mutex]
       held. Private-stack nodes are already counted in [in_flight];
       heap pops enter it. *)
    let rec next () =
      if !stopped <> None then None
      else
        match Search.Pool.pop private_pool with
        | Some n -> Some n
        | None -> (
            match Search.Heap.pop pool with
            | Some n ->
                incr in_flight;
                Some n
            | None ->
                if !in_flight = 0 then None
                else begin
                  Condition.wait work_available mutex;
                  next ()
                end)
    in
    (* Return the private stack to the shared heap so the final open
       bound still covers those subtrees. With [mutex] held. *)
    let flush_private () =
      let stranded = Search.Pool.drain private_pool in
      List.iter (Search.Heap.push pool) stranded;
      in_flight := !in_flight - List.length stranded
    in
    let retire children =
      Mutex.protect mutex (fun () ->
          let kept_before = Search.Pool.size private_pool in
          List.iter (Search.Pool.push private_pool) children;
          (* Children kept on the private stack stay in [in_flight];
             donated ones moved to the heap, and the evaluated node
             itself retires. *)
          in_flight :=
            !in_flight + (Search.Pool.size private_pool - kept_before) - 1;
          Condition.broadcast work_available)
    in
    (* Put an unfinished node — and a diver its whole stack — back so
       the final open bound still covers them, then record why. *)
    let hand_back node record =
      Mutex.protect mutex (fun () ->
          Search.Heap.push pool node;
          decr in_flight;
          flush_private ();
          record ();
          Condition.broadcast work_available)
    in
    let abort node reason =
      hand_back node (fun () -> if !stopped = None then stopped := Some reason)
    in
    let rec loop () =
      Mutex.lock mutex;
      match next () with
      | None ->
          (* Another worker may have fired a limit while this one's
             stack still held nodes: hand them back before leaving. *)
          flush_private ();
          Condition.broadcast work_available;
          Mutex.unlock mutex
      | Some node -> (
          Mutex.unlock mutex;
          if Linalg.Mclock.now () -. start > time_limit then
            abort node Time_limit
          else if Atomic.get nodes >= node_limit then abort node Node_limit
          else
            match evaluate problem node with
            | Some children ->
                retire children;
                loop ()
            | None ->
                (* The LP stalled: closing the node would claim its whole
                   subtree without evidence, so the search stops with
                   the node still open. *)
                abort node Node_limit
            | exception e ->
                (* Degrade instead of killing the whole search: the node
                   and any parked private nodes go back (so the open-node
                   bound still covers their subtrees and [best_bound]
                   stays sound), the loss is recorded, and this domain
                   retires while the others keep draining the pool. The
                   exception is re-raised after the join only if every
                   worker died. *)
                hand_back node (fun () ->
                    incr failed;
                    if !failure = None then failure := Some e))
    in
    loop ()
  in
  (* Workers 0 .. divers-1 dive, the rest prove; worker 0 runs on the
     calling domain. *)
  let domains =
    Array.init (workers - 1) (fun i ->
        Domain.spawn (worker ~diver:(i + 1 < divers)))
  in
  worker ~diver:(divers > 0) ();
  Array.iter Domain.join domains;
  (* All domains lost: there is nobody left to make progress, so the
     degraded-result contract cannot be honoured — propagate. *)
  (match !failure with Some e when !failed >= workers -> raise e | _ -> ());
  let incumbent = Atomic.get best in
  let open_bound =
    match Search.Heap.peek_bound pool with Some b -> b | None -> neg_infinity
  in
  {
    outcome =
      (match !stopped with
       | Some o -> o
       | None ->
           (* Exhausted search: with a finite cutoff, an empty incumbent
              is a proof that the optimum is <= cutoff, not
              infeasibility. *)
           if incumbent = None && cutoff = neg_infinity then Infeasible
           else Optimal);
    incumbent;
    best_bound = Float.max (incumbent_value ()) open_bound;
    nodes = Atomic.get nodes;
    elapsed = Linalg.Mclock.now () -. start;
    lp_iterations = Atomic.get lp_iters;
    failed_workers = !failed;
    first_incumbent_nodes = Option.map fst (Atomic.get first);
    first_incumbent_elapsed = Option.map snd (Atomic.get first);
  }

let solve_min ?cores ?portfolio ?time_limit ?node_limit ?eps ?int_eps
    ?branch_rule ?cutoff ?primal_heuristic ?node_bound ?objective ?warm
    ?lp_core model =
  (* Negate the objective on a private copy of the model, maximise, then
     report back in min sense. The caller's model is never touched, so
     concurrent solves over the same model are safe and an exception
     cannot leave the objective negated. An explicit objective override
     is negated the same way before it lands on [solve]'s private copy. *)
  let minned = Model.copy model in
  let problem = Model.lp minned in
  let n = Lp.Problem.num_vars problem in
  let original = Lp.Problem.objective problem in
  let negated = List.init n (fun v -> (v, -.original.(v))) in
  Lp.Problem.set_objective problem negated;
  let neg_objective =
    Option.map (List.map (fun (v, c) -> (v, -.c))) objective
  in
  let neg_heuristic =
    Option.map
      (fun h x -> Option.map (fun (p, v) -> (p, -.v)) (h x))
      primal_heuristic
  in
  (* A min-sense node bound is a lower bound on the subtree minimum;
     negated it is an upper bound on the negated-objective maximum. *)
  let neg_node_bound =
    Option.map
      (fun f fixes -> Option.map (fun b -> -.b) (f fixes))
      node_bound
  in
  let r =
    solve ?cores ?portfolio ?time_limit ?node_limit ?eps ?int_eps
      ?branch_rule
      ?cutoff:(Option.map (fun c -> -.c) cutoff)
      ?primal_heuristic:neg_heuristic ?node_bound:neg_node_bound
      ?objective:neg_objective ?warm ?lp_core minned
  in
  {
    r with
    incumbent = Option.map (fun (x, v) -> (x, -.v)) r.incumbent;
    best_bound = -.r.best_bound;
  }
