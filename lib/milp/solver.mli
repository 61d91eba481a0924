(** Branch & bound for {!Model} instances (maximisation).

    Best-first search on the LP-relaxation bound. At each node the
    relaxation is solved by the dual simplex; fractional integer
    variables are branched on (most-fractional by default, or the
    caller's priority order). Because the paper's Table II reports a
    *time-out* for its widest network, the solver treats a wall-clock
    limit as a first-class outcome and reports the best incumbent and
    the remaining bound (optimality gap) when it stops early.

    {b Portfolio.} The search runs on a pool of worker domains sharing
    one incumbent ([Atomic]) and one best-first heap of open nodes:

    - {b provers} pull from the shared max-heap best-first, driving the
      proven bound down towards the incumbent;
    - {b divers} run depth-first on a bounded private stack (the
      inactive-neuron branch first, cf. {!Search.branch}), reaching
      integral leaves — incumbents — early; they steal from the shared
      heap when their stack empties and donate their shallowest nodes
      back when it overflows, so the provers are never starved.

    A diver's incumbent immediately tightens every prover's pruning
    test and vice versa: the split attacks time-to-first-incumbent
    (see [first_incumbent_nodes] / [first_incumbent_elapsed]) without
    giving up the best-first optimality proof. Every worker evaluates a
    node the same way: analysis bound, then the node's bounds through
    the {!Lp.Problem} journal on its private LP copy, a warm or cold
    LP, the primal heuristic, then branch or close the node with its
    evidence.

    {b Determinism contract.} With [~cores:1] and no [?portfolio] the
    search is one prover on the calling domain, popping the heap in
    plain best-first order; it and the lone diver [~portfolio:(1, 0)]
    (the depth-first search) are deterministic, node counts and leaf
    stream included. For any core count or split, a completed search
    agrees on the [outcome], the incumbent objective and [best_bound]
    up to the 1e-6 optimality gap; [nodes], [lp_iterations], the particular optimal point
    and the order of [on_leaf] calls may differ because exploration
    order is timing-dependent.

    {b Degradation contract.} A worker that raises during node
    evaluation (e.g. {!Lp.Simplex.Numerical_error}) does not abort the
    search: its node — and, for a diver, its whole private stack — is
    pushed back into the shared pool, so the open bound still covers
    those subtrees and [best_bound] stays sound; the loss is counted in
    [failed_workers], and the surviving domains keep draining the pool.
    The exception is re-raised only when {e every} worker has died,
    since then nobody is left to make progress. A result with
    [failed_workers > 0] is therefore degraded (less parallelism,
    possibly retried nodes) but never unsound. *)

type outcome =
  | Optimal        (** incumbent proven optimal within 1e-6 *)
  | Infeasible
  | Time_limit     (** stopped early; [incumbent]/[best_bound] still valid *)
  | Node_limit
      (** stopped at [node_limit], or at a node whose LP relaxation hit
          its iteration limit (see {!solve}); [incumbent]/[best_bound]
          still valid *)

type result = {
  outcome : outcome;
  incumbent : (float array * float) option;
      (** best integral solution found: (point, objective) *)
  best_bound : float;
      (** valid upper bound on the optimum (for maximisation) *)
  nodes : int;
  elapsed : float;  (** seconds *)
  lp_iterations : int;  (** total simplex pivots across all nodes *)
  failed_workers : int;
      (** worker domains lost to an exception (see the degradation
          contract above); always [0] when nothing raised. A nonzero
          count flags a degraded — but still sound — result. *)
  first_incumbent_nodes : int option;
      (** nodes evaluated when the {e first} incumbent was adopted
          ([None]: no incumbent) — the time-to-first-incumbent metric
          the portfolio's diving group exists to improve *)
  first_incumbent_elapsed : float option;
      (** seconds from the start of the solve to the first incumbent *)
}

type branch_rule = Search.branch_rule =
  | Most_fractional
  | Priority of (Model.var -> int)
      (** branch on the eligible fractional variable with the smallest
          priority value (ties broken by fractionality); lets the
          encoder branch layer-by-layer *)

type leaf_cert =
  | Leaf_bounded of float array
      (** LP dual multipliers whose weak-duality bound [U(y)] closes the
          subtree (see {!Lp.Simplex.cert}) *)
  | Leaf_infeasible of float array
      (** Farkas ray proving the subtree's LP region empty *)
  | Leaf_empty_row of int
      (** row whose slack range is empty under the subtree's box *)
  | Leaf_uncertified of string
      (** closed without replayable evidence (analysis cap,
          later-incumbent prune, integral incumbent, or a solve path
          that emits no certificate); a certificate collector must
          downgrade the proof when it sees one *)
(** Evidence closing one leaf of the explored branch-and-bound tree. *)

val solve :
  ?cores:int ->
  ?portfolio:int * int ->
  ?time_limit:float ->
  ?node_limit:int ->
  ?branch_rule:branch_rule ->
  ?cutoff:float ->
  ?primal_heuristic:(float array -> (float array * float) option) ->
  ?node_bound:((Model.var * float * float) list -> float option) ->
  ?objective:(Model.var * float) list ->
  ?warm:bool ->
  ?on_leaf:((Model.var * float * float) list -> leaf_cert -> unit) ->
  Model.t ->
  result
(** Maximise the model objective. [portfolio = (divers, provers)] fixes
    the worker split explicitly (both non-negative, at least one worker
    in total; [cores] is then ignored). Without it, [cores] (default 1)
    picks the split: 1 is one prover, [n >= 2] becomes [(1, n - 1)].
    [Invalid_argument] on a negative or empty split.

    A node is pruned against the incumbent within an absolute
    optimality gap of 1e-6, and a variable within 1e-6 of an integer
    counts as integral. [time_limit] is wall-clock seconds. A node whose LP relaxation stops at its iteration limit
    has proven nothing about its subtree: it goes back into the pool
    and the search stops with [Node_limit], so [best_bound] still
    covers it. Each node re-solve reuses the factored basis carried in
    its parent snapshot ({!Lp.Simplex.resolve}).

    [objective] replaces the model's objective for this solve only — it
    is applied to every domain's private problem copy, so the caller's
    model is never mutated and many queries can share one encoding
    (even concurrently). [warm] (default [true]) re-solves each child
    node from its parent's optimal basis via {!Lp.Simplex.resolve};
    basis snapshots are immutable, so a node stolen by another domain
    warm-starts safely there. Pass [false] to force cold per-node
    solves (the tests' reference for the warm path).

    [cutoff] turns the search into a decision query: nodes whose bound
    is at most [cutoff] are pruned as if an incumbent of that value were
    already known. An [Optimal] outcome with [incumbent = None] then
    certifies that the true maximum is <= [cutoff] — this is how the
    paper's "prove the lateral velocity can never exceed 3 m/s" query is
    answered without computing the exact maximum.

    [primal_heuristic] is called with each node's relaxation point; it
    may return a {e feasible} integral solution vector and its objective
    value, which is adopted as incumbent when it improves. The solver
    trusts the caller on feasibility (the NN encoder derives such points
    by forward-running the network on the relaxation's input block).
    With more than one worker it is called concurrently from the worker
    domains and must be thread-safe (the verifier's forward-run
    heuristic only reads the network and encoding, which qualifies).

    [node_bound] is an independent analysis bound: called with a node's
    accumulated branching fixes [(var, lo, hi)] {e before} its LP is
    solved, it may return a sound upper bound on the objective over the
    node's whole subtree (e.g. symbolic bound re-propagation of the
    fixed ReLU phases — see [Encoding.Encoder.symbolic_node_bound]).
    When the returned bound already loses to the incumbent the node is
    pruned without any LP work; [neg_infinity] declares the subtree
    empty; otherwise the bound caps the LP relaxation bound used for
    pruning and branching. The callback must be sound — a bound below
    the true subtree maximum can prune the optimum away — and safe to
    call from multiple domains at once (the encoder's symbolic
    re-propagation only reads the network and bounds, which
    qualifies).

    [on_leaf] streams one {!leaf_cert} per closed subtree, together
    with the node's accumulated branching fixes (most recent first — a
    root-to-leaf path read right-to-left). Every worker streams; the
    calls are serialised under the pool mutex, so the callback needs no
    locking of its own, but with more than one worker their order
    varies between runs. Over a completed [Optimal] run the reported
    fixes tile the whole branching tree, which is what lets an auditor
    check coverage without replaying the search. *)
