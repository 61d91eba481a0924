(** Verification drivers: run MILP queries against a network and return
    auditable verdicts.

    [max_lateral_velocity] reproduces the paper's Table II measurement
    ("maximum lateral velocity when there exists a vehicle in the
    left"): one exact maximisation per GMM component lateral mean, the
    overall result being the maximum. [prove_lateral_velocity_le]
    reproduces the decision query of the table's last row ("prove that
    the lateral velocity can never be larger than 3 m/s"), which uses
    the solver cutoff and is typically much cheaper than the exact
    maximum.

    {b Budget and cores.} [time_limit] (default 60 s) bounds the
    {e whole} call, encoding included, and [cores] (default 1) is every
    worker domain the call may use. A query runs [n] searches: one per
    output component for a maximisation, one per leaf box for a
    decision query. One rule spreads [cores] and the time left over
    them. With more than one search and no evidence sink
    ([certify_dir], or [store] under [split]), the searches fan out
    over [min cores n] domains with one core each; otherwise they run
    in turn, each with all of [cores]. Searches are claimed in order,
    and search [i] of [n] gets {!budget_slice} with
    [queue_len = ceil ((n - i) / fan)], [fan] being the number of
    domains: an equal share of the time left across the searches its
    domain still has to run, computed when it is claimed, so time a
    fast search leaves unused rolls forward. The total elapsed respects
    the caller's limit plus at most one node's slack. *)

type witness = {
  input : Linalg.Vec.t;       (** feature point inside the scenario box *)
  outputs : Linalg.Vec.t;     (** network outputs at that point *)
  achieved : float;           (** objective value as recomputed by forward run *)
  component : int;            (** GMM component that attains it *)
}

type max_result = {
  value : float option;   (** best maximum found (None: no solve finished) *)
  upper_bound : float;
      (** proven sound upper bound: the tighter of the solver bound and
          the encoding's analysis bound on each output, the analysis
          bound alone where a search ended [Infeasible] (a box is never
          empty, so that search went wrong); never [-inf] *)
  optimal : bool;          (** value = exact maximum *)
  timed_out : bool;
      (** some search stopped at its time limit; a search that stopped on
          an LP the sparse core left unconcluded is not optimal either,
          but did not time out *)
  witness : witness option;
  elapsed : float;         (** whole-call wall clock, encoding included *)
  component_elapsed : float array;
      (** per-component solver seconds, in query order — shows how the
          budget was actually spent, sequentially or across domains *)
  nodes : int;
  lp_iterations : int;
  encoder_stats : Encoding.Encoder.stats;
      (** full stable/unstable breakdown under the chosen bound mode;
          [unstable] counts the encoding's binaries *)
  obbt : Encoding.Encoder.obbt_stats;
      (** OBBT accounting: refined / failed / skipped-by-budget probes *)
}

val max_lateral_velocity :
  ?time_limit:float ->
  ?bound_mode:Encoding.Encoder.bound_mode ->
  ?tighten_rounds:int ->
  ?cores:int ->
  components:int ->
  Nn.Network.t ->
  Interval.Box.box ->
  max_result
(** [time_limit] and [cores] follow the budget rule above. OBBT
    tightening spends at most half of [time_limit] before the component
    searches start: [tighten_rounds] (default 1) rounds of it (see
    {!Encoding.Encoder.encode}), its probes run on [cores] domains
    ({!Milp.Parallel}); results agree with [cores = 1] up to solver
    epsilon. Child nodes warm-start from their parent's basis.

    [bound_mode] selects the encoder's bound analysis
    ({!Encoding.Encoder.bound_mode}). Under [Symbolic_bounds] the
    driver additionally (1) caps [upper_bound] with the symbolic output
    bound and (2) passes the branch-aware symbolic re-propagation hook
    ([Encoding.Encoder.symbolic_node_bound]) to the solver, pruning
    subtrees whose fixed ReLU phases already bound the objective below
    the incumbent. *)

val maximize_output :
  ?time_limit:float ->
  ?bound_mode:Encoding.Encoder.bound_mode ->
  ?tighten_rounds:int ->
  ?cores:int ->
  output:int ->
  Nn.Network.t ->
  Interval.Box.box ->
  max_result
(** Exact maximisation of a single raw output coordinate. *)

type proof =
  | Proved
  | Disproved of witness
  | Unknown of { best_bound : float }

type proof_result = {
  proof : proof;
  proof_elapsed : float;  (** whole-call wall clock, encoding included *)
  proof_nodes : int;
      (** branch & bound nodes across all component queries; [0] when
          the analysis pre-pass discharged every component *)
  presolved : int;
      (** components discharged by the incomplete pre-pass alone — their
          analysis upper bound already met the threshold, so no MILP
          search ran for them *)
  certified : int;
      (** components whose emitted certificate passed the in-process
          {!Certify.Audit.check_certificate} replay; [0] without an
          evidence sink *)
  resumed : int;
      (** components skipped because a trusted journal entry from a
          previous run of the same question already settled them;
          [0] without an evidence sink *)
  degraded : int;
      (** MILP searches that settled nothing for a reason other than
          time: one that raised {!Lp.Simplex.Numerical_error} or
          [Failure], one stopped by an LP the sparse core left
          unconcluded, or one whose conclusion's evidence was refused
          (see the ladder below). Each left its component [Unknown] at
          the analysis bound instead of aborting the query, so an
          [Unknown] with [degraded = 0] ran out of time. *)
  partition : Partition.stats option;
      (** leaf accounting when the query ran partitioned ([?split]);
          [None] for a monolithic solve *)
}

val budget_slice : ?now:float -> deadline:float -> queue_len:int -> unit -> float
(** The budget rule's per-search slice: an equal share of the time
    remaining at [now] (default: the monotonic clock) across
    [queue_len] searches still pending, floored at a minimum slice of
    0.2 s — so late searches in a long queue are attempted rather than
    starved by rounding the remainder down to nothing — and clamped to
    the remaining budget itself, so the floor can never grant time the
    caller no longer has. Exposed for tests. *)

val prove_lateral_velocity_le :
  ?time_limit:float ->
  ?bound_mode:Encoding.Encoder.bound_mode ->
  ?tighten_rounds:int ->
  ?cores:int ->
  ?certify_dir:string ->
  ?split:Partition.policy ->
  ?store:Certify.Store.t ->
  components:int ->
  threshold:float ->
  Nn.Network.t ->
  Interval.Box.box ->
  proof_result
(** Decision query; [time_limit] and [cores] follow the budget rule
    above, the searches being the leaf boxes.

    {b One settle ladder.} The query is a list of leaf boxes: the whole
    box (no planner call, [partition = None]), or under [split] the
    tiles of {!Partition.plan}. Every component of every leaf goes down
    the same rungs, cheapest first, each component's MILP search under
    an equal share of the leaf's time left:
    + with a store (partitioned runs only), a lookup for this network,
      exact or subsumed, then cross-network revalidation: a disproving
      witness stored for the same leaf question about other weights is
      replayed through this network with one forward pass, and a proved
      one is re-established by this network's own analysis (rung 3) —
      the mechanism that answers most leaves after a retrain;
    + with an evidence sink, its journal: components whose last journal
      entry is admitted by {!Certify.Journal.trusted} for this network
      and property are not re-proved ([resumed] counts them); entries
      for any other question, torn lines and certificates another
      question has since overwritten are ignored. Asking a question
      again in a directory that has settled it therefore answers from
      that evidence; use a fresh directory for fresh evidence;
    + the analysis pre-pass: a component whose output upper bound from
      the encoding's bound analysis (symbolic under [Symbolic_bounds])
      — or, for a partition leaf, the planner's symbolic bound — already
      meets [threshold] is discharged without search ([presolved]
      counts them; when every component goes this way the verdict is
      [Proved] with [proof_nodes = 0]);
    + one cutoff MILP search under the component's whole share. It
      settles the component only on evidence: a witness the network,
      run on it, takes above [threshold], or an exhausted tree; with an
      evidence sink, only once that witness or tree certificate
      replays. A search that raises {!Lp.Simplex.Numerical_error} or
      [Failure], stops on an LP the sparse core left unconcluded
      ({!Lp.Simplex.Iteration_limit}), or whose evidence is refused
      settles nothing and counts in [degraded]. With a sink, a
      component left at a bound keeps the answer [Unknown] even when
      that bound meets [threshold];
    + an honest [Unknown].

    One disproved leaf disproves the parent (the witness lies inside
    the parent box) and stops the walk; [Proved] requires every leaf
    settled.

    {b The evidence sink} decides everything else. It is [certify_dir]
    for a monolithic query; a partitioned query certifies into
    [store], or without one into a {!Certify.Store} opened on
    [certify_dir], one directory per leaf named by its property hash
    under the store's root, plus a checksummed {!Certify.Shard}
    manifest of the split tree in that root, so the audit of the root
    re-establishes the tiling too. [store] lets a caller that keeps a
    store open (the [depnn serve] workers) share it across queries; it
    is read only under [split]. With a sink, every settled component writes a replayable
    {!Certify.Certificate} (dual or Farkas evidence per branch-and-bound
    leaf, the symbolic bounding hyperplane for presolved components, a
    concrete witness for falsifications), replays it in-process through
    {!Certify.Audit.check_certificate} ([certified] counts those that
    pass), then appends a checksummed, fsynced journal line recording
    the verdict, or [unknown] when the replay failed. So [depnn audit]
    can re-verify the verdict with outward-rounded arithmetic, and a
    kill at any instant loses at most the component in flight. A sink
    also forces [tighten_rounds = 0] (OBBT-tightened models are not
    independently rebuildable) and no analysis node-bound hook (such
    prunes have no replayable evidence): certified campaigns trade
    speed for auditability by design. Each search still runs on the
    cores the budget rule gives it, since every worker streams the
    leaves it closes; with more than one worker the leaf order in a
    tree certificate varies between runs, which the audit does not
    depend on. Without a sink, OBBT ([tighten_rounds], default 1, for
    a monolithic query only: per leaf it would dominate many small
    boxes) and the node-bound hook under [Symbolic_bounds] apply. *)

val sampled_max_lateral_velocity :
  rng:Linalg.Rng.t ->
  samples:int ->
  components:int ->
  Nn.Network.t ->
  Interval.Box.box ->
  float * Linalg.Vec.t
(** Monte-Carlo lower bound on the true maximum (testing oracle: must
    never exceed the verifier's [upper_bound]). Returns the best value
    and the input achieving it. *)
