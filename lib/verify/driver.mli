(** Verification drivers: run MILP queries against a network and return
    auditable verdicts.

    [max_lateral_velocity] reproduces the paper's Table II measurement
    ("maximum lateral velocity when there exists a vehicle in the
    left"): one exact maximisation per GMM component lateral mean, the
    overall result being the maximum. [prove_lateral_velocity_le]
    reproduces the decision query of the table's last row ("prove that
    the lateral velocity can never be larger than 3 m/s"), which uses
    the solver cutoff and is typically much cheaper than the exact
    maximum. *)

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
          the encoding's analysis bound on each output *)
  optimal : bool;          (** value = exact maximum *)
  timed_out : bool;
  witness : witness option;
  elapsed : float;         (** whole-call wall clock, encoding included *)
  component_elapsed : float array;
      (** per-component solver seconds, in query order — shows how the
          budget was actually spent, sequentially or across domains *)
  nodes : int;
  lp_iterations : int;
  unstable_neurons : int;  (** binaries in the encoding *)
  encoder_stats : Encoding.Encoder.stats;
      (** full stable/unstable breakdown under the chosen bound mode *)
  obbt : Encoding.Encoder.obbt_stats;
      (** OBBT accounting: refined / failed / skipped-by-budget probes *)
}

val max_lateral_velocity :
  ?time_limit:float ->
  ?bound_mode:Encoding.Encoder.bound_mode ->
  ?tighten_rounds:int ->
  ?cores:int ->
  ?portfolio:int * int ->
  ?lp_core:Lp.Simplex.core ->
  components:int ->
  Nn.Network.t ->
  Interval.Box.box ->
  max_result
(** [time_limit] (default 60 s) bounds the {e whole} call: OBBT
    tightening spends from it (at most half) and the component queries
    share the remainder — sequentially each query gets an equal share
    of the time remaining when it starts (leftover time from fast
    queries rolls over to later ones); with [cores > 1] and several
    components the queries themselves run {e concurrently} on the
    worker domains, each granted an equal share of the remaining budget
    up front (the inner solves are then sequential, so domains are
    never oversubscribed). Either way the total elapsed respects the
    caller's limit (plus at most one node's slack). [tighten_rounds]
    (default 1) rounds of OBBT are applied before searching (see
    {!Encoding.Encoder.encode}). [cores] (default 1) also runs the
    OBBT probes on that many domains ({!Milp.Parallel}); results agree
    with [cores = 1] up to solver epsilon. Child nodes warm-start from
    their parent's basis. [lp_core] selects the LP engine for OBBT and
    every node re-solve ({!Lp.Simplex.core}; default
    {!Lp.Simplex.default_core}, i.e. sparse unless overridden).

    [bound_mode] selects the encoder's bound analysis
    ({!Encoding.Encoder.bound_mode}). Under [Symbolic_bounds] the
    driver additionally (1) caps [upper_bound] with the symbolic output
    bound and (2) passes the branch-aware symbolic re-propagation hook
    ([Encoding.Encoder.symbolic_node_bound]) to the solver, pruning
    subtrees whose fixed ReLU phases already bound the objective below
    the incumbent.

    [portfolio] forces the diver/prover split of {!Milp.Solver.solve}
    inside {e each} query ([(1, 0)], a lone diver, is the depth-first
    search). Explicitly splitting disables the
    per-component fan-out — the caller asked for within-query
    parallelism — so each component query runs the full portfolio in
    turn. Left unset, the fan-out path keeps its sequential inner
    solves and single-query calls inherit the default split from
    [cores]. *)

val maximize_output :
  ?time_limit:float ->
  ?bound_mode:Encoding.Encoder.bound_mode ->
  ?tighten_rounds:int ->
  ?cores:int ->
  ?portfolio:int * int ->
  ?lp_core:Lp.Simplex.core ->
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
          [0] without [resume] on a monolithic query *)
  degraded : int;
      (** watchdog fallback-ladder transitions taken (a rung timed out
          or failed numerically and the next one was tried) *)
  partition : Partition.stats option;
      (** leaf accounting when the query ran partitioned ([?split]);
          [None] for a monolithic solve *)
}

val budget_slice : ?now:float -> deadline:float -> queue_len:int -> unit -> float
(** The whole-call budget contract's per-query slice: an equal share of
    the time remaining at [now] (default: the monotonic clock) across
    [queue_len] queries still pending, floored at a minimum slice of
    0.2 s — so late queries in a long queue are attempted rather than
    starved by rounding the remainder down to nothing — and clamped to
    the remaining budget itself, so the floor can never grant time the
    caller no longer has. Exposed for tests. *)


val prove_lateral_velocity_le :
  ?time_limit:float ->
  ?bound_mode:Encoding.Encoder.bound_mode ->
  ?tighten_rounds:int ->
  ?cores:int ->
  ?portfolio:int * int ->
  ?lp_core:Lp.Simplex.core ->
  ?certify_dir:string ->
  ?resume:bool ->
  ?watchdog:bool ->
  ?split:Partition.policy ->
  ?store:Certify.Store.t ->
  components:int ->
  threshold:float ->
  Nn.Network.t ->
  Interval.Box.box ->
  proof_result
(** Decision query under the same whole-call budget contract as
    {!max_lateral_velocity}.

    {b One settle ladder.} The query is a list of leaf boxes: the whole
    box (no planner call, [partition = None]), or under [split] the
    tiles of {!Partition.plan}. The leaves are walked in order, each
    under an equal share of the time left, and every component of every
    leaf goes down the same rungs, cheapest first:
    + with a store (partitioned runs only), a lookup for this network,
      exact or subsumed, then cross-network revalidation: a disproving
      witness stored for the same leaf question about other weights is
      replayed through this network with one forward pass, and a proved
      one is re-established by this network's own analysis (rung 3) —
      the mechanism that answers most leaves after a retrain;
    + journal resume (with [resume], or always for a partition leaf):
      components whose last journal entry is admitted by
      {!Certify.Journal.trusted} for this network and property are not
      re-proved ([resumed] counts them); entries for any other
      question, torn lines and certificates another question has since
      overwritten are ignored;
    + the analysis pre-pass: a component whose output upper bound from
      the encoding's bound analysis (symbolic under [Symbolic_bounds])
      — or, for a partition leaf, the planner's symbolic bound — already
      meets [threshold] is discharged without search ([presolved]
      counts them; when every component goes this way the verdict is
      [Proved] with [proof_nodes = 0]);
    + the cutoff MILP under the component's share of the leaf budget:
      the configured [lp_core] or, with [watchdog] (default [false]),
      sparse then dense, each rung catching its own numerical failures
      ([degraded] counts the transitions);
    + an honest [Unknown].

    One disproved leaf disproves the parent (the witness lies inside
    the parent box) and stops the walk; [Proved] requires every leaf
    settled.

    {b The evidence sink} decides everything else. It is [certify_dir]
    for a monolithic query; a partitioned query certifies into [store]
    (default: opened on [certify_dir]), one directory per leaf named by
    its property hash, plus a checksummed {!Certify.Shard} manifest of
    the split tree so the audit re-establishes the tiling too. With a
    sink, every settled component writes a replayable
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
    speed for auditability by design. Each search still runs on
    [cores] and [portfolio], since every worker streams the leaves it
    closes; with more than one worker the leaf order in a tree
    certificate varies between runs, which the audit does not depend
    on. Without a sink, OBBT ([tighten_rounds], default 1, for a
    monolithic query only: per leaf it would dominate many small
    boxes), the node-bound hook under [Symbolic_bounds], [cores] and
    [portfolio] apply, and the leaves of a partition fan out over
    [cores] (unless [portfolio] asks for within-query parallelism). *)

(** {2 Sessions}

    Per-model state for callers that issue many queries against the
    same loaded network — the [depnn serve] workers above all. The
    session computes the network's {!Nn.Io.content_hash} {e once} at
    creation (a certified call without one re-hashes the network every
    time) and memoises the deterministic [tighten_rounds = 0] encoding
    of the most recent (bound mode, box, lp core) question, so
    back-to-back queries over the same box — different thresholds, a
    server's cache-miss burst — skip the encoder. A session is
    single-domain state: give each worker domain its own. *)

type session

val create_session : Nn.Network.t -> session
(** Hashes the network once and starts with an empty encoding memo. *)

val session_net : session -> Nn.Network.t
val session_net_hash : session -> string

val prove_in_session :
  session ->
  ?time_limit:float ->
  ?bound_mode:Encoding.Encoder.bound_mode ->
  ?lp_core:Lp.Simplex.core ->
  ?certify_dir:string ->
  ?resume:bool ->
  ?watchdog:bool ->
  ?split:Partition.policy ->
  ?store:Certify.Store.t ->
  components:int ->
  threshold:float ->
  Interval.Box.box ->
  proof_result
(** The decision query of {!prove_lateral_velocity_le}, down the same
    ladder, with the session's cached hash and encoding memo threaded
    through. [watchdog] defaults to [true] here (a server must degrade
    to an honest [Unknown], never abort); the session never applies
    OBBT, and the solve is sequential within the session — parallelism
    belongs to the caller's worker pool. [certify_dir], [resume],
    [split] and [store] behave as in {!prove_lateral_velocity_le},
    reusing the session's cached network hash for the property
    hashes. *)

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
