(** Two-phase primal simplex with a dual-simplex warm restart.

    Solves [maximize c·x subject to rows, l <= x <= u] for problems
    built with {!Problem}. A cold {!solve} starts from the artificial
    identity basis (phase 1 drives the artificials out, phase 2
    optimises the real objective). {!resolve} instead rebuilds a basis
    captured from a previous optimal solve — after a single bound
    change the old optimal basis stays dual feasible, so a short
    dual-simplex run restores primal feasibility and a primal cleanup
    finishes the job. This is the natural fit for branch & bound, where
    a child's LP differs from its parent's by exactly one bound.

    One engine runs every solve: the revised simplex on factored sparse
    columns (LU plus an eta file, {!Sparse.factor}), O(nnz) per pivot
    instead of O(rows·cols). Its columns come from the problem's
    {!Problem.form}, built once per constraint set and shared by every
    solve, cold or warm, until the constraint set changes; a solve may
    build it, which is the only way a solve writes to the problem. A
    pivot's tableau row is computed row by row ({!Sparse.row_product}),
    over the rows its BTRAN result touches. It reports [Infeasible] only with a row
    that is empty under the box or with a Farkas ray that passes
    {!farkas_certifies}. A ray that fails the check, and any
    {!Numerical_error} the sparse core raises, hand the problem to a
    cold solve on the dense Gauss-Jordan tableau ({!sparse_fallbacks}
    counts the handoffs). {!solve_dense} runs that tableau directly, as
    the reference tests and benchmarks compare against.

    Primal unboundedness cannot occur because every variable carries
    finite bounds (enforced by {!Problem.add_var}). *)

exception Numerical_error of string
(** Raised as soon as NaN/Inf is detected in the solve: a non-finite
    constraint coefficient or right-hand side, a NaN reduced cost, a
    non-finite pivot element, or a NaN objective value. Failing fast
    beats the alternative — NaN comparisons are all false, so a poisoned
    tableau silently terminates with a garbage basis reported as
    [Optimal]. Callers that can degrade (e.g. the parallel MILP solver)
    catch this and widen their bounds instead of trusting the result. *)

type status =
  | Optimal
  | Infeasible
  | Iteration_limit  (** gave up; treat as unknown *)

type var_status = Basic | At_lower | At_upper

type basis = {
  bm : int;            (** rows of the problem the snapshot came from *)
  bnstruct : int;      (** structural variables of that problem *)
  bbasic : int array;  (** basic column per row (structural or slack) *)
  bupper : bool array; (** per real column: parked at its upper bound? *)
  bfactor : Sparse.factor option;
      (** factored basis (LU + eta file) when the snapshot came from
          the sparse core; advisory — {!resolve} probes it against the
          current problem and refactorizes on any mismatch *)
}
(** Compact snapshot of an optimal basis. Pure data — the arrays and
    the factor are immutable by contract, so snapshots can be shared
    freely across domains (the parallel MILP solver migrates them with
    stolen nodes). A snapshot is only meaningful for the problem shape
    it was taken from (same rows in the same order, same variable
    count); {!resolve} validates this and falls back to a cold solve on
    any mismatch. *)

val sparse_fallbacks : unit -> int
(** How many times the sparse core handed a problem to the dense cold
    solve since startup (observability for tests/bench). *)

val refactor_interval : int ref
(** Eta-file length that triggers a refactorization of the sparse
    basis (default 32). Exposed for tests; leave alone otherwise. *)

type cert =
  | Cert_duals of float array
      (** One dual multiplier per row, certifying an upper bound on the
          max-sense objective. In the slack-equality view (every row
          [A_i·x + s_i = b_i] with slack bounds encoding the sense) the
          multipliers are sign-free: for ANY [y],
          [U(y) = y·b + sum_j max(r_j·l_j, r_j·u_j)] with
          [r = (c,0) − [A|I]ᵀ·y] bounds [c·x] over every feasible
          point, so an auditor recomputes [U(y)] with outward-rounded
          interval arithmetic and trusts nothing about the pivoting
          that produced [y]. *)
  | Cert_farkas of float array
      (** Same shape, but certifying infeasibility: with the zero
          objective, [U(y) < 0] proves the feasible region empty
          (Farkas ray from the phase-1 optimum, or from the row the
          sparse dual simplex found infeasible). *)
  | Cert_empty_row of int
      (** Row index whose slack range is empty under the variable box —
          infeasibility by exact interval arithmetic, checkable by
          recomputing the row's activity range outward. *)
(** Machine-checkable evidence for a solve's conclusion, designed so a
    small independent checker ({!Certify}) can replay it without
    re-running any simplex. *)

val farkas_certifies : Problem.t -> float array -> bool
(** [farkas_certifies p y] is [true] only when [y] proves [p] has no
    feasible point under its current bounds: with the zero objective,
    the weak-duality bound [U(y)] of {!cert}, evaluated with every
    operation rounded outward ([Float.succ]/[Float.pred]) and with slack
    ranges recomputed outward from the box, is negative (or some row is
    empty over the box). [false] for a [y] of the wrong length or with a
    non-finite entry. Each call allocates a few flat arrays (the bounds
    and the two ends of −Aᵀy), nothing per column or row; the rows are
    read from the problem's {!Problem.form}. *)

type solution = {
  status : status;
  objective : float;  (** meaningful only when [status = Optimal] *)
  x : float array;    (** structural variable values (primal point) *)
  iterations : int;
  basis : basis option;
      (** optimal basis for warm restarts; [None] unless
          [status = Optimal] and the basis is free of artificials *)
  warm : bool;
      (** [true] iff this result came from the warm dual-simplex path
          (no fallback to a cold solve was needed) *)
  cert : cert option;
      (** dual certificate for the conclusion: [Cert_duals] /
          [Cert_farkas] / [Cert_empty_row] as applicable. [None] on
          [Iteration_limit] and on {!solve_min} optima (certificates
          are emitted in the max sense only). Reading the maintained
          reduced costs costs O(rows); any drift since the last refresh
          only loosens the certified bound — the auditor revalidates
          from [y] alone. *)
}

val solve : Problem.t -> solution
(** Maximise the problem's objective from a cold start, with
    feasibility/optimality tolerance [1e-7] and at most
    [500 * (rows + cols)] pivots. *)

val resolve : basis:basis -> Problem.t -> solution
(** Maximise like {!solve}, but warm-start from [basis] (typically the
    parent node's optimal basis under slightly different bounds). The
    restored basis is driven primal-feasible by the dual simplex, then
    polished by the primal simplex. Correctness never depends on the
    warm path: a stale/corrupted snapshot, a singular restored basis,
    an iteration limit, or numerical trouble in the simplex phases all
    transparently fall back to a cold {!solve} (the returned [warm]
    flag tells which path produced the answer). A dual-simplex
    infeasibility conclusion is reported as [Infeasible] with
    [warm = true] and its [Cert_farkas] ray when {!farkas_certifies}
    accepts the ray, and falls back cold otherwise. A
    {!Numerical_error} that escapes the sparse warm path, like sparse
    doubt in a cold solve, re-runs the dense cold solve. *)

val solve_min : Problem.t -> solution
(** Minimise instead; [objective] is reported in the minimisation sense. *)

val solve_dense : Problem.t -> solution
(** Maximise from a cold start on the dense Gauss-Jordan tableau alone,
    with {!solve}'s tolerance and iteration limit: the
    reference engine tests and benchmarks compare the sparse core
    against. Same certificates; a snapshot it returns carries no
    [bfactor]. *)

val primal_feasible : ?eps:float -> Problem.t -> float array -> bool
(** Check a point against all bounds and constraints (testing helper). *)
