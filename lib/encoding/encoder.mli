(** ANN → MILP encoding (Cheng, Nührenberg & Rueß, ATVA 2017).

    For an input box X and a ReLU network f, builds a mixed-integer
    model whose feasible set is exactly
    [{(x, f-intermediates) | x ∈ X}]. Each hidden ReLU neuron with
    pre-activation bounds [\[L, U\]] is encoded as:

    - stable active (L >= 0): [a = z];
    - stable inactive (U <= 0): [a = 0];
    - unstable: binary δ with
      [a >= z], [a >= 0], [a <= z - L(1-δ)], [a <= Uδ].

    Maximising an output variable over the model therefore computes the
    exact network maximum on the box (the paper's Table II query), with
    the per-neuron interval bounds acting as the big-M constants. *)

type bound_mode =
  | Interval_bounds  (** propagate the actual input box (tight) *)
  | Symbolic_bounds
      (** DeepPoly-style symbolic propagation ({!Absint.Symbolic}):
          per-neuron linear forms back-substituted to the input box.
          Pointwise at least as tight as [Interval_bounds] — typically
          far tighter from the second hidden layer on — so the encoding
          gets smaller big-M constants and fewer binary variables, in
          one cheap LP-free pass. *)

type stats = {
  stable_active : int;
  stable_inactive : int;
  unstable : int;  (** = number of binaries *)
  rows : int;      (** constraint rows of the emitted LP *)
  cols : int;      (** variables of the emitted LP *)
  nnz : int;       (** structural non-zeros across those rows *)
  density : float;
      (** [nnz / (rows · cols)] — each big-M row touches only one
          neuron's fan-in, so this collapses as networks widen; it is
          the figure the sparse LP core ({!Lp.Sparse}) exploits,
          reported here so bench claims are auditable from
          [depnn_cli verify] output *)
}

type obbt_stats = {
  probes : int;          (** unstable neurons considered across all rounds *)
  refined : int;         (** probes whose both LPs solved to optimality *)
  failed : int;          (** probes whose LP failed (infeasible/limit) *)
  skipped_budget : int;  (** probes skipped because the budget ran out *)
}
(** OBBT accounting. [skipped_budget] distinguishes truncated
    tightening (raise [tighten_budget]) from tightening that ran and
    failed (a solver health signal) — the two were previously
    indistinguishable. [probes = refined + failed + skipped_budget]. *)

type neuron = {
  z : Milp.Model.var;  (** the pre-activation *)
  relu : (Milp.Model.var * Milp.Model.var) option;
      (** an unstable ReLU's post-activation [a] and binary [d] *)
}
(** One neuron's variables, recorded as {!encode} creates them. *)

type t = {
  model : Milp.Model.t;
      (** Its LP's column form ({!Lp.Problem.form}) is already built,
          so every copy a search or OBBT probe takes shares it, and
          searches may run over one encoding concurrently. *)
  input_vars : Milp.Model.var array;
  output_vars : Milp.Model.var array;
  binaries : (Milp.Model.var * int * int) list;
      (** (binary var, layer, neuron index) *)
  neurons : neuron array array;  (** per layer, per neuron *)
  bounds : Bounds.t;
  stats : stats;
  obbt : obbt_stats;  (** zeroes when [tighten_rounds = 0] *)
}

val encode :
  ?bound_mode:bound_mode ->
  ?tighten_rounds:int ->
  ?tighten_budget:float ->
  ?cores:int ->
  Nn.Network.t ->
  Interval.Box.box ->
  t
(** Raises [Invalid_argument] if a hidden activation is not piecewise
    linear (only [Relu]/[Identity] networks are encodable) or if the box
    dimension mismatches. No objective is set.

    [tighten_rounds] (default 0) applies that many rounds of LP-based
    bound tightening (OBBT): every unstable neuron's pre-activation is
    maximised/minimised over the LP relaxation and the encoding is
    rebuilt with the refined, still-sound bounds. One round typically
    stabilises a substantial fraction of the binaries and markedly
    strengthens the relaxation, at the cost of two LP solves per
    unstable neuron. [tighten_budget] caps the wall-clock seconds spent
    tightening (neurons are refined in layer order, so the budget is
    spent where it matters most); default unlimited. [cores] (default 1)
    fans the independent OBBT probes across that many domains, each
    probing a private LP copy. *)

val output_objective : t -> int -> (Milp.Model.var * float) list
(** [output_objective enc k] is the objective maximising output
    coordinate [k], as terms for [Milp.Solver.solve ~objective]. Pure
    data: the encoding is never mutated, so one encoding serves many
    queries — even concurrently. *)

val symbolic_node_bound :
  t ->
  Nn.Network.t ->
  Interval.Box.box ->
  output:int ->
  (Milp.Model.var * float * float) list ->
  float option
(** [symbolic_node_bound enc net box ~output] builds the
    [?node_bound] callback for {!Milp.Solver.solve} when the solve
    maximises output coordinate [output] (i.e. its objective is
    [output_objective enc output]): a node's fixed binaries are
    interpreted as ReLU phase decisions and the symbolic analyzer is
    re-run on the phase-restricted region, yielding a sound upper bound
    on the objective over the node's whole subtree ([neg_infinity] when
    the fixes contradict the bounds — the subtree is empty). Pure; safe
    to call concurrently from worker domains. *)

val layer_order_priority : t -> Milp.Model.var -> int
(** Branching priority that explores earlier layers first (the encoding
    paper's heuristic: early-layer neurons dominate later ones). *)

val input_point : t -> float array -> float array
(** Extract the input coordinates from a MILP solution vector. *)

val assignment_of_input : t -> Nn.Network.t -> Linalg.Vec.t -> float array
(** Forward-run the network on an input and express the full activation
    trace as a MILP variable assignment. For any input inside the box
    this assignment is feasible — it is both the test oracle for
    encoding faithfulness and the primal heuristic inside branch &
    bound (every LP-relaxation input projects to an incumbent). *)

val check_faithful : t -> Nn.Network.t -> Linalg.Vec.t -> bool
(** Debug/test helper: forward-run the network on an input and verify
    the resulting activation pattern satisfies every encoded constraint
    (uses {!Lp.Simplex.primal_feasible} on the assembled point). *)
