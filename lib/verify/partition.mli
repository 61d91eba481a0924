(** Input-space partition planning for branch-and-bound by box
    bisection.

    The 4×60 frontier of the paper's Table II does not fall to one
    monolithic MILP within any reasonable budget; it falls to many
    small ones. This module plans the attack: recursively bisect the
    input box along the most {e influential} dimensions — influence
    ranked by the magnitude of the symbolic analysis's upper bounding
    hyperplane coefficients ({!Absint.Symbolic.output_upper_form}),
    scaled by each dimension's width — re-running the zero-node
    symbolic pre-pass on every sub-box. Under the adaptive policy a
    node is split only while splitting still pays: the child bound must
    improve on the parent's by a margin, and splitting stops early on
    any sub-box whose symbolic bound already discharges the property.

    The planner only {e plans} — it never runs a solver. The driver
    ({!Driver.prove_lateral_velocity_le} with [?split]) consumes the
    plan: routes each leaf through the proof store, discharges
    pre-solved leaves, fans the survivors out as independent MILPs,
    and emits one certificate directory per leaf plus a {!Certify.Shard}
    manifest binding the leaf set to the parent box. *)

type policy =
  | Auto
      (** adaptive: split while the symbolic bound improves by at least
          the margin, stop on discharged sub-boxes *)
  | Depth of int
      (** forced uniform depth: bisect every node [d] times (skipping
          unsplittable dimensions); [Depth 0] is the whole box as a
          single leaf *)

val policy_of_string : string -> policy option
(** ["auto"], or a depth in [0..16]. *)

type plan = {
  tree : Certify.Shard.tree;
      (** the split tree, {!Certify.Shard.Tile} leaves left-to-right *)
  boxes : Interval.Box.box array;  (** leaf boxes, in tree order *)
  upper : float array;
      (** per-leaf symbolic upper bound over the component outputs —
          leaves with [upper.(i) <= threshold] are discharged without
          any solver *)
  plan_depth : int;  (** deepest split *)
}

val plan :
  ?policy:policy ->
  ?max_leaves:int ->
  ?deadline:float ->
  components:int ->
  threshold:float ->
  Nn.Network.t ->
  Interval.Box.box ->
  plan
(** [max_leaves] (default 256) caps the partition size exactly. The
    adaptive policy's futility margin is [1e-4]: a branch stops
    splitting when a bisection improves the symbolic bound by less than
    this fraction of [max 1 |parent bound|] — a gate against dead
    dimensions, not a demand that any single split pay for itself
    (improvements compound down the tree).
    [deadline] (absolute {!Linalg.Mclock} time) stops further splitting
    once passed, so planning can never starve the solves it feeds.
    Zero-width dimensions are never split (their midpoint equals both
    endpoints); a box with no splittable dimension is a single leaf. *)

val influence :
  Absint.Symbolic.t ->
  Nn.Network.t ->
  components:int ->
  Interval.Box.box ->
  float array
(** Per-dimension split score: sum over component outputs of the
    absolute upper-form input coefficient, times the dimension's width.
    A dead input or a pinned dimension scores zero. *)

val group_upper : Absint.Symbolic.t -> components:int -> float
(** Max of the symbolic output upper bounds over the component lateral
    means — the quantity the pre-pass compares against the threshold. *)

(** {2 Leaf accounting}

    Filled in by the driver as the leaf pipeline settles each leaf:
    proof-store hit (same network) → cross-network revalidation →
    symbolic pre-pass → MILP. *)

type stats = {
  leaves : int;
  depth : int;
  presolved : int;    (** discharged by the per-leaf symbolic pre-pass *)
  cached : int;       (** answered by the proof store for this network *)
  revalidated : int;
      (** answered by revalidating another network's entry for the same
          leaf question: a disproving witness replayed forward through
          {e this} network, or a proof re-established by {e this}
          network's fresh symbolic bound *)
  solved : int;       (** settled by a MILP solve *)
  unsettled : int;    (** honest unknowns (budget or numerics) *)
}

val render_stats : stats -> string
(** One parsable line, e.g.
    ["leaves 8, presolved 5, cached 2, revalidated 0, solved 1, unsettled 0, depth 3"]. *)
