(** Search-node bookkeeping for the branch & bound pool in {!Solver}.

    A node is the chain of bound tightenings ("fixes") applied on top of
    the root LP. Evaluating one costs O(depth) bound writes through the
    {!Lp.Problem} journal instead of an O(problem) copy. *)

type node = {
  fixes : (Model.var * float * float) list;
      (** most recent first; each entry already intersected with every
          ancestor fix of the same variable *)
  parent_bound : float;
      (** relaxation bound inherited from the parent (best-first key) *)
  depth : int;
  parent_basis : Lp.Simplex.basis option;
      (** the parent's optimal LP basis, used to warm-start the node's
          relaxation with {!Lp.Simplex.resolve}; an immutable value, so
          work-stealing can migrate nodes across domains freely *)
}

val root : node
(** The root node: no fixes, infinite parent bound. *)

(** Max-heap on [parent_bound] (ties: deeper node first). *)
module Heap : sig
  type t

  val create : unit -> t
  val push : t -> node -> unit
  val pop : t -> node option
  val size : t -> int

  val peek_bound : t -> float option
  (** Bound of the best open node — the heap's global open bound — in O(1). *)
end

(** A diver's private pool of open nodes: a LIFO stack that pops the
    most recently pushed child first ({!branch} lists the
    inactive-neuron side last, so it is explored first), producing
    feasible incumbents early.

    The stack is bounded by [max_open]: pushing past the bound hands the
    {e shallowest} (bottom) entry to the [donate] sink. The portfolio
    search uses this to return a diver's excess nodes to the shared
    best-first {!Heap} so provers are never starved; a prover is the
    pool with [max_open = 0], which donates every node it is given. *)
module Pool : sig
  type t

  val depth_first : max_open:int -> donate:(node -> unit) -> unit -> t
  (** [Invalid_argument] when [max_open < 0]. *)

  val push : t -> node -> unit
  val pop : t -> node option
  val size : t -> int

  val drain : t -> node list
  (** Remove and return every open node (e.g. to flush a diver's
      private stack back to the shared heap on abort). *)
end

type branch_rule =
  | Most_fractional
  | Priority of (Model.var -> int)
  | Pseudo_first of int array

val fractionality : float -> float

val select_branch_var :
  branch_rule -> Model.var list -> float -> float array -> Model.var option
(** [select_branch_var rule ints int_eps x] picks the integer variable to
    branch on, or [None] when [x] is integral on [ints]. *)

val with_node_bounds : Lp.Problem.t -> node -> (unit -> 'a) -> 'a
(** Apply the node's fixes (root-first) inside a journal frame, run the
    callback, and restore the problem's bounds — even on exceptions. *)

val branch :
  node ->
  v:Model.var ->
  xv:float ->
  lo:float ->
  hi:float ->
  bound:float ->
  basis:Lp.Simplex.basis option ->
  node list
(** Children after branching on [v] at fractional value [xv]; [lo]/[hi]
    are [v]'s bounds at the node, [bound] the node's relaxation value,
    [basis] the node's optimal LP basis (inherited by both children for
    warm starts; pass [None] to force cold child solves).
    Listed up-child first, down-child last (LIFO pops the down side). *)
