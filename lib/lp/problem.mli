(** Linear-program builder.

    A problem is a set of bounded variables, an objective (always
    expressed as maximisation; use {!val:negate_objective} or negate
    coefficients for minimisation) and linear constraints. Variables are
    identified by the integer handles returned from {!add_var}.

    All variables must have finite bounds: the verifier only ever
    creates variables whose range is known (input boxes, propagated
    neuron bounds, binaries), and finiteness is what guarantees the
    simplex never meets an unbounded ray. *)

type var = int

type cmp = Le | Ge | Eq

type t

val create : unit -> t

val add_var : t -> ?name:string -> lo:float -> hi:float -> obj:float -> unit -> var
(** Raises [Invalid_argument] if [lo > hi] or either bound is not finite. *)

val add_constraint : t -> ?name:string -> (var * float) list -> cmp -> float -> unit
(** [add_constraint t terms cmp rhs] adds [Σ coeff·var cmp rhs]. Repeated
    variables in [terms] are summed. *)

val set_bounds : t -> var -> lo:float -> hi:float -> unit
(** Tighten/relax a variable's bounds (used by branch & bound). *)

val push_bounds : t -> unit
(** Open a journal frame: every subsequent {!set_bounds} records the
    overwritten bounds until the matching {!pop_bounds}. Frames nest.
    Only bound writes are journalled — adding variables or constraints
    inside a frame is not undone. *)

val pop_bounds : t -> unit
(** Restore all bounds changed since the matching {!push_bounds} and
    discard the frame. Raises [Invalid_argument] with no open frame.
    This is how branch & bound evaluates a node in O(depth) bound
    writes instead of copying the whole problem. *)

val journal_depth : t -> int
(** Number of currently open journal frames (testing hook). *)

val bounds : t -> var -> float * float
val set_objective : t -> (var * float) list -> unit
val objective_coeff : t -> var -> float
val num_vars : t -> int
val num_constraints : t -> int

val nnz : t -> int
(** Structural non-zeros across all constraint rows (as written; exact
    zeros passed to {!add_constraint} are already merged away). *)

val density : t -> float
(** [nnz / (rows · cols)], or [0.] for an empty problem — the sparsity
    figure the sparse revised simplex ({!Sparse}) exploits. *)

val var_name : t -> var -> string

val copy : t -> t
(** Deep copy; bound mutations on the copy do not affect the original.
    The copy starts with an empty bound journal and shares the
    original's {!form}, if one is built. *)

(** Internal row representation, exposed for the solver and for tests. *)
type row = { terms : (var * float) array; cmp : cmp; rhs : float; cname : string }

val rows : t -> row array

type form = {
  rows : row array;
  mat : Sparse.mat;
      (** one column per variable, then one slack column [e_i] per row;
          each column lists its rows in descending order, and the
          row-wise copy serves {!Sparse.row_product} *)
  b : float array;    (** each row's right-hand side *)
  finite : bool;      (** every constraint coefficient and rhs is finite *)
}
(** The constraint set in the column form the sparse simplex solves
    on. It depends on the rows and the number of variables only — not
    on bounds or the objective — so it is built once, on first use,
    and every later solve, cold or warm, shares it until {!add_var} or
    {!add_constraint} changes the constraint set. An immutable value:
    the arrays must not be mutated, and copies ({!copy}) share it. *)

val form : t -> form
(** The problem's {!type-form}, built now if the constraint set changed
    since the last call. Building it writes to the problem, like any
    other mutation: domains that solve in parallel each work on their
    own {!copy}, as the MILP workers and OBBT probes do. *)

val var_lo : t -> float array
val var_hi : t -> float array
val objective : t -> float array
