(** Sparse columns and a factored basis for the revised simplex.

    {!mat} is an immutable CSC-style column store of the full constraint
    matrix (structural, slack and — during a cold solve — artificial
    columns), with a row-wise copy for pivot rows. {!factor} is an LU
    factorization of one basis of that matrix, extended by a
    product-form eta file: each pivot appends one eta column instead of
    refactorizing, and {!ftran}/{!btran} apply
    [B⁻¹]/[B⁻ᵀ] through the factors in O(nnz + eta entries) instead of
    the O(rows·cols) a dense tableau pays per pivot.

    Factors are persistent values: {!update} returns a new factor that
    shares the LU part and the old eta file, so a basis snapshot can
    carry its factor across domains (the parallel MILP solver migrates
    snapshots with stolen nodes) without any locking. The caller decides
    when the eta file is long enough to refactorize ({!eta_count}); a
    tiny or non-finite pivot makes {!update} (or {!factorize}) refuse,
    which is the sparse path's numerical-doubt signal — the simplex
    layer then refactorizes or falls back to the dense cold solve. *)

type mat
(** Immutable sparse matrix, stored by column, with a row-wise copy of
    the same entries for {!row_product}, and optionally followed by one
    signed unit column per row ({!with_units}). *)

val of_rows : cols:int -> (int * float) array array -> mat
(** [of_rows ~cols rows] builds a matrix from per-row [(column, value)]
    entry arrays. Entries within a row must not repeat a column. Each
    column lists its rows in descending order, the order in which
    {!row_product} adds them. Raises [Invalid_argument] on an
    out-of-range column index. *)

val with_units : mat -> float array -> mat
(** [with_units a signs] is [a] followed by one column [signs.(i)·e_i]
    per row [i] (the cold solve's artificial columns). Shares [a]'s
    storage: O(1) besides [signs], which must not be mutated
    afterwards. Raises [Invalid_argument] unless there is one sign per
    row. *)

val rows : mat -> int
val cols : mat -> int
val nnz : mat -> int

val col_dot : mat -> int -> float array -> float
(** [col_dot a j y] is [A_j · y] — one reduced cost / tableau-row entry
    given a BTRAN result [y]. O(nnz of column j). *)

val row_product : mat -> float array -> float array -> unit
(** [row_product a rho out] writes [ρᵀA_j] into [out.(j)] for every
    column [j] — a whole tableau row from one BTRAN result [rho] —
    visiting only the rows with [ρᵢ ≠ 0]. Every nonzero entry equals
    [col_dot a j rho] bit for bit, because each column's terms are added
    in the same order; an entry that is zero may differ from [col_dot]'s
    in the sign of that zero. [out] needs at least [cols a] entries.
    O(cols + nnz of the rows with ρᵢ ≠ 0). *)

val scatter_col : mat -> int -> scale:float -> float array -> unit
(** [scatter_col a j ~scale x] adds [scale · A_j] into dense [x]. *)

val col_to_dense : mat -> int -> float array
(** Fresh dense copy of column [j] (FTRAN right-hand side). *)

type factor
(** LU factors of a basis [B] (with row permutation from partial
    pivoting) plus a product-form eta file. Persistent: never mutated
    after construction. *)

val dim : factor -> int
(** Number of rows of the factored basis. *)

val eta_count : factor -> int
(** Length of the eta file — the refactorization trigger input. *)

val factor_nnz : factor -> int
(** Stored entries across L, U (diagonal included) and the eta file —
    the fill-in figure (bench/test observability). *)

val factorize : mat -> int array -> factor option
(** [factorize a basic] LU-factorizes the basis made of columns
    [basic.(0..m-1)] of [a], left-looking with partial pivoting.
    Returns [None] when the basis is singular (no pivot above the
    stability threshold) or a non-finite value appears. *)

val ftran : factor -> float array -> float array
(** [ftran f b] solves [B x = b]. Input is indexed by row; the result
    is indexed by basis position (the simplex's [xb]/pivot-row space).
    The input array is not modified. *)

val btran : factor -> float array -> float array
(** [btran f c] solves [Bᵀ y = c]. Input is indexed by basis position
    (costs of the basic variables, or a unit vector selecting a pivot
    row); the result is indexed by row, ready for {!col_dot}. *)

val update : factor -> pos:int -> alpha:float array -> factor option
(** [update f ~pos ~alpha] replaces basis position [pos] by a column
    whose FTRAN image is [alpha] (the entering column's simplex
    direction), by appending one eta to the file — the product-form
    update. O(nnz of alpha), shares all existing factors. Returns
    [None] when the eta diagonal [alpha.(pos)] is too small or any
    entry is non-finite: the caller must refactorize or fall back. *)

val basis_residual : mat -> int array -> x:float array -> b:float array -> float
(** [basis_residual a basic ~x ~b] is [‖B·x − b‖∞] with [x] in basis
    position space — the O(nnz) consistency probe {!Simplex.resolve}
    runs before trusting a factor that rode in on a snapshot. Returns
    [infinity] on a non-finite intermediate. *)
