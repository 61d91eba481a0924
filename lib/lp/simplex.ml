type status = Optimal | Infeasible | Iteration_limit

type var_status = Basic | At_lower | At_upper

(* Compact basis snapshot: which column is basic in each row, and which
   bound every nonbasic column is parked on. Together with the problem's
   current bounds this determines a unique basic point, so a child
   branch-and-bound node (one bound change away from its parent) can
   rebuild the parent's optimal basis and re-solve with the dual
   simplex instead of starting from the artificial identity. The arrays
   are immutable by contract — snapshots migrate across domains in the
   parallel solver — and every consumer copies before mutating.

   [bfactor] additionally carries the sparse core's factored basis
   (LU + eta file), which every snapshot a solve returns has: a child
   node's matrix is identical to its parent's (only bounds differ), so
   the warm restore can skip factorization entirely. The factor is
   persistent data, safe to share across domains; it is advisory — the
   sparse restore probes it against the current problem's basis matrix
   and refactorizes from scratch on any mismatch. *)
type basis = {
  bm : int;
  bnstruct : int;
  bbasic : int array;
  bupper : bool array;
  bfactor : Sparse.factor option;
}

(* Certificates are plain dual vectors over the original (unscaled)
   rows, one entry per row, in the slack-equality view of the problem:
   every row reads  A_i·x + s_i = b_i  with the slack bounds encoding
   the sense, so the duals are sign-free. For ANY y the identity
   c·x = y·b + r·z with r = c̄ − Āᵀy holds over feasible z = (x, s),
   hence U(y) = y·b + Σ_j max(r_j·l_j, r_j·u_j) is a sound upper bound
   on the objective — an auditor recomputes U(y) with outward rounding
   and never has to trust the pivoting that produced y. *)
type cert =
  | Cert_duals of float array
  | Cert_farkas of float array
  | Cert_empty_row of int

type solution = {
  status : status;
  objective : float;
  x : float array;
  iterations : int;
  basis : basis option;
  warm : bool;
  cert : cert option;
}

(* An infeasibility conclusion, with the evidence that proves it. *)
let infeasible ?(warm = false) ~iterations cert =
  { status = Infeasible; objective = 0.0; x = [||]; iterations; basis = None;
    warm; cert = Some cert }

(* A solve that concludes nothing: no point, no basis, no certificate. *)
let unconcluded ~iterations =
  { status = Iteration_limit; objective = 0.0; x = [||]; iterations;
    basis = None; warm = false; cert = None }

(* Raised by a cold build or a warm restore when row [i]'s slack range
   is empty under the variable box — exact interval arithmetic, no
   pivoting involved, so the row index itself is the certificate. *)
exception Row_infeasible of int

exception Numerical_error of string

(* Fail fast when NaN/Inf appears in a pivot: continuing would either
   cycle (NaN comparisons are all false, so no entering column is
   ever found and a garbage basis is reported "optimal") or return a
   meaningless objective. *)
let check_finite what x =
  if not (Float.is_finite x) then raise (Numerical_error what)

let row_activity_bounds lo hi (terms : (int * float) array) =
  let alo = ref 0.0 and ahi = ref 0.0 in
  Array.iter
    (fun (v, c) ->
      if c >= 0.0 then begin
        alo := !alo +. (c *. lo.(v));
        ahi := !ahi +. (c *. hi.(v))
      end
      else begin
        alo := !alo +. (c *. hi.(v));
        ahi := !ahi +. (c *. lo.(v))
      end)
    terms;
  (!alo, !ahi)

(* Slack bounds encode the row sense: activity + slack = rhs. An empty
   range means the row cannot be satisfied by any point of the box. *)
let slack_bounds ~row:i lo hi (row : Problem.row) =
  let alo, ahi = row_activity_bounds lo hi row.terms in
  match row.cmp with
  | Problem.Le ->
      let shi = row.rhs -. alo in
      if shi < 0.0 then raise (Row_infeasible i);
      (0.0, shi)
  | Problem.Ge ->
      let slo = row.rhs -. ahi in
      if slo > 0.0 then raise (Row_infeasible i);
      (slo, 0.0)
  | Problem.Eq ->
      if row.rhs < alo -. 1e-9 || row.rhs > ahi +. 1e-9 then
        raise (Row_infeasible i);
      (0.0, 0.0)

(* Outward check of a Farkas ray. With the zero objective the
   certificate bound of [cert] reads
     U(y) = y·b + Σ_j sup(−(Aᵀy)_j·[l_j,u_j]) + Σ_i sup(−y_i·[slo_i,shi_i])
   and U(y) < 0 proves that no point of the box satisfies the rows.
   Round to nearest lands within one ulp of the true value, so stepping
   one float outward after every operation gives a directed bound; the
   slack ranges are recomputed outward from the box, never read from a
   solver's float ones. The terms are summed in the order the audit's
   replay sums them, so a ray accepted here replays there as well.

   This runs at every infeasible branch-and-bound node, so it keeps
   its floats unboxed: plain loops, the two ends of −Aᵀy in two float
   arrays, and no closure or tuple per column or row. *)

(* [Float.max] without the call: NaN when either side is NaN. *)
let[@inline] fmax a b = if a >= b then a else if a < b then b else a +. b

(* sup of r·x over r in [rlo, rhi] and x in [l, h], outward. *)
let[@inline] sup_extreme rlo rhi l h =
  fmax
    (fmax (Float.succ (rlo *. l)) (Float.succ (rlo *. h)))
    (fmax (Float.succ (rhi *. l)) (Float.succ (rhi *. h)))

let farkas_certifies problem y =
  let rows = (Problem.form problem).Problem.rows in
  let m = Array.length rows in
  Array.length y = m
  && Array.for_all Float.is_finite y
  &&
  let n = Problem.num_vars problem in
  let lo = Problem.var_lo problem and hi = Problem.var_hi problem in
  let rlo = Array.make n 0.0 and rhi = Array.make n 0.0 in
  let u = ref 0.0 in
  for i = 0 to m - 1 do
    let yi = y.(i) and row = rows.(i) in
    if yi <> 0.0 then begin
      u := Float.succ (!u +. Float.succ (yi *. row.rhs));
      let terms = row.terms in
      for k = 0 to Array.length terms - 1 do
        let v, c = terms.(k) in
        rlo.(v) <- Float.pred (rlo.(v) -. Float.succ (yi *. c));
        rhi.(v) <- Float.succ (rhi.(v) -. Float.pred (yi *. c))
      done
    end
  done;
  for j = 0 to n - 1 do
    u := Float.succ (!u +. sup_extreme rlo.(j) rhi.(j) lo.(j) hi.(j))
  done;
  (* A row no point of the box can meet empties the region outright. *)
  let empty = ref false in
  for i = 0 to m - 1 do
    let row = rows.(i) in
    let alo = ref 0.0 and ahi = ref 0.0 in
    let terms = row.terms in
    for k = 0 to Array.length terms - 1 do
      let v, c = terms.(k) in
      if c >= 0.0 then begin
        alo := Float.pred (!alo +. Float.pred (c *. lo.(v)));
        ahi := Float.succ (!ahi +. Float.succ (c *. hi.(v)))
      end
      else begin
        alo := Float.pred (!alo +. Float.pred (c *. hi.(v)));
        ahi := Float.succ (!ahi +. Float.succ (c *. lo.(v)))
      end
    done;
    let r = -.y.(i) and rhs = row.rhs in
    match row.cmp with
    | Problem.Le ->
        if !alo > rhs then empty := true
        else
          u :=
            Float.succ
              (!u +. sup_extreme r r 0.0 (fmax 0.0 (Float.succ (rhs -. !alo))))
    | Problem.Ge ->
        if !ahi < rhs then empty := true
        else
          u :=
            Float.succ
              (!u +. sup_extreme r r (Float.min 0.0 (Float.pred (rhs -. !ahi))) 0.0)
    | Problem.Eq ->
        if rhs < !alo || rhs > !ahi then empty := true
        else u := Float.succ (!u +. sup_extreme r r 0.0 0.0)
  done;
  !empty || !u < 0.0

(* ------------------------------------------------------------------ *)
(* Sparse revised simplex, the engine behind every solve.

   Two-phase primal bounded-variable simplex plus a dual-simplex warm
   restart. Columns are laid out [structural | slacks | artificials].
   Every variable carries finite bounds (slack bounds are implied by the
   finite structural bounds; artificials live in [0, |initial
   residual|]). The cold basis is the artificial identity, which is
   primal feasible by construction; phase 1 maximises -sum(artificials)
   to 0 and phase 2 maximises the real objective with artificials pinned
   to [0,0]. Primal feasibility is invariant, so the only termination
   hazard is degenerate cycling, which a stall-triggered switch to
   Bland's rule removes.

   The basis inverse lives in an LU factorization plus a product-form
   eta file ({!Sparse.factor}), never in an explicit m×n tableau.
   Tableau columns are materialized on demand: the entering column by
   FTRAN, the pivot row by BTRAN of a unit vector, so a pivot costs
   O(nnz) work instead of O(rows·cols).

   It reports [Infeasible] only on evidence it has checked: a row whose
   slack range is empty under the box, or a Farkas ray that passes
   [farkas_certifies]. A ray that fails the check concludes nothing and
   returns [Iteration_limit], and so does numerical trouble it raises
   (the dispatcher below). *)

let pivot_tolerance = 1e-8

(* The feasibility/optimality tolerance of every solve. *)
let eps = 1e-7

(* Refactorize once the eta file reaches this length: each eta adds one
   O(nnz alpha) term to every FTRAN/BTRAN and compounds round-off, so
   past a fixed depth a fresh O(m·nnz) LU is both faster and safer —
   the classic Forrest–Tomlin-style trigger. Exposed for tests. *)
let refactor_interval = ref 32

type state = {
  m : int;
  n : int;                   (* columns of [mat] *)
  nstruct : int;
  nreal : int;
  mat : Sparse.mat;
  b : float array;           (* raw row rhs, for xb refresh *)
  lo : float array;
  hi : float array;
  r : float array;
  cost : float array;
  mutable support : int array;  (* columns with cost <> 0, ascending *)
  basis : int array;
  status : var_status array;
  xb : float array;          (* basic values, indexed by basis position *)
  work : float array;        (* the current pivot row, one per column *)
  mutable fac : Sparse.factor;
}

let support_of cost =
  let s = ref [] in
  for j = Array.length cost - 1 downto 0 do
    if cost.(j) <> 0.0 then s := j :: !s
  done;
  Array.of_list !s

let value st j =
  match st.status.(j) with
  | At_lower -> st.lo.(j)
  | At_upper -> st.hi.(j)
  | Basic -> assert false

(* Effective rhs with every nonbasic column folded in: B·xb = rhs_eff. *)
let rhs_eff st =
  let r = Array.copy st.b in
  for j = 0 to st.n - 1 do
    if st.status.(j) <> Basic then begin
      let v = value st j in
      if v <> 0.0 then Sparse.scatter_col st.mat j ~scale:(-.v) r
    end
  done;
  r

let refactor st =
  match Sparse.factorize st.mat st.basis with
  | Some f -> st.fac <- f
  | None -> raise (Numerical_error "singular basis at refactorization")

let recompute_reduced_costs st =
  let cb = Array.make st.m 0.0 in
  for i = 0 to st.m - 1 do
    cb.(i) <- st.cost.(st.basis.(i))
  done;
  let y = Sparse.btran st.fac cb in
  for j = 0 to st.n - 1 do
    if st.status.(j) = Basic then st.r.(j) <- 0.0
    else begin
      let v = st.cost.(j) -. Sparse.col_dot st.mat j y in
      if Float.is_nan v then
        raise (Numerical_error "NaN reduced cost in sparse recompute");
      st.r.(j) <- v
    end
  done

(* Periodic stability refresh: fresh LU, exact reduced costs, and the
   basic point recomputed from the factors so incremental round-off
   cannot accumulate unboundedly. *)
let refresh st =
  refactor st;
  recompute_reduced_costs st;
  let xb = Sparse.ftran st.fac (rhs_eff st) in
  Array.iteri
    (fun i v ->
      if not (Float.is_finite v) then
        raise (Numerical_error "non-finite basic value after refresh");
      st.xb.(i) <- v)
    xb

(* Recomputed after every iteration for stall detection, so the
   nonbasic part visits the cost's support only — the m artificials
   in phase 1, the objective's nonzeros in phase 2 — in ascending
   order, the same additions a scan of every column makes. *)
let phase_objective st =
  let total = ref 0.0 in
  for i = 0 to st.m - 1 do
    let c = st.cost.(st.basis.(i)) in
    if c <> 0.0 then total := !total +. (c *. st.xb.(i))
  done;
  let support = st.support in
  for k = 0 to Array.length support - 1 do
    let j = support.(k) in
    match st.status.(j) with
    | Basic -> ()
    | At_lower -> total := !total +. (st.cost.(j) *. st.lo.(j))
    | At_upper -> total := !total +. (st.cost.(j) *. st.hi.(j))
  done;
  if Float.is_nan !total then raise (Numerical_error "NaN objective value");
  !total

(* Dantzig pricing, or the first eligible column in Bland mode. One
   plain loop over every column, so the scores stay unboxed. *)
let select_entering st ~bland eps =
  let best = ref (-1) and best_score = ref eps in
  let status = st.status and lo = st.lo and hi = st.hi and r = st.r in
  for j = 0 to st.n - 1 do
    match status.(j) with
    | Basic -> ()
    | (At_lower | At_upper) as s ->
        if lo.(j) < hi.(j) then begin
          let score = if s = At_lower then r.(j) else -.r.(j) in
          if Float.is_nan score then
            raise (Numerical_error "NaN reduced cost in pricing");
          if bland then begin
            if score > eps && !best < 0 then best := j
          end
          else if score > !best_score then begin
            best_score := score;
            best := j
          end
        end
  done;
  !best

(* FTRAN image of column q: the simplex direction through the current
   factored basis — the revised-simplex replacement for tableau
   column q. *)
let entering_alpha st q =
  let alpha = Sparse.ftran st.fac (Sparse.col_to_dense st.mat q) in
  for i = 0 to Array.length alpha - 1 do
    if Float.is_nan alpha.(i) then
      raise (Numerical_error "NaN in FTRAN column")
  done;
  alpha

type step =
  | Bound_flip
  | Pivot of { rrow : int; to_lower : bool }
  | Unbounded_step  (* cannot happen with finite bounds; defensive *)

(* Ratio test: entering variable q moves by t >= 0 in direction [dir]
   (+1 from its lower bound, -1 from its upper bound). Basic variable i
   changes as xb_i - t * dir * alpha_i. The step is capped by the
   entering variable's own range (a cap reached first is a bound flip).
   Ties between blocking rows go to the largest pivot magnitude for
   stability, or to the smallest basic-variable index in Bland mode. *)
let ratio_test st ~q ~dir ~alpha ~bland =
  let t_entering = st.hi.(q) -. st.lo.(q) in
  let best_t = ref t_entering in
  let best_row = ref (-1)
  and best_to_lower = ref true
  and best_mag = ref 0.0 in
  for i = 0 to st.m - 1 do
    let k = dir *. alpha.(i) in
    if Float.abs k > pivot_tolerance then begin
      let v = st.basis.(i) in
      let limit, to_lower =
        if k > 0.0 then ((st.xb.(i) -. st.lo.(v)) /. k, true)
        else ((st.xb.(i) -. st.hi.(v)) /. k, false)
      in
      let limit = Float.max 0.0 limit in
      let mag = Float.abs alpha.(i) in
      if limit < !best_t -. 1e-10 then begin
        best_t := limit;
        best_row := i;
        best_to_lower := to_lower;
        best_mag := mag
      end
      else if limit < !best_t +. 1e-10 && !best_row >= 0 then begin
        let wins =
          if bland then st.basis.(i) < st.basis.(!best_row)
          else mag > !best_mag
        in
        if wins then begin
          best_row := i;
          best_to_lower := to_lower;
          best_mag := mag
        end
      end
      else if limit < !best_t +. 1e-10 && !best_row < 0
              && limit < t_entering -. 1e-10
      then begin
        best_t := limit;
        best_row := i;
        best_to_lower := to_lower;
        best_mag := mag
      end
    end
  done;
  if !best_row < 0 then
    if Float.is_finite t_entering then (t_entering, Bound_flip)
    else (0.0, Unbounded_step)
  else (!best_t, Pivot { rrow = !best_row; to_lower = !best_to_lower })

let apply_move st ~alpha ~dir ~t =
  for i = 0 to st.m - 1 do
    let k = alpha.(i) in
    if k <> 0.0 then st.xb.(i) <- st.xb.(i) -. (t *. dir *. k)
  done

(* Tableau row [rrow] into [st.work]: one BTRAN of a unit vector, then
   ρᵀA over the rows with ρᵢ ≠ 0 ({!Sparse.row_product}). *)
let pivot_row st rrow =
  let e = Array.make st.m 0.0 in
  e.(rrow) <- 1.0;
  let rho = Sparse.btran st.fac e in
  Sparse.row_product st.mat rho st.work;
  rho

(* Replace basis position [rrow] by column [q]. Reduced costs update
   in O(nnz): r_j -= (r_q / alpha_piv)·(ρ·A_j) over nonbasic columns,
   with the tableau row in [st.work] — computed here, or already
   there when the dual loop passes [~row_ready:true]. The factor takes
   one eta; once the file reaches [refactor_interval] the basis is
   refactorized. *)
let pivot st ~rrow ~q ~alpha ?(row_ready = false) ~entering_value
    ~leaving_to_lower () =
  let apiv = alpha.(rrow) in
  check_finite "non-finite pivot element" (1.0 /. apiv);
  check_finite "non-finite entering value" entering_value;
  let leaving = st.basis.(rrow) in
  let rq = st.r.(q) in
  if rq <> 0.0 then begin
    let k = rq /. apiv in
    if not row_ready then ignore (pivot_row st rrow);
    let arow = st.work and status = st.status and r = st.r in
    for j = 0 to st.n - 1 do
      let a = arow.(j) in
      if a <> 0.0 && status.(j) <> Basic then begin
        let nr = r.(j) -. (k *. a) in
        if Float.is_nan nr then
          raise (Numerical_error "NaN reduced cost after pivot");
        r.(j) <- nr
      end
    done;
    (* The leaving column's tableau-row entry is exactly 1. *)
    st.r.(leaving) <- st.r.(leaving) -. k;
    st.r.(q) <- 0.0
  end;
  st.basis.(rrow) <- q;
  st.status.(q) <- Basic;
  st.status.(leaving) <- (if leaving_to_lower then At_lower else At_upper);
  st.xb.(rrow) <- entering_value;
  match Sparse.update st.fac ~pos:rrow ~alpha with
  | Some f ->
      st.fac <- f;
      if Sparse.eta_count f >= !refactor_interval then refactor st
  | None ->
      (* Eta rejected (tiny/non-finite diagonal): rebuild from
         scratch; a singular rebuild raises, and the dispatcher reports
         the solve unconcluded. *)
      refactor st

(* Run primal iterations for the current phase until no improving column
   remains. Returns the iteration count consumed or None on limit. *)
let optimize st ~eps ~limit ~start_iter =
  let stall_threshold = 4 * (st.m + 16) in
  let rec loop iter ~bland ~stall ~best_obj =
    if iter >= limit then None
    else begin
      if iter mod 256 = 255 then refresh st;
      let q = select_entering st ~bland eps in
      if q < 0 then Some iter
      else begin
        let dir =
          match st.status.(q) with
          | At_lower -> 1.0
          | At_upper -> -1.0
          | Basic -> assert false
        in
        let alpha = entering_alpha st q in
        let t, step = ratio_test st ~q ~dir ~alpha ~bland in
        match step with
        | Unbounded_step -> None
        | Bound_flip ->
            apply_move st ~alpha ~dir ~t;
            st.status.(q) <- (if dir > 0.0 then At_upper else At_lower);
            let obj = phase_objective st in
            let bland, stall, best_obj =
              if bland then (true, 0, best_obj)
              else if obj > best_obj +. 1e-12 then (false, 0, obj)
              else if stall + 1 >= stall_threshold then (true, 0, best_obj)
              else (false, stall + 1, best_obj)
            in
            loop (iter + 1) ~bland ~stall ~best_obj
        | Pivot { rrow; to_lower } ->
            apply_move st ~alpha ~dir ~t;
            let entering_value =
              (if dir > 0.0 then st.lo.(q) else st.hi.(q)) +. (dir *. t)
            in
            pivot st ~rrow ~q ~alpha ~entering_value
              ~leaving_to_lower:to_lower ();
            let obj = phase_objective st in
            let bland, stall, best_obj =
              if bland then (true, 0, best_obj)
              else if obj > best_obj +. 1e-12 then (false, 0, obj)
              else if stall + 1 >= stall_threshold then (true, 0, best_obj)
              else (false, stall + 1, best_obj)
            in
            loop (iter + 1) ~bland ~stall ~best_obj
      end
    end
  in
  loop start_iter ~bland:false ~stall:0 ~best_obj:(phase_objective st)

(* Basic values carry elimination round-off (one ulp suffices to land
   outside a bound); clamp so the reported point always respects the
   variable bounds exactly, like nonbasic variables do. *)
let extract st =
  let row_of = Array.make st.n (-1) in
  Array.iteri (fun i v -> row_of.(v) <- i) st.basis;
  Array.init st.nstruct (fun j ->
      match st.status.(j) with
      | Basic -> Float.min st.hi.(j) (Float.max st.lo.(j) st.xb.(row_of.(j)))
      | At_lower -> st.lo.(j)
      | At_upper -> st.hi.(j))

let snapshot st =
  if Array.exists (fun v -> v >= st.nreal) st.basis then None
  else
    Some
      {
        bm = st.m;
        bnstruct = st.nstruct;
        bbasic = Array.copy st.basis;
        bupper = Array.init st.nreal (fun j -> st.status.(j) = At_upper);
        bfactor = Some st.fac;
      }

(* Cold build. Rows are NOT scaled by the residual sign — the
   artificial column i is [(i, sign_i)] instead — so the structural and
   slack columns are the problem's own column form, shared with every
   warm restore, and a factor snapshot transfers between the two
   without translation. The dispatcher has already refused non-finite
   input. *)
let build problem =
  let form = Problem.form problem in
  let rows = form.Problem.rows in
  let m = Array.length rows in
  let nstruct = Problem.num_vars problem in
  let nreal = nstruct + m in
  let n = nreal + m in
  let vlo = Problem.var_lo problem and vhi = Problem.var_hi problem in
  let lo = Array.make n 0.0 and hi = Array.make n 0.0 in
  Array.blit vlo 0 lo 0 nstruct;
  Array.blit vhi 0 hi 0 nstruct;
  let status = Array.make n At_lower in
  (* The starting value of each structural column. *)
  let x0 = Array.make nstruct 0.0 in
  for j = 0 to nstruct - 1 do
    if Float.abs hi.(j) < Float.abs lo.(j) then begin
      status.(j) <- At_upper;
      x0.(j) <- hi.(j)
    end
    else x0.(j) <- lo.(j)
  done;
  let basis = Array.init m (fun i -> nreal + i) in
  let xb = Array.make m 0.0 in
  let signs = Array.make m 0.0 in
  Array.iteri
    (fun i row ->
      let slo, shi = slack_bounds ~row:i vlo vhi row in
      let si = nstruct + i in
      lo.(si) <- slo;
      hi.(si) <- shi;
      let activity = ref 0.0 in
      let terms = row.Problem.terms in
      for k = 0 to Array.length terms - 1 do
        let v, c = terms.(k) in
        activity := !activity +. (c *. x0.(v))
      done;
      let activity = !activity in
      let resid_at bnd = row.Problem.rhs -. activity -. bnd in
      let s_at_lo = resid_at slo and s_at_hi = resid_at shi in
      let sstat, resid =
        if Float.abs s_at_lo <= Float.abs s_at_hi then (At_lower, s_at_lo)
        else (At_upper, s_at_hi)
      in
      status.(si) <- sstat;
      let ai = nreal + i in
      signs.(i) <- (if resid >= 0.0 then 1.0 else -1.0);
      lo.(ai) <- 0.0;
      hi.(ai) <- Float.abs resid;
      status.(ai) <- Basic;
      xb.(i) <- Float.abs resid)
    rows;
  let mat = Sparse.with_units form.Problem.mat signs in
  let fac =
    match Sparse.factorize mat basis with
    | Some f -> f
    | None ->
        (* The artificial identity is ±1-diagonal; failure here means
           non-finite input slipped through. *)
        raise (Numerical_error "artificial basis factorization failed")
  in
  let cost = Array.make n 0.0 in
  for i = 0 to m - 1 do
    cost.(nreal + i) <- -1.0
  done;
  let st =
    { m; n; nstruct; nreal; mat; b = form.Problem.b; lo; hi;
      r = Array.make n 0.0; cost; support = support_of cost; basis; status;
      xb; work = Array.make n 0.0; fac }
  in
  recompute_reduced_costs st;
  st

(* Warm restore at a snapshot basis under the problem's *current*
   bounds. The basis inverse comes either from the factor that rode
   in on the snapshot — accepted only after an O(nnz) residual probe
   against this problem's basis matrix — or from a fresh
   factorization. Returns [None] when the snapshot does not fit this
   problem or the claimed basis is singular — the caller then solves
   cold. Raises [Row_infeasible] when a row's slack range is empty
   under the current box (the same sound, cheap detection the cold
   build does). Restores maximise: only [resolve] warm-starts. *)
let restore problem basis =
  let m = Problem.num_constraints problem in
  let nstruct = Problem.num_vars problem in
  let nreal = nstruct + m in
  let valid =
    basis.bm = m && basis.bnstruct = nstruct
    && Array.length basis.bbasic = m
    && Array.length basis.bupper = nreal
    &&
    let seen = Array.make nreal false in
    Array.for_all
      (fun v ->
        v >= 0 && v < nreal
        &&
        if seen.(v) then false
        else begin
          seen.(v) <- true;
          true
        end)
      basis.bbasic
  in
  if not valid then None
  else begin
    let form = Problem.form problem in
    let vlo = Problem.var_lo problem and vhi = Problem.var_hi problem in
    let lo = Array.make nreal 0.0 and hi = Array.make nreal 0.0 in
    Array.blit vlo 0 lo 0 nstruct;
    Array.blit vhi 0 hi 0 nstruct;
    Array.iteri
      (fun i row ->
        let slo, shi = slack_bounds ~row:i vlo vhi row in
        lo.(nstruct + i) <- slo;
        hi.(nstruct + i) <- shi)
      form.Problem.rows;
    let mat = form.Problem.mat and b = form.Problem.b in
    let status = Array.make nreal At_lower in
    for j = 0 to nreal - 1 do
      if basis.bupper.(j) then status.(j) <- At_upper
    done;
    Array.iter (fun q -> status.(q) <- Basic) basis.bbasic;
    let value j =
      match status.(j) with
      | At_lower -> lo.(j)
      | At_upper -> hi.(j)
      | Basic -> assert false
    in
    let rhs = Array.copy b in
    for j = 0 to nreal - 1 do
      if status.(j) <> Basic then begin
        let v = value j in
        if v <> 0.0 then Sparse.scatter_col mat j ~scale:(-.v) rhs
      end
    done;
    let scale =
      Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 1.0 rhs
    in
    let accept f =
      let xb = Sparse.ftran f rhs in
      if Sparse.basis_residual mat basis.bbasic ~x:xb ~b:rhs
         <= 1e-6 *. scale
      then Some (f, xb)
      else None
    in
    let picked =
      match basis.bfactor with
      | Some f when Sparse.dim f = m -> (
          match accept f with
          | Some r -> Some r
          | None ->
              (* Snapshot factor disagrees with this problem's basis
                 matrix (stale or drifted eta file): refactorize. *)
              Option.bind (Sparse.factorize mat basis.bbasic) accept)
      | _ -> Option.bind (Sparse.factorize mat basis.bbasic) accept
    in
    match picked with
    | None -> None
    | Some (fac, xb) ->
        let cost = Array.make nreal 0.0 in
        Array.blit (Problem.objective problem) 0 cost 0 nstruct;
        let st =
          { m; n = nreal; nstruct; nreal; mat; b; lo; hi;
            r = Array.make nreal 0.0; cost; support = support_of cost;
            basis = Array.copy basis.bbasic; status; xb;
            work = Array.make nreal 0.0; fac }
        in
        recompute_reduced_costs st;
        Some st
  end

(* An infeasible exit carries the iterations spent and the Farkas
   ray, which the caller checks itself. *)
type dual_outcome =
  | Dual_feasible of int
  | Dual_limit
  | Dual_infeasible of int * float array

(* Bounded-variable dual simplex: starting from a (near) dual-feasible
   basis whose basic values may violate their bounds — exactly the
   state a parent-optimal basis is in after one child bound change —
   drive the basic point back inside the box while keeping the reduced
   costs optimal. Each iteration kicks the most-violated basic
   variable out to its violated bound; the entering column is chosen
   by the dual ratio test (smallest |r_j / alpha_j| over sign-eligible
   columns), ties to the largest pivot magnitude, or the smallest
   index once a stall has switched the loop to Bland mode. *)
let dual_optimize st ~limit ~start_iter =
  let tol v = 1e-9 *. (1.0 +. Float.abs v) in
  let violation i =
    let v = st.basis.(i) in
    if st.xb.(i) < st.lo.(v) -. tol st.lo.(v) then st.lo.(v) -. st.xb.(i)
    else if st.xb.(i) > st.hi.(v) +. tol st.hi.(v) then
      st.xb.(i) -. st.hi.(v)
    else 0.0
  in
  let stall_threshold = 4 * (st.m + 16) in
  let arow = st.work in
  let rec loop iter ~bland ~stall ~best_obj =
    if iter >= limit then Dual_limit
    else begin
      if iter mod 256 = 255 then refresh st;
      let rrow = ref (-1) and worst = ref 0.0 in
      for i = 0 to st.m - 1 do
        let v = violation i in
        if v > !worst then begin
          worst := v;
          rrow := i
        end
      done;
      if !rrow < 0 then Dual_feasible iter
      else begin
        let rrow = !rrow in
        let vleave = st.basis.(rrow) in
        let below = st.xb.(rrow) < st.lo.(vleave) in
        (* Tableau row rrow; the entries of basic columns are never
           read. *)
        let rho = pivot_row st rrow in
        let q = ref (-1)
        and best_ratio = ref infinity
        and best_mag = ref 0.0 in
        for j = 0 to st.n - 1 do
          let a = arow.(j) in
          let eligible =
            st.lo.(j) < st.hi.(j)
            &&
            match st.status.(j) with
            | Basic -> false
            | At_lower ->
                if below then a < -.pivot_tolerance
                else a > pivot_tolerance
            | At_upper ->
                if below then a > pivot_tolerance
                else a < -.pivot_tolerance
          in
          if eligible then begin
            let ratio = Float.abs (st.r.(j) /. a) in
            if Float.is_nan ratio then
              raise (Numerical_error "NaN dual ratio");
            let mag = Float.abs a in
            if ratio < !best_ratio -. 1e-10 then begin
              q := j;
              best_ratio := ratio;
              best_mag := mag
            end
            else if ratio < !best_ratio +. 1e-10 && !q >= 0 then begin
              let wins = if bland then j < !q else mag > !best_mag in
              if wins then begin
                q := j;
                best_ratio := ratio;
                best_mag := mag
              end
            end
          end
        done;
        if !q < 0 then
          if !worst > 1e-6 then begin
            (* No eligible column moves the leaving variable towards
               its violated bound, so row rrow of B⁻¹[A|I]z = B⁻¹b
               cannot hold anywhere in the box: ρ is a Farkas ray,
               pointing up when the variable sits below its lower
               bound and down when above. The caller checks it outward
               before pruning on it. *)
            if not below then Array.iteri (fun i v -> rho.(i) <- -.v) rho;
            Dual_infeasible (iter, rho)
          end
          else begin
            (* Within tolerance noise: accept the bound as met. *)
            st.xb.(rrow) <-
              (if below then st.lo.(vleave) else st.hi.(vleave));
            loop (iter + 1) ~bland ~stall ~best_obj
          end
        else begin
          let q = !q in
          let alpha = entering_alpha st q in
          let apiv = alpha.(rrow) in
          let target = if below then st.lo.(vleave) else st.hi.(vleave) in
          let delta = (st.xb.(rrow) -. target) /. apiv in
          check_finite "non-finite dual step" delta;
          apply_move st ~alpha ~dir:1.0 ~t:delta;
          let entering_value =
            (match st.status.(q) with
             | At_lower -> st.lo.(q)
             | At_upper -> st.hi.(q)
             | Basic -> assert false)
            +. delta
          in
          pivot st ~rrow ~q ~alpha ~row_ready:true ~entering_value
            ~leaving_to_lower:below ();
          (* The (max-sense) objective is non-increasing along dual
             steps; a long run without decrease is the stall signal. *)
          let obj = phase_objective st in
          let bland, stall, best_obj =
            if bland then (true, 0, best_obj)
            else if obj < best_obj -. 1e-12 then (false, 0, obj)
            else if stall + 1 >= stall_threshold then (true, 0, best_obj)
            else (false, stall + 1, best_obj)
          in
          loop (iter + 1) ~bland ~stall ~best_obj
        end
      end
    end
  in
  loop start_iter ~bland:false ~stall:0 ~best_obj:(phase_objective st)

(* Dual vector over the original rows, read straight off the maintained
   reduced costs: the build never scales rows, so row i's slack column
   has reduced cost r_si = −y_i. O(m) copy, no extra factorisation;
   drift since the last reduced-cost refresh only loosens the certified
   bound, never unsoundly (the auditor recomputes everything from y). *)
let row_duals st = Array.init st.m (fun i -> -.st.r.(st.nstruct + i))

let optimal ~certify st ~iterations ~warm problem =
  let x = extract st in
  let obj = Problem.objective problem in
  let value = ref 0.0 in
  for j = 0 to st.nstruct - 1 do
    value := !value +. (obj.(j) *. x.(j))
  done;
  {
    status = Optimal;
    objective = !value;
    x;
    iterations;
    warm;
    basis = snapshot st;
    cert = (if certify then Some (Cert_duals (row_duals st)) else None);
  }

let solve_internal problem ~negate =
  match build problem with
  | exception Row_infeasible i ->
      (* Empty slack range under the box is exact interval
         arithmetic. *)
      infeasible ~iterations:0 (Cert_empty_row i)
  | st -> (
      let limit = 500 * (st.m + st.n) in
      match optimize st ~eps ~limit ~start_iter:0 with
      | None -> unconcluded ~iterations:limit
      | Some it1 ->
          let infeasibility = -.phase_objective st in
          if infeasibility > 1e-6 then begin
            (* Farkas ray from the phase-1 optimum: with the phase-1
               objective (0 on every real column) its duals give
               U(y) ≈ −infeasibility < 0. Recompute the reduced costs
               first, so the ray is as clean as possible. A ray that
               fails its outward check proves nothing, and neither does
               this phase-1 optimum: the LP stays unconcluded. *)
            recompute_reduced_costs st;
            let ray = row_duals st in
            if farkas_certifies problem ray then
              infeasible ~iterations:it1 (Cert_farkas ray)
            else unconcluded ~iterations:it1
          end
          else begin
            for i = 0 to st.m - 1 do
              let ai = st.nreal + i in
              st.hi.(ai) <- 0.0;
              if st.status.(ai) = At_upper then st.status.(ai) <- At_lower
            done;
            let obj = Problem.objective problem in
            Array.fill st.cost 0 st.n 0.0;
            for j = 0 to st.nstruct - 1 do
              st.cost.(j) <- (if negate then -.obj.(j) else obj.(j))
            done;
            st.support <- support_of st.cost;
            recompute_reduced_costs st;
            match optimize st ~eps ~limit ~start_iter:it1 with
            | None -> unconcluded ~iterations:limit
            | Some it2 ->
                optimal ~certify:(not negate) st ~iterations:it2 ~warm:false
                  problem
          end)

(* Warm re-solve: rebuild the parent's optimal basis under the child's
   bounds, run the dual simplex to restore primal feasibility, then a
   primal cleanup to optimality. A dual infeasibility conclusion
   prunes on its ray once that passes the outward check. Every other
   failure mode — snapshot/problem shape mismatch, singular basis,
   dual iteration limit, a ray that fails the check, numerical
   trouble in either phase, or a primal cleanup limit — falls back to
   the cold two-phase solve, so [resolve] is always at least as
   correct as [solve], just usually much cheaper. *)
let resolve_internal problem ~basis =
  let cold () = solve_internal problem ~negate:false in
  match restore problem basis with
  | exception Row_infeasible i -> infeasible ~iterations:0 (Cert_empty_row i)
  | None -> cold ()
  | Some st -> (
      let limit = 500 * (st.m + st.n) in
      let dual_limit = Int.min limit (Int.max 100 (200 + (4 * st.m))) in
      match dual_optimize st ~limit:dual_limit ~start_iter:0 with
      | exception Numerical_error _ -> cold ()
      | Dual_limit -> cold ()
      | Dual_infeasible (iterations, ray) ->
          if farkas_certifies problem ray then
            infeasible ~iterations ~warm:true (Cert_farkas ray)
          else cold ()
      | Dual_feasible it -> (
          match optimize st ~eps ~limit ~start_iter:it with
          | exception Numerical_error _ -> cold ()
          | None -> cold ()
          | Some iterations ->
              optimal ~certify:true st ~iterations ~warm:true problem))

(* ------------------------------------------------------------------ *)
(* Every solve runs the sparse core, and its answer stands. *)

(* Solves the core left unconcluded — observability for tests and the
   bench, not control flow. *)
let unconcluded_count = Atomic.make 0
let sparse_fallbacks () = Atomic.get unconcluded_count

(* Non-finite input is refused before the core runs. Past that check,
   a [Numerical_error] the core raises is trouble on a finite LP, which
   concludes nothing. *)
let run problem solve =
  if not (Problem.form problem).Problem.finite then
    raise (Numerical_error "non-finite constraint coefficient or rhs");
  Array.iter
    (check_finite "non-finite objective coefficient")
    (Problem.objective problem);
  let s = try solve () with Numerical_error _ -> unconcluded ~iterations:0 in
  if s.status = Iteration_limit then Atomic.incr unconcluded_count;
  s

let solve problem =
  run problem (fun () -> solve_internal problem ~negate:false)

let solve_min problem =
  run problem (fun () -> solve_internal problem ~negate:true)

let resolve ~basis problem =
  run problem (fun () -> resolve_internal problem ~basis)

let primal_feasible ?(eps = 1e-6) problem x =
  let n = Problem.num_vars problem in
  Array.length x = n
  && begin
       let lo = Problem.var_lo problem and hi = Problem.var_hi problem in
       let ok = ref true in
       for j = 0 to n - 1 do
         if x.(j) < lo.(j) -. eps || x.(j) > hi.(j) +. eps then ok := false
       done;
       Array.iter
         (fun (row : Problem.row) ->
           let act =
             Array.fold_left (fun acc (v, c) -> acc +. (c *. x.(v))) 0.0 row.terms
           in
           let sat =
             match row.cmp with
             | Problem.Le -> act <= row.rhs +. eps
             | Problem.Ge -> act >= row.rhs -. eps
             | Problem.Eq -> Float.abs (act -. row.rhs) <= eps
           in
           if not sat then ok := false)
         (Problem.rows problem);
       !ok
     end
