(* CSC-style column store (with a row-wise copy for pivot rows) +
   factored basis for the revised simplex.

   The factor represents B = L·U·E₁·…·Eₖ (row-permuted L and U from a
   left-looking factorization with partial pivoting, then the eta file
   in application order, oldest first). Two index spaces appear
   throughout: "row space" (original constraint rows, how [mat] columns
   and FTRAN inputs are indexed) and "position space" (basis positions
   0..m-1 in pivot order, how [xb], FTRAN outputs and BTRAN inputs are
   indexed). [pivrow]/[rowpos] translate between the two.

   All factor entries live in parallel int/float arrays rather than
   (int * float) tuples: FTRAN/BTRAN walk every stored entry on every
   call, so boxing would roughly double the hot-loop cost. *)

type mat = {
  m : int;
  n : int;             (* all columns: [nb] stored, then the signed units *)
  nb : int;
  colptr : int array;  (* nb+1 offsets into rowind/value *)
  rowind : int array;
  value : float array;
  rowptr : int array;  (* m+1 offsets into colind/rvalue *)
  colind : int array;  (* the stored columns again, row by row *)
  rvalue : float array;
  usign : float array; (* column nb+i is usign.(i)·e_i *)
}

(* Each column lists its rows in descending order: the rows are walked
   last to first, and each entry goes to its column's next free slot. *)
let of_rows ~cols rows =
  let m = Array.length rows in
  let colptr = Array.make (cols + 1) 0 in
  Array.iter
    (Array.iter (fun (j, _) ->
         if j < 0 || j >= cols then
           invalid_arg "Sparse.of_rows: column index out of range";
         colptr.(j + 1) <- colptr.(j + 1) + 1))
    rows;
  for j = 0 to cols - 1 do
    colptr.(j + 1) <- colptr.(j + 1) + colptr.(j)
  done;
  let nnz = colptr.(cols) in
  let next = Array.sub colptr 0 cols in
  let rowind = Array.make nnz 0 and value = Array.make nnz 0.0 in
  for i = m - 1 downto 0 do
    Array.iter
      (fun (j, v) ->
        rowind.(next.(j)) <- i;
        value.(next.(j)) <- v;
        next.(j) <- next.(j) + 1)
      rows.(i)
  done;
  let rowptr = Array.make (m + 1) 0 in
  Array.iteri (fun i r -> rowptr.(i + 1) <- rowptr.(i) + Array.length r) rows;
  let colind = Array.make nnz 0 and rvalue = Array.make nnz 0.0 in
  Array.iteri
    (fun i r ->
      Array.iteri
        (fun k (j, v) ->
          colind.(rowptr.(i) + k) <- j;
          rvalue.(rowptr.(i) + k) <- v)
        r)
    rows;
  { m; n = cols; nb = cols; colptr; rowind; value; rowptr; colind; rvalue;
    usign = [||] }

let with_units a signs =
  if Array.length signs <> a.m then
    invalid_arg "Sparse.with_units: one sign per row";
  { a with n = a.nb + a.m; usign = signs }

let rows a = a.m
let cols a = a.n
let nnz a = a.colptr.(a.nb) + Array.length a.usign

(* Hot loops below use unsafe array access: every index is produced by
   this module's own invariants (colptr/rowind bounds, permutation
   arrays over 0..m-1), never by caller data. *)

let col_dot a j y =
  if j >= a.nb then 0.0 +. (a.usign.(j - a.nb) *. y.(j - a.nb))
  else begin
    let acc = ref 0.0 in
    let rowind = a.rowind and value = a.value in
    for k = a.colptr.(j) to a.colptr.(j + 1) - 1 do
      acc :=
        !acc
        +. Array.unsafe_get value k
           *. Array.unsafe_get y (Array.unsafe_get rowind k)
    done;
    !acc
  end

(* Rows last to first, the order in which [of_rows] stores each
   column's rows, so every column gets its terms in the order [col_dot]
   adds them: the same sequence of float additions, minus the [a·0]
   terms of rows with ρᵢ = 0, which can change only the sign of a
   zero. *)
let row_product a rho out =
  if Array.length rho <> a.m || Array.length out < a.n then
    invalid_arg "Sparse.row_product: dimension mismatch";
  Array.fill out 0 a.n 0.0;
  let rowptr = a.rowptr and colind = a.colind and rvalue = a.rvalue in
  for i = a.m - 1 downto 0 do
    let ri = Array.unsafe_get rho i in
    if ri <> 0.0 then
      for k = Array.unsafe_get rowptr i to Array.unsafe_get rowptr (i + 1) - 1 do
        let j = Array.unsafe_get colind k in
        Array.unsafe_set out j
          (Array.unsafe_get out j +. (Array.unsafe_get rvalue k *. ri))
      done
  done;
  for i = 0 to Array.length a.usign - 1 do
    let ri = rho.(i) in
    if ri <> 0.0 then out.(a.nb + i) <- 0.0 +. (a.usign.(i) *. ri)
  done

let scatter_col a j ~scale x =
  if j >= a.nb then begin
    let r = j - a.nb in
    x.(r) <- x.(r) +. (scale *. a.usign.(r))
  end
  else
    for k = a.colptr.(j) to a.colptr.(j + 1) - 1 do
      let r = a.rowind.(k) in
      x.(r) <- x.(r) +. (scale *. a.value.(k))
    done

let col_to_dense a j =
  let x = Array.make a.m 0.0 in
  if j >= a.nb then x.(j - a.nb) <- a.usign.(j - a.nb)
  else
    for k = a.colptr.(j) to a.colptr.(j + 1) - 1 do
      x.(a.rowind.(k)) <- a.value.(k)
    done;
  x

(* One product-form eta: the identity with column [epos] replaced by the
   entering column's simplex direction. [ediag] is that direction's
   pivot entry; [eidx]/[eval_] the off-diagonal entries (by position). *)
type eta = {
  epos : int;
  ediag : float;
  eidx : int array;
  eval_ : float array;
}

type factor = {
  fm : int;
  lidx : int array array;
      (* per position k: below-diagonal multiplier rows (ROW space) *)
  lval : float array array;
  uidx : int array array;
      (* per position k: above-diagonal entry positions (< k) *)
  uval : float array array;
  udiag : float array;
  pivrow : int array;  (* position -> row *)
  rowpos : int array;  (* row -> position *)
  etas : eta list;     (* newest first *)
  n_etas : int;
}

let dim f = f.fm
let eta_count f = f.n_etas

let factor_nnz f =
  let lu = ref f.fm in
  for k = 0 to f.fm - 1 do
    lu := !lu + Array.length f.lidx.(k) + Array.length f.uidx.(k)
  done;
  List.iter (fun e -> lu := !lu + 1 + Array.length e.eidx) f.etas;
  !lu

(* No pivot candidate above this magnitude means the claimed basis is
   (numerically) singular. *)
let singular_tolerance = 1e-9

(* Index of an isolated bit 2^b (b ≤ 61) in O(1): 2 is a primitive root
   mod 67, so 2^b mod 67 is injective — a perfect hash that avoids a
   libm log2 call in the factorization worklist's pop loop. *)
let bit_index_table =
  let t = Array.make 67 (-1) in
  for b = 0 to 61 do
    t.(1 lsl b mod 67) <- b
  done;
  t

let factorize a basic =
  let m = a.m in
  if Array.length basic <> m then None
  else begin
    let w = Array.make m 0.0 in
    let mark = Array.make m false in
    let touched = Array.make m 0 in
    let pivrow = Array.make m (-1) in
    let rowpos = Array.make m (-1) in
    let lidx = Array.make m [||] in
    let lval = Array.make m [||] in
    let uidx = Array.make m [||] in
    let uval = Array.make m [||] in
    let udiag = Array.make m 0.0 in
    (* Worklist over pivot positions whose row currently holds a
       nonzero: left-looking elimination must apply them in increasing
       position order, but scanning all k earlier positions per column
       (the naive loop) is O(m²) even on a perfectly sparse basis.
       Elimination at position p only creates fill at positions > p
       (fill rows were unpivoted when that L column was built), so a
       forward-scanning bitset pops in sorted order without a heap. *)
    (* 62 bits per word: keeps every isolated bit a positive OCaml int,
       so Float.log2 recovers its index exactly. *)
    let nwords = (m + 61) / 62 in
    let bits = Array.make nwords 0 in
    let push p = bits.(p / 62) <- bits.(p / 62) lor (1 lsl (p mod 62)) in
    let nt = ref 0 in
    let scatter r v =
      w.(r) <- v;
      if not mark.(r) then begin
        mark.(r) <- true;
        touched.(!nt) <- r;
        incr nt;
        if rowpos.(r) >= 0 then push rowpos.(r)
      end
    in
    let ok = ref true in
    let k = ref 0 in
    while !ok && !k < m do
      let kk = !k in
      let j = basic.(kk) in
      if j < 0 || j >= a.n then ok := false
      else begin
        (* Scatter column j into the dense work vector; queue every
           already-pivoted touched row for elimination. *)
        nt := 0;
        if j >= a.nb then scatter (j - a.nb) a.usign.(j - a.nb)
        else
          for p = a.colptr.(j) to a.colptr.(j + 1) - 1 do
            scatter a.rowind.(p) a.value.(p)
          done;
        (* Left-looking elimination in increasing pivot order via the
           bitset: scan words low to high, clearing the lowest set bit
           each round; new fill lands at strictly later positions, so
           the cursor never moves backwards. *)
        let wi = ref 0 in
        while !wi < nwords do
          let v = Array.unsafe_get bits !wi in
          if v = 0 then incr wi
          else begin
            let lsb = v land -v in
            Array.unsafe_set bits !wi (v land lnot lsb);
            let jj =
              (!wi * 62) + Array.unsafe_get bit_index_table (lsb mod 67)
            in
            let f = Array.unsafe_get w (Array.unsafe_get pivrow jj) in
            if f <> 0.0 then begin
              let li = lidx.(jj) and lv = lval.(jj) in
              for t = 0 to Array.length li - 1 do
                let r = Array.unsafe_get li t in
                if not (Array.unsafe_get mark r) then begin
                  Array.unsafe_set mark r true;
                  touched.(!nt) <- r;
                  incr nt;
                  let p = Array.unsafe_get rowpos r in
                  if p >= 0 then push p
                end;
                Array.unsafe_set w r
                  (Array.unsafe_get w r -. (f *. Array.unsafe_get lv t))
              done
            end
          end
        done;
        (* Partial pivoting over the not-yet-pivoted touched rows. *)
        let prow = ref (-1) and pmag = ref singular_tolerance in
        for t = 0 to !nt - 1 do
          let r = touched.(t) in
          if not (Float.is_finite w.(r)) then ok := false;
          if rowpos.(r) < 0 && Float.abs w.(r) > !pmag then begin
            pmag := Float.abs w.(r);
            prow := r
          end
        done;
        if !ok && !prow >= 0 then begin
          let p = !prow in
          let piv = w.(p) in
          udiag.(kk) <- piv;
          pivrow.(kk) <- p;
          rowpos.(p) <- kk;
          let nu = ref 0 and nl = ref 0 in
          for t = 0 to !nt - 1 do
            let r = touched.(t) in
            if w.(r) <> 0.0 && r <> p then
              if rowpos.(r) >= 0 && rowpos.(r) < kk then incr nu else incr nl
          done;
          let ui = Array.make !nu 0 and uv = Array.make !nu 0.0 in
          let li = Array.make !nl 0 and lv = Array.make !nl 0.0 in
          let cu = ref 0 and cl = ref 0 in
          for t = 0 to !nt - 1 do
            let r = touched.(t) in
            if w.(r) <> 0.0 && r <> p then
              if rowpos.(r) >= 0 && rowpos.(r) < kk then begin
                ui.(!cu) <- rowpos.(r);
                uv.(!cu) <- w.(r);
                incr cu
              end
              else begin
                li.(!cl) <- r;
                lv.(!cl) <- w.(r) /. piv;
                incr cl
              end;
            w.(r) <- 0.0;
            mark.(r) <- false
          done;
          uidx.(kk) <- ui;
          uval.(kk) <- uv;
          lidx.(kk) <- li;
          lval.(kk) <- lv;
          incr k
        end
        else begin
          ok := false
          (* leave w/mark dirty; the arrays die with this call *)
        end
      end
    done;
    if !ok then
      Some
        { fm = m; lidx; lval; uidx; uval; udiag; pivrow; rowpos;
          etas = []; n_etas = 0 }
    else None
  end

(* FTRAN eta step: solve E x' = x in place. *)
let apply_eta_ftran x e =
  let xp = x.(e.epos) /. e.ediag in
  if xp <> 0.0 then begin
    let idx = e.eidx and v = e.eval_ in
    for t = 0 to Array.length idx - 1 do
      let i = Array.unsafe_get idx t in
      Array.unsafe_set x i
        (Array.unsafe_get x i -. (Array.unsafe_get v t *. xp))
    done
  end;
  x.(e.epos) <- xp

(* BTRAN eta step: solve Eᵀ u' = u in place. *)
let apply_eta_btran u e =
  let acc = ref u.(e.epos) in
  let idx = e.eidx and v = e.eval_ in
  for t = 0 to Array.length idx - 1 do
    acc :=
      !acc
      -. (Array.unsafe_get v t *. Array.unsafe_get u (Array.unsafe_get idx t))
  done;
  u.(e.epos) <- !acc /. e.ediag

let ftran f b =
  let m = f.fm in
  if Array.length b <> m then invalid_arg "Sparse.ftran: dimension mismatch";
  let w = Array.copy b in
  (* L⁻¹, in pivot order (row space). *)
  for j = 0 to m - 1 do
    let fj = Array.unsafe_get w (Array.unsafe_get f.pivrow j) in
    if fj <> 0.0 then begin
      let li = f.lidx.(j) and lv = f.lval.(j) in
      for t = 0 to Array.length li - 1 do
        let r = Array.unsafe_get li t in
        Array.unsafe_set w r
          (Array.unsafe_get w r -. (fj *. Array.unsafe_get lv t))
      done
    end
  done;
  (* Permute into position space, then U⁻¹ by back substitution. *)
  let x = Array.make m 0.0 in
  for k = 0 to m - 1 do
    Array.unsafe_set x k (Array.unsafe_get w (Array.unsafe_get f.pivrow k))
  done;
  for k = m - 1 downto 0 do
    let xk = Array.unsafe_get x k /. Array.unsafe_get f.udiag k in
    Array.unsafe_set x k xk;
    if xk <> 0.0 then begin
      let ui = f.uidx.(k) and uv = f.uval.(k) in
      for t = 0 to Array.length ui - 1 do
        let i = Array.unsafe_get ui t in
        Array.unsafe_set x i
          (Array.unsafe_get x i -. (xk *. Array.unsafe_get uv t))
      done
    end
  done;
  (* Eta file, oldest first. *)
  let rec apply_oldest_first = function
    | [] -> ()
    | e :: older ->
        apply_oldest_first older;
        apply_eta_ftran x e
  in
  apply_oldest_first f.etas;
  x

let btran f c =
  let m = f.fm in
  if Array.length c <> m then invalid_arg "Sparse.btran: dimension mismatch";
  let u = Array.copy c in
  (* Eta transposes, newest first. *)
  List.iter (apply_eta_btran u) f.etas;
  (* Uᵀ z = u by forward substitution over positions. *)
  for k = 0 to m - 1 do
    let acc = ref (Array.unsafe_get u k) in
    let ui = f.uidx.(k) and uv = f.uval.(k) in
    for t = 0 to Array.length ui - 1 do
      acc :=
        !acc
        -. (Array.unsafe_get uv t
            *. Array.unsafe_get u (Array.unsafe_get ui t))
    done;
    Array.unsafe_set u k (!acc /. Array.unsafe_get f.udiag k)
  done;
  (* Lᵀ y = z, descending; lidx.(j) rows pivot later than j, so their
     positions are > j and already solved. *)
  for j = m - 1 downto 0 do
    let acc = ref (Array.unsafe_get u j) in
    let li = f.lidx.(j) and lv = f.lval.(j) in
    for t = 0 to Array.length li - 1 do
      acc :=
        !acc
        -. (Array.unsafe_get lv t
            *. Array.unsafe_get u
                 (Array.unsafe_get f.rowpos (Array.unsafe_get li t)))
    done;
    Array.unsafe_set u j !acc
  done;
  (* Back to row space. *)
  let y = Array.make m 0.0 in
  for k = 0 to m - 1 do
    Array.unsafe_set y (Array.unsafe_get f.pivrow k) (Array.unsafe_get u k)
  done;
  y

(* Refuse updates whose eta diagonal could amplify round-off beyond
   repair; the simplex layer refactorizes when it sees [None]. Checking
   only the eta's own entries is the "eta-local" NaN fail-fast: nothing
   else changed, so nothing else is rescanned. *)
let update_tolerance = 1e-11

let update f ~pos ~alpha =
  let d = alpha.(pos) in
  if (not (Float.is_finite d)) || Float.abs d < update_tolerance then None
  else begin
    let m = Array.length alpha in
    let cnt = ref 0 in
    let bad = ref false in
    for i = 0 to m - 1 do
      let a = alpha.(i) in
      if i <> pos && a <> 0.0 then begin
        if not (Float.is_finite a) then bad := true;
        incr cnt
      end
    done;
    if !bad then None
    else begin
      let eidx = Array.make !cnt 0 and eval_ = Array.make !cnt 0.0 in
      let c = ref 0 in
      for i = 0 to m - 1 do
        let a = alpha.(i) in
        if i <> pos && a <> 0.0 then begin
          eidx.(!c) <- i;
          eval_.(!c) <- a;
          incr c
        end
      done;
      Some
        {
          f with
          etas = { epos = pos; ediag = d; eidx; eval_ } :: f.etas;
          n_etas = f.n_etas + 1;
        }
    end
  end

let basis_residual a basic ~x ~b =
  let m = a.m in
  let r = Array.make m 0.0 in
  Array.blit b 0 r 0 m;
  let bad = ref false in
  Array.iteri
    (fun k j ->
      if not (Float.is_finite x.(k)) then bad := true
      else if x.(k) <> 0.0 then scatter_col a j ~scale:(-.x.(k)) r)
    basic;
  if !bad then infinity
  else
    Array.fold_left
      (fun acc v ->
        if Float.is_finite v then Float.max acc (Float.abs v) else infinity)
      0.0 r
