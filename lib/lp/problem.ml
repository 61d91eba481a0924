type var = int

type cmp = Le | Ge | Eq

type row = { terms : (var * float) array; cmp : cmp; rhs : float; cname : string }

type form = {
  rows : row array;
  mat : Sparse.mat;
  b : float array;
  finite : bool;
}

type t = {
  mutable lo : float array;
  mutable hi : float array;
  mutable obj : float array;
  mutable names : string array;
  mutable nvars : int;
  mutable rows_rev : row list;
  mutable nrows : int;
  (* Bound journal: each frame records (var, old_lo, old_hi) for every
     [set_bounds] issued since the matching [push_bounds], most recent
     first. Branch & bound uses this to evaluate a search node with
     O(depth) bound writes instead of an O(problem) copy. *)
  mutable frames : (var * float * float) list list;
  (* The constraint set in the solver's column form, built on first
     use and dropped by [add_var]/[add_constraint]. Bounds and the
     objective are not part of it, so every solve between two such
     calls shares one build, and a copy shares its original's. *)
  mutable form : form option;
}

let create () =
  { lo = Array.make 16 0.0;
    hi = Array.make 16 0.0;
    obj = Array.make 16 0.0;
    names = Array.make 16 "";
    nvars = 0;
    rows_rev = [];
    nrows = 0;
    frames = [];
    form = None }

let grow t =
  let n = Array.length t.lo in
  if t.nvars >= n then begin
    let n' = 2 * n in
    let extend a fill =
      let b = Array.make n' fill in
      Array.blit a 0 b 0 n;
      b
    in
    t.lo <- extend t.lo 0.0;
    t.hi <- extend t.hi 0.0;
    t.obj <- extend t.obj 0.0;
    t.names <- extend t.names ""
  end

let add_var t ?name ~lo ~hi ~obj () =
  if not (Float.is_finite lo && Float.is_finite hi) then
    invalid_arg "Problem.add_var: bounds must be finite";
  if lo > hi then
    invalid_arg (Printf.sprintf "Problem.add_var: lo (%g) > hi (%g)" lo hi);
  grow t;
  let v = t.nvars in
  t.lo.(v) <- lo;
  t.hi.(v) <- hi;
  t.obj.(v) <- obj;
  t.names.(v) <- (match name with Some n -> n | None -> Printf.sprintf "x%d" v);
  t.nvars <- v + 1;
  t.form <- None;
  v

let check_var t v =
  if v < 0 || v >= t.nvars then invalid_arg "Problem: unknown variable"

let add_constraint t ?(name = "") terms cmp rhs =
  (* Merge duplicate variables so the solver sees each column once per row. *)
  let tbl = Hashtbl.create (List.length terms) in
  List.iter
    (fun (v, c) ->
      check_var t v;
      let prev = try Hashtbl.find tbl v with Not_found -> 0.0 in
      Hashtbl.replace tbl v (prev +. c))
    terms;
  let merged =
    Hashtbl.fold (fun v c acc -> if c = 0.0 then acc else (v, c) :: acc) tbl []
  in
  let arr = Array.of_list merged in
  Array.sort (fun (a, _) (b, _) -> compare a b) arr;
  t.rows_rev <- { terms = arr; cmp; rhs; cname = name } :: t.rows_rev;
  t.nrows <- t.nrows + 1;
  t.form <- None

let set_bounds t v ~lo ~hi =
  check_var t v;
  if not (Float.is_finite lo && Float.is_finite hi) then
    invalid_arg "Problem.set_bounds: bounds must be finite";
  if lo > hi then invalid_arg "Problem.set_bounds: lo > hi";
  (match t.frames with
   | [] -> ()
   | frame :: rest -> t.frames <- ((v, t.lo.(v), t.hi.(v)) :: frame) :: rest);
  t.lo.(v) <- lo;
  t.hi.(v) <- hi

let push_bounds t = t.frames <- [] :: t.frames

let pop_bounds t =
  match t.frames with
  | [] -> invalid_arg "Problem.pop_bounds: no matching push_bounds"
  | frame :: rest ->
      t.frames <- rest;
      (* Most-recent-first: the last restore applied to a variable is its
         value at push time, so repeated writes unwind correctly. *)
      List.iter
        (fun (v, lo, hi) ->
          t.lo.(v) <- lo;
          t.hi.(v) <- hi)
        frame

let journal_depth t = List.length t.frames

let bounds t v =
  check_var t v;
  (t.lo.(v), t.hi.(v))

let set_objective t terms =
  Array.fill t.obj 0 t.nvars 0.0;
  List.iter
    (fun (v, c) ->
      check_var t v;
      t.obj.(v) <- t.obj.(v) +. c)
    terms

let objective_coeff t v =
  check_var t v;
  t.obj.(v)

let num_vars t = t.nvars
let num_constraints t = t.nrows

let nnz t =
  List.fold_left
    (fun acc (r : row) -> acc + Array.length r.terms)
    0 t.rows_rev

let density t =
  let cells = t.nrows * t.nvars in
  if cells = 0 then 0.0 else float_of_int (nnz t) /. float_of_int cells

let var_name t v =
  check_var t v;
  t.names.(v)

let copy t =
  { lo = Array.copy t.lo;
    hi = Array.copy t.hi;
    obj = Array.copy t.obj;
    names = Array.copy t.names;
    nvars = t.nvars;
    rows_rev = t.rows_rev;
    nrows = t.nrows;
    frames = [];
    form = t.form }

let rows t = Array.of_list (List.rev t.rows_rev)

let form t =
  match t.form with
  | Some f -> f
  | None ->
      let rows = rows t in
      let nvars = t.nvars in
      let mat =
        Sparse.of_rows ~cols:(nvars + t.nrows)
          (Array.mapi
             (fun i (r : row) -> Array.append r.terms [| (nvars + i, 1.0) |])
             rows)
      in
      let finite (r : row) =
        Float.is_finite r.rhs
        && Array.for_all (fun (_, c) -> Float.is_finite c) r.terms
      in
      let f =
        {
          rows;
          mat;
          b = Array.map (fun (r : row) -> r.rhs) rows;
          finite = Array.for_all finite rows;
        }
      in
      t.form <- Some f;
      f

let var_lo t = Array.sub t.lo 0 t.nvars
let var_hi t = Array.sub t.hi 0 t.nvars
let objective t = Array.sub t.obj 0 t.nvars
