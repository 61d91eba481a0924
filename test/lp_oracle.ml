(* Exact reference answers for small LPs, shared by the LP, MILP and
   certificate tests: the maximum of c·x over {rows, lo <= x <= hi},
   found by enumerating vertices, with no simplex involved.

   A vertex lies on n linearly independent hyperplanes, each a row's
   boundary or one side of a variable's box. Every choice of n of them
   is solved by Gaussian elimination with partial pivoting, and a point
   counts only when it satisfies every row and bound to 1e-9. The box
   is bounded, so a nonempty region always has a vertex, and [maximize]
   returns [None] exactly when no choice gives a feasible point. The
   cost grows with C(rows + 2n, n): meant for at most about 5 variables
   and 6 rows. *)

exception Singular

(* Solve the n×n system [a]·x = [b] in place; raises [Singular] on a
   pivot below 1e-12. *)
let gauss a b =
  let n = Array.length b in
  let swap v i j =
    let t = v.(i) in
    v.(i) <- v.(j);
    v.(j) <- t
  in
  for k = 0 to n - 1 do
    let p = ref k in
    for i = k + 1 to n - 1 do
      if Float.abs a.(i).(k) > Float.abs a.(!p).(k) then p := i
    done;
    if Float.abs a.(!p).(k) < 1e-12 then raise Singular;
    swap a k !p;
    swap b k !p;
    for i = k + 1 to n - 1 do
      let f = a.(i).(k) /. a.(k).(k) in
      for j = k to n - 1 do
        a.(i).(j) <- a.(i).(j) -. (f *. a.(k).(j))
      done;
      b.(i) <- b.(i) -. (f *. b.(k))
    done
  done;
  let x = Array.make n 0.0 in
  for i = n - 1 downto 0 do
    let s = ref b.(i) in
    for j = i + 1 to n - 1 do
      s := !s -. (a.(i).(j) *. x.(j))
    done;
    x.(i) <- !s /. a.(i).(i)
  done;
  x

(* The best vertex objective, or [None] when the region is empty. *)
let maximize p =
  let n = Lp.Problem.num_vars p in
  let lo = Lp.Problem.var_lo p and hi = Lp.Problem.var_hi p in
  let obj = Lp.Problem.objective p in
  let unit j v = (Array.init n (fun k -> if k = j then 1.0 else 0.0), v) in
  let planes =
    Array.append
      (Array.map
         (fun (r : Lp.Problem.row) ->
           let a = Array.make n 0.0 in
           Array.iter (fun (v, c) -> a.(v) <- a.(v) +. c) r.terms;
           (a, r.rhs))
         (Lp.Problem.rows p))
      (Array.concat (List.init n (fun j -> [| unit j lo.(j); unit j hi.(j) |])))
  in
  let best = ref None in
  let consider chosen =
    let a = Array.of_list (List.map (fun i -> Array.copy (fst planes.(i))) chosen)
    and b = Array.of_list (List.map (fun i -> snd planes.(i)) chosen) in
    match gauss a b with
    | exception Singular -> ()
    | x when Lp.Simplex.primal_feasible ~eps:1e-9 p x ->
        let v = ref 0.0 in
        Array.iteri (fun j c -> v := !v +. (c *. x.(j))) obj;
        best := Some (Float.max !v (Option.value !best ~default:neg_infinity))
    | _ -> ()
  in
  let rec choose start k chosen =
    if k = 0 then consider chosen
    else
      for i = start to Array.length planes - k do
        choose (i + 1) (k - 1) (i :: chosen)
      done
  in
  choose 0 n [];
  !best

(* [agrees p s]: [s] answers what the oracle answers on [p] — the same
   optimum within 1e-5 at a point feasible to 1e-5, or infeasible. *)
let agrees p (s : Lp.Simplex.solution) =
  match (s.status, maximize p) with
  | Lp.Simplex.Optimal, Some v ->
      Float.abs (s.objective -. v) < 1e-5
      && Lp.Simplex.primal_feasible ~eps:1e-5 p s.x
  | Lp.Simplex.Infeasible, None -> true
  | _ -> false
