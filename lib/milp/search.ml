(* Search-node bookkeeping for the branch & bound pool in {!Solver}. *)

(* A search node is the chain of bound tightenings applied on top of the
   root problem, plus the bound inherited from its parent's relaxation
   (used as the best-first priority until the node's own LP is solved).
   Each fix stores the bounds *after* intersecting with every ancestor
   fix on the same variable, so applying the chain root-first (see
   {!apply_fixes}) reproduces the node's exact box. *)
type node = {
  fixes : (Model.var * float * float) list;  (* most recent first *)
  parent_bound : float;
  depth : int;
  parent_basis : Lp.Simplex.basis option;
      (* parent's optimal LP basis, for dual-simplex warm starts; a pure
         immutable value, safe to migrate across domains *)
}

let root =
  { fixes = []; parent_bound = infinity; depth = 0; parent_basis = None }

(* Max-heap on parent bound. *)
module Heap = struct
  type t = { mutable data : node array; mutable size : int }

  let create () = { data = [||]; size = 0 }

  let better a b =
    a.parent_bound > b.parent_bound
    || (a.parent_bound = b.parent_bound && a.depth > b.depth)

  let push h n =
    if h.size = Array.length h.data then begin
      let cap = if h.size = 0 then 64 else 2 * h.size in
      (* Fill with [root], not [n]: the spare capacity must never retain
         a live node's fix chain or basis snapshot. *)
      let bigger = Array.make cap root in
      Array.blit h.data 0 bigger 0 h.size;
      h.data <- bigger
    end;
    h.data.(h.size) <- n;
    h.size <- h.size + 1;
    let i = ref (h.size - 1) in
    while !i > 0 && better h.data.(!i) h.data.((!i - 1) / 2) do
      let p = (!i - 1) / 2 in
      let tmp = h.data.(p) in
      h.data.(p) <- h.data.(!i);
      h.data.(!i) <- tmp;
      i := p
    done

  let pop h =
    if h.size = 0 then None
    else begin
      let top = h.data.(0) in
      h.size <- h.size - 1;
      h.data.(0) <- h.data.(h.size);
      (* Clear the vacated slot: a stale reference there would retain the
         popped node's whole fix chain and basis snapshot until the slot
         happened to be overwritten — unbounded dead retention on a
         shrinking pool. [root] is the always-live dummy. *)
      h.data.(h.size) <- root;
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let best = ref !i in
        if l < h.size && better h.data.(l) h.data.(!best) then best := l;
        if r < h.size && better h.data.(r) h.data.(!best) then best := r;
        if !best = !i then continue := false
        else begin
          let tmp = h.data.(!best) in
          h.data.(!best) <- h.data.(!i);
          h.data.(!i) <- tmp;
          i := !best
        end
      done;
      Some top
    end

  let size h = h.size

  (* Root of a max-heap: the tightest bound any open node can still
     attain. O(1), which is what makes time-limit exits cheap. *)
  let peek_bound h = if h.size = 0 then None else Some h.data.(0).parent_bound
end

(* A diver's private pool of open nodes: a LIFO stack, bounded at
   [max_open]. Pushing past the bound hands the *shallowest* (bottom)
   entry to the [donate] sink — in the portfolio search that sink is the
   shared best-first heap, so a diver's hoard never starves the provers.
   A zero bound donates every push: that is a prover. *)
module Pool = struct
  type t = {
    mutable stack : node list;
    mutable count : int;
    max_open : int;
    donate : node -> unit;
  }

  let depth_first ~max_open ~donate () =
    if max_open < 0 then invalid_arg "Search.Pool.depth_first: max_open < 0";
    { stack = []; count = 0; max_open; donate }

  (* Drop the bottom (shallowest, best-bound-first candidate) entry. *)
  let donate_bottom d =
    let rec split acc = function
      | [] -> assert false
      | [ bottom ] -> (List.rev acc, bottom)
      | entry :: rest -> split (entry :: acc) rest
    in
    let kept, bottom = split [] d.stack in
    d.stack <- kept;
    d.count <- d.count - 1;
    d.donate bottom

  let push d n =
    if d.max_open = 0 then d.donate n
    else begin
      d.stack <- n :: d.stack;
      d.count <- d.count + 1;
      if d.count > d.max_open then donate_bottom d
    end

  let pop d =
    match d.stack with
    | [] -> None
    | n :: rest ->
        d.stack <- rest;
        d.count <- d.count - 1;
        Some n

  let size d = d.count

  let drain d =
    let nodes = d.stack in
    d.stack <- [];
    d.count <- 0;
    nodes
end

let fractionality x =
  let f = x -. Float.round x in
  Float.abs f

type branch_rule =
  | Most_fractional
  | Priority of (Model.var -> int)

let select_branch_var rule ints int_eps x =
  let fractional =
    List.filter (fun v -> fractionality x.(v) > int_eps) ints
  in
  (* [better v b]: branch on [v] rather than on [b]. *)
  let better =
    match rule with
    | Most_fractional -> fun v b -> fractionality x.(v) > fractionality x.(b)
    | Priority priority ->
        fun v b ->
          let pv = priority v and pb = priority b in
          pv < pb || (pv = pb && fractionality x.(v) > fractionality x.(b))
  in
  List.fold_left
    (fun acc v ->
      match acc with Some b when not (better v b) -> acc | _ -> Some v)
    None fractional

(* Evaluate [f] with [node]'s bound chain applied to [problem], then
   undo every write through the journal. Fixes are applied root-first so
   a variable branched twice along the path ends at its deepest (tightest)
   fix. The caller's problem is restored even if [f] raises. *)
let with_node_bounds problem node f =
  Lp.Problem.push_bounds problem;
  Fun.protect
    ~finally:(fun () -> Lp.Problem.pop_bounds problem)
    (fun () ->
      List.iter
        (fun (v, lo, hi) -> Lp.Problem.set_bounds problem v ~lo ~hi)
        (List.rev node.fixes);
      f ())

(* Children of [node] after branching on fractional variable [v] whose
   relaxation value is [xv]; [lo, hi] are [v]'s bounds *at the node*.
   Returned (and meant to be pushed) up-child first, down-child last, so
   a LIFO consumer explores the "inactive neuron" side first. *)
let branch node ~v ~xv ~lo ~hi ~bound ~basis =
  let floor_v = Float.floor xv and ceil_v = Float.ceil xv in
  let children = ref [] in
  if floor_v >= lo then
    children :=
      { fixes = (v, lo, floor_v) :: node.fixes;
        parent_bound = bound;
        depth = node.depth + 1;
        parent_basis = basis }
      :: !children;
  if ceil_v <= hi then
    children :=
      { fixes = (v, ceil_v, hi) :: node.fixes;
        parent_bound = bound;
        depth = node.depth + 1;
        parent_basis = basis }
      :: !children;
  !children
