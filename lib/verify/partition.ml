type policy = Auto | Depth of int

let policy_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "auto" -> Some Auto
  | s -> (
      match int_of_string_opt s with
      | Some d when d >= 0 && d <= 16 -> Some (Depth d)
      | Some _ | None -> None)

type plan = {
  tree : Certify.Shard.tree;
  boxes : Interval.Box.box array;
  upper : float array;
  plan_depth : int;
}

let group_upper sym ~components =
  let out = Absint.Symbolic.output_bounds sym in
  let ub = ref neg_infinity in
  for k = 0 to components - 1 do
    ub := Float.max !ub out.(Nn.Gmm.mu_lat_index ~components k).Interval.hi
  done;
  !ub

let influence sym net ~components box =
  let n = Array.length box in
  let score = Array.make n 0.0 in
  (try
     for k = 0 to components - 1 do
       let output = Nn.Gmm.mu_lat_index ~components k in
       let coeffs, _ = Absint.Symbolic.output_upper_form sym net ~output in
       Array.iteri
         (fun i c -> score.(i) <- score.(i) +. Float.abs c)
         coeffs
     done
   with Invalid_argument _ -> Array.fill score 0 n 1.0);
  Array.iteri
    (fun i (iv : Interval.t) -> score.(i) <- score.(i) *. Interval.width iv)
    box;
  score

(* A dimension is splittable when its midpoint is strictly interior —
   zero-width (pinned) dimensions and denormal-thin ones are not.
   Among splittable dimensions the best score wins; width breaks ties,
   so a dead-input network still tiles under a forced-depth policy. *)
let best_dim sym net ~components (box : Interval.Box.box) =
  let score = influence sym net ~components box in
  let best = ref None in
  Array.iteri
    (fun i (iv : Interval.t) ->
      let cut = Interval.mid iv in
      if cut > iv.Interval.lo && cut < iv.Interval.hi then begin
        let key = (score.(i), Interval.width iv) in
        match !best with
        | Some (_, key') when key' >= key -> ()
        | _ -> best := Some (i, key)
      end)
    box;
  Option.map fst !best

(* The adaptive policy keeps splitting past the first discharged level
   only down branches that still need it, so the recursion depth cap is
   a backstop, not a tuning knob. *)
let max_auto_depth = 12

(* The improvement gate is a *futility* check, not a payoff check: one
   bisection of an 84-d box rarely moves the symbolic bound by much, but
   the improvements compound down the tree — what must stop a branch is
   a split that buys essentially nothing (a dead dimension, a bound
   pinned by saturated neurons), not one that merely buys little. *)
let improvement = 1e-4

let plan ?(policy = Auto) ?(max_leaves = 256) ?deadline ~components ~threshold
    net box =
  let max_leaves = max 1 max_leaves in
  let boxes = ref [] and uppers = ref [] in
  let plan_depth = ref 0 in
  (* [committed] is the minimum total leaf count implied by the split
     decisions taken so far (every split turns one pending subtree into
     two), so refusing to split once it reaches [max_leaves] caps the
     partition size exactly. *)
  let committed = ref 1 in
  let leaf box ub =
    boxes := box :: !boxes;
    uppers := ub :: !uppers;
    Certify.Shard.Tile
  in
  let rec build depth box sym ub =
    if depth > !plan_depth then plan_depth := depth;
    let in_time =
      match deadline with
      | None -> true
      | Some d -> Linalg.Mclock.now () < d
    in
    let want_split =
      in_time
      &&
      match policy with
      | Depth d -> depth < d
      | Auto -> ub > threshold && depth < max_auto_depth
    in
    if (not want_split) || !committed >= max_leaves then leaf box ub
    else
      match best_dim sym net ~components box with
      | None -> leaf box ub
      | Some dim ->
          let cut = Interval.mid box.(dim) in
          let below = Array.copy box and above = Array.copy box in
          below.(dim) <- Interval.make box.(dim).Interval.lo cut;
          above.(dim) <- Interval.make cut box.(dim).Interval.hi;
          let sym_b = Absint.Symbolic.propagate net below in
          let sym_a = Absint.Symbolic.propagate net above in
          let ub_b = group_upper sym_b ~components in
          let ub_a = group_upper sym_a ~components in
          let pays =
            match policy with
            | Depth _ -> true
            | Auto ->
                ub -. Float.max ub_b ub_a
                >= improvement *. Float.max 1.0 (Float.abs ub)
          in
          if not pays then leaf box ub
          else begin
            incr committed;
            let tb = build (depth + 1) below sym_b ub_b in
            let ta = build (depth + 1) above sym_a ub_a in
            Certify.Shard.Split { dim; cut; below = tb; above = ta }
          end
  in
  let sym0 = Absint.Symbolic.propagate net box in
  let tree = build 0 box sym0 (group_upper sym0 ~components) in
  {
    tree;
    boxes = Array.of_list (List.rev !boxes);
    upper = Array.of_list (List.rev !uppers);
    plan_depth = !plan_depth;
  }

type stats = {
  leaves : int;
  depth : int;
  presolved : int;
  cached : int;
  revalidated : int;
  solved : int;
  unsettled : int;
}

let render_stats s =
  Printf.sprintf
    "leaves %d, presolved %d, cached %d, revalidated %d, solved %d, \
     unsettled %d, depth %d"
    s.leaves s.presolved s.cached s.revalidated s.solved s.unsettled s.depth
