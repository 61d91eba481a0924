(* Slot [i < Array.length others] is [others.(i)], the last slot is the
   ego: slot order is the scan order every query breaks ties by. *)
type index = {
  all : Vehicle.t array;
  lanes : int array array;  (* per lane: slots sorted by (x, slot) *)
}

type t = {
  road : Road.t;
  ego : Vehicle.t;
  others : Vehicle.t array;
  index : index;
}

let on_road road x = x >= 0.0 && x < road.Road.length

let make road ~ego ~others =
  let others = Array.of_list others in
  let all = Array.append others [| ego |] in
  let counts = Array.make road.Road.num_lanes 0 in
  Array.iter
    (fun (v : Vehicle.t) ->
      if not (Road.valid_lane road v.Vehicle.lane) then
        invalid_arg "Scene.make: vehicle in invalid lane";
      if not (on_road road v.Vehicle.x) then
        invalid_arg "Scene.make: position outside [0, length)";
      counts.(v.Vehicle.lane) <- counts.(v.Vehicle.lane) + 1)
    all;
  let lanes = Array.map (fun n -> Array.make n 0) counts in
  let filled = Array.make road.Road.num_lanes 0 in
  (* Insertion in slot order: a slot moves in front of strictly larger
     positions only, so equal positions keep scan order. *)
  Array.iteri
    (fun slot (v : Vehicle.t) ->
      let lane = lanes.(v.Vehicle.lane) in
      let k = ref filled.(v.Vehicle.lane) in
      while !k > 0 && all.(lane.(!k - 1)).Vehicle.x > v.Vehicle.x do
        lane.(!k) <- lane.(!k - 1);
        decr k
      done;
      lane.(!k) <- slot;
      filled.(v.Vehicle.lane) <- filled.(v.Vehicle.lane) + 1)
    all;
  { road; ego; others; index = { all; lanes } }

let alongside_window = 7.5

(* Nearest vehicle of [lane] by [keep dx] and absolute distance, the
   earliest slot winning ties, as the linear scan of [others] then the
   ego found it. *)
let nearest_in_lane t reference ~lane keep =
  let all = t.index.all and slots = t.index.lanes.(lane) in
  let best = ref (-1) and best_d = ref infinity in
  for k = 0 to Array.length slots - 1 do
    let slot = slots.(k) in
    let v = all.(slot) in
    if v.Vehicle.id <> reference.Vehicle.id then begin
      let dx = Road.delta t.road v.Vehicle.x reference.Vehicle.x in
      if keep dx then begin
        let d = Float.abs dx in
        if d < !best_d || (d = !best_d && (!best < 0 || slot < !best)) then begin
          best := slot;
          best_d := d
        end
      end
    end
  done;
  if !best < 0 then None else Some all.(!best)

let within_window dx = Float.abs dx <= alongside_window

let neighbor_of t reference orientation =
  let target_lane =
    reference.Vehicle.lane + Orientation.lane_shift orientation
  in
  if not (Road.valid_lane t.road target_lane) then None
  else begin
    let adjacent = Orientation.lane_shift orientation <> 0 in
    let keep =
      match orientation with
      | Orientation.Front | Orientation.Left_front | Orientation.Right_front ->
          let limit = if adjacent then alongside_window else 0.0 in
          fun dx -> dx > limit
      | Orientation.Back | Orientation.Left_back | Orientation.Right_back ->
          let limit = if adjacent then -.alongside_window else 0.0 in
          fun dx -> dx < limit
      | Orientation.Left | Orientation.Right -> within_window
    in
    nearest_in_lane t reference ~lane:target_lane keep
  end

let neighbor t orientation = neighbor_of t t.ego orientation

(* Leader and follower. With every position in [\[0, length)], the
   computed [Road.delta road x b] is non-decreasing in [x] along a
   lane's sorted slots except where it wraps from +length/2 to
   -length/2, so it rises in at most three runs: ahead across the wrap
   (positive), then from behind through 0 to ahead (the vehicles level
   with [b], at delta 0, sit in the middle), then behind across the
   wrap (negative). The nearest vehicle strictly ahead therefore heads
   either the run starting at the first slot past [b] or the one
   starting at slot 0; the nearest strictly behind heads, walking
   backwards, the run below [b] or the one ending at the last slot.
   [walk] follows one run, skipping the reference and vehicles level
   with it, and keeps the earliest slot among the vehicles at the run's
   first distance; [pick] then compares the two candidates as the scan
   would: strictly nearer wins, equal distance goes to the earlier
   slot. *)

(* First sorted position in [slots] whose vehicle lies at or beyond [b]
   ([strict]: strictly beyond). *)
let bisect all slots b ~strict =
  let lo = ref 0 and hi = ref (Array.length slots) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let x = all.(slots.(mid)).Vehicle.x in
    if (if strict then x > b else x >= b) then hi := mid else lo := mid + 1
  done;
  !lo

let walk t reference slots k ~step ~ahead =
  let all = t.index.all and b = reference.Vehicle.x in
  let found = ref (-1) and found_dx = ref 0.0 in
  let k = ref k and stop = ref false in
  while (not !stop) && !k >= 0 && !k < Array.length slots do
    let slot = slots.(!k) in
    let v = all.(slot) in
    if v.Vehicle.id <> reference.Vehicle.id then begin
      let dx = Road.delta t.road v.Vehicle.x b in
      if !found < 0 then begin
        if dx <> 0.0 then
          if (if ahead then dx > 0.0 else dx < 0.0) then begin
            found := slot;
            found_dx := dx
          end
          else stop := true
      end
      else if dx = !found_dx then (if slot < !found then found := slot)
      else stop := true
    end;
    k := !k + step
  done;
  !found

let pick t reference a b ~ahead =
  if a < 0 then b
  else if b < 0 then a
  else begin
    let all = t.index.all and x = reference.Vehicle.x in
    let da = Road.delta t.road all.(a).Vehicle.x x
    and db = Road.delta t.road all.(b).Vehicle.x x in
    if da = db then Int.min a b
    else if (if ahead then da < db else da > db) then a
    else b
  end

let check_reference t reference =
  if not (on_road t.road reference.Vehicle.x) then
    invalid_arg "Scene: reference position outside [0, length)"

(* [ahead]: the leader's slot, else the follower's; -1 for none. *)
let nearest_by_runs t reference ~lane ~ahead =
  check_reference t reference;
  if not (Road.valid_lane t.road lane) then -1
  else begin
    let all = t.index.all and slots = t.index.lanes.(lane) in
    let b = reference.Vehicle.x in
    let start =
      if ahead then bisect all slots b ~strict:true
      else bisect all slots b ~strict:false - 1
    and across = if ahead then 0 else Array.length slots - 1
    and step = if ahead then 1 else -1 in
    pick t reference
      (walk t reference slots start ~step ~ahead)
      (walk t reference slots across ~step ~ahead)
      ~ahead
  end

let size t = Array.length t.index.all
let vehicle t slot = t.index.all.(slot)
let in_slot t slot = if slot < 0 then None else Some t.index.all.(slot)

let leader_slot t reference ~lane =
  nearest_by_runs t reference ~lane ~ahead:true

let follower_slot t reference ~lane =
  nearest_by_runs t reference ~lane ~ahead:false

let leader t reference ~lane = in_slot t (leader_slot t reference ~lane)
let follower t reference ~lane = in_slot t (follower_slot t reference ~lane)

(* The vehicles level with [v] sit together in its lane's sorted slots,
   from the first position at or beyond [v.x]. *)
let slot_of t (v : Vehicle.t) =
  if not (Road.valid_lane t.road v.Vehicle.lane) then -1
  else begin
    let all = t.index.all and slots = t.index.lanes.(v.Vehicle.lane) in
    let k = ref (bisect all slots v.Vehicle.x ~strict:false) and found = ref (-1) in
    while
      !found < 0
      && !k < Array.length slots
      && all.(slots.(!k)).Vehicle.x = v.Vehicle.x
    do
      if all.(slots.(!k)) == v then found := slots.(!k);
      incr k
    done;
    !found
  end

(* Alongside. Over a lane's sorted slots the computed delta to an
   on-road [b] rises in the runs above, with [|dx|] growing away from
   four places: the first slot at or beyond [b] walking forwards, the
   slot before it walking backwards, slot 0 walking forwards (ahead
   across the wrap) and the last slot walking backwards (behind across
   the wrap). Every vehicle within the window therefore lies on one of
   four walks from those places that stop at the first [|dx|] beyond
   the window, and every vehicle a walk meets is within it. A reference
   off the road takes the plain scan, which makes no such assumption. *)
let within_from t reference slots k ~step =
  let all = t.index.all and b = reference.Vehicle.x in
  let k = ref k and found = ref false and inside = ref true in
  while (not !found) && !inside && !k >= 0 && !k < Array.length slots do
    let v = all.(slots.(!k)) in
    if within_window (Road.delta t.road v.Vehicle.x b) then begin
      found := v.Vehicle.id <> reference.Vehicle.id;
      k := !k + step
    end
    else inside := false
  done;
  !found

let alongside t reference ~lane =
  Road.valid_lane t.road lane
  &&
  if not (on_road t.road reference.Vehicle.x) then
    nearest_in_lane t reference ~lane within_window <> None
  else begin
    let slots = t.index.lanes.(lane) in
    let k = bisect t.index.all slots reference.Vehicle.x ~strict:false in
    within_from t reference slots k ~step:1
    || within_from t reference slots (k - 1) ~step:(-1)
    || within_from t reference slots 0 ~step:1
    || within_from t reference slots (Array.length slots - 1) ~step:(-1)
  end

let has_vehicle_on_left ?(window = alongside_window) t =
  let target_lane = t.ego.Vehicle.lane + 1 in
  Road.valid_lane t.road target_lane
  && Array.exists
       (fun (v : Vehicle.t) ->
         v.Vehicle.lane = target_lane
         && Float.abs (Road.delta t.road v.Vehicle.x t.ego.Vehicle.x) <= window)
       t.others

(* Every ordered same-lane pair (follower [a], leader [b] ahead of it)
   that can still beat the best gap, lane by lane. A gap is never -0.0
   (its distance is positive), so the minimum's bits do not depend on
   the order the pairs are visited in.

   For each [a], the leaders lie in two runs of the lane's sorted slots
   (see the runs above): the slots past [a], until the delta wraps
   negative, and the slots from the lane's first, until the delta falls
   to 0 or below. Along either run [dx] never decreases, as rounding
   [x_b - x_a] (plus the length, across the wrap) is monotone. The gap
   is [(dx - 0.5 L_b) - 0.5 L_a], so [(dx - 0.5 Lmax) - 0.5 L_a], with
   [Lmax] the lane's longest vehicle, rounded the same way, is a lower
   bound on it that never decreases along a run either. Once it reaches
   the best gap, no later pair of the run can beat it, and the walk
   stops: the same minimum as every pair, by construction. A NaN length
   makes [Lmax] NaN, and then no bound stops a walk. *)
let min_gap_to_any t =
  let all = t.index.all and road = t.road in
  let best = ref infinity in
  Array.iter
    (fun slots ->
      let n = Array.length slots in
      let half_max =
        0.5
        *. Array.fold_left
             (fun m s -> Float.max m all.(s).Vehicle.length)
             neg_infinity slots
      in
      for k = 0 to n - 1 do
        let a = all.(slots.(k)) in
        let half_a = 0.5 *. a.Vehicle.length in
        (* [true] while the walk may go on. *)
        let visit j =
          let b = all.(slots.(j)) in
          let dx = Road.delta road b.Vehicle.x a.Vehicle.x in
          if dx <= 0.0 then dx = 0.0 && j > k
          else if dx -. half_max -. half_a >= !best then false
          else begin
            if a.Vehicle.id <> b.Vehicle.id then begin
              let g = dx -. (0.5 *. b.Vehicle.length) -. half_a in
              if g < !best then best := g
            end;
            true
          end
        in
        let j = ref (k + 1) in
        while !j < n && visit !j do incr j done;
        let j = ref 0 in
        while !j < k && visit !j do incr j done
      done)
    t.index.lanes;
  !best
