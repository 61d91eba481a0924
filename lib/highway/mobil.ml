type params = {
  politeness : float;
  threshold : float;
  safe_brake : float;
  keep_right_bias : float;
}

let default =
  { politeness = 0.3; threshold = 0.15; safe_brake = 3.0; keep_right_bias = 0.2 }

type decision = { safe : bool; incentive : float }

let idm_accel_towards idm road (follower : Vehicle.t) (leader : Vehicle.t option)
    =
  match leader with
  | None ->
      Idm.free_road_accel idm ~speed:follower.Vehicle.speed
        ~desired_speed:follower.Vehicle.desired_speed
  | Some l ->
      Idm.accel idm ~speed:follower.Vehicle.speed
        ~desired_speed:follower.Vehicle.desired_speed
        ~gap:(Vehicle.gap road ~follower ~leader:l)
        ~leader_speed:l.Vehicle.speed

(* The terms that do not depend on the target lane: the vehicle's own
   acceleration behind its current leader, and what its current follower
   gains once it leaves. [decide] computes them at most once for both
   target lanes; they are the same calls on the same arguments either
   way. *)
type own = { a_self_old : float; old_follower_delta : float }

let own_terms idm scene vehicle =
  let road = scene.Scene.road in
  let old_leader = Scene.leader scene vehicle ~lane:vehicle.Vehicle.lane in
  let old_follower = Scene.follower scene vehicle ~lane:vehicle.Vehicle.lane in
  let a_self_old = idm_accel_towards idm road vehicle old_leader in
  let old_follower_delta =
    match old_follower with
    | None -> 0.0
    | Some f ->
        (* The old follower gains our leader once we leave. *)
        let before = idm_accel_towards idm road f (Some vehicle) in
        let after = idm_accel_towards idm road f old_leader in
        after -. before
  in
  { a_self_old; old_follower_delta }

let assess p idm scene vehicle ~target_lane own =
  let road = scene.Scene.road in
  if
    (not (Road.valid_lane road target_lane))
    || target_lane = vehicle.Vehicle.lane
    (* A vehicle alongside in the target lane blocks the change outright. *)
    || Scene.alongside scene vehicle ~lane:target_lane
  then { safe = false; incentive = neg_infinity }
  else begin
    let own = Lazy.force own in
    let new_leader = Scene.leader scene vehicle ~lane:target_lane in
    let new_follower = Scene.follower scene vehicle ~lane:target_lane in
    let moved = { vehicle with Vehicle.lane = target_lane } in
    let a_self_new = idm_accel_towards idm road moved new_leader in
    (* New follower's deceleration if we cut in. *)
    let follower_after =
      match new_follower with
      | None -> 0.0
      | Some f -> idm_accel_towards idm road f (Some moved)
    in
    let safe = follower_after >= -.p.safe_brake in
    let follower_delta =
      match new_follower with
      | None -> 0.0
      | Some f ->
          let before =
            idm_accel_towards idm road f (Scene.leader scene f ~lane:target_lane)
          in
          follower_after -. before
    in
    let incentive =
      a_self_new -. own.a_self_old
      +. (p.politeness *. (follower_delta +. own.old_follower_delta))
    in
    { safe; incentive }
  end

let evaluate p idm scene vehicle ~target_lane =
  assess p idm scene vehicle ~target_lane (lazy (own_terms idm scene vehicle))

let decide p idm scene vehicle =
  let own = lazy (own_terms idm scene vehicle) in
  let consider target_lane bias =
    let d = assess p idm scene vehicle ~target_lane own in
    if d.safe && d.incentive +. bias > p.threshold then
      Some (target_lane, d.incentive +. bias)
    else None
  in
  let left = consider (vehicle.Vehicle.lane + 1) 0.0 in
  let right = consider (vehicle.Vehicle.lane - 1) p.keep_right_bias in
  match (left, right) with
  | Some (l, li), Some (_, ri) when li >= ri -> Some l
  | Some _, Some (r, _) -> Some r
  | Some (l, _), None -> Some l
  | None, Some (r, _) -> Some r
  | None, None -> None
