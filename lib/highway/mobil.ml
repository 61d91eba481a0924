type params = {
  politeness : float;
  threshold : float;
  safe_brake : float;
  keep_right_bias : float;
}

let default =
  { politeness = 0.3; threshold = 0.15; safe_brake = 3.0; keep_right_bias = 0.2 }

type decision = { safe : bool; incentive : float }

(* Per slot of [scene]: the free-road term ([nan] until computed; a term
   that is itself NaN is just computed again, to the same bits), the
   own-lane leader's slot (-1 for none, -2 until computed) and the
   acceleration behind it. *)
type terms = {
  idm : Idm.params;
  scene : Scene.t;
  free : float array;
  lead : int array;
  own : float array;
}

let terms idm scene =
  let n = Scene.size scene in
  {
    idm;
    scene;
    free = Array.make n Float.nan;
    lead = Array.make n (-2);
    own = Array.make n 0.0;
  }

let free_term t slot =
  let a = t.free.(slot) in
  if Float.is_nan a then begin
    let v = Scene.vehicle t.scene slot in
    let a =
      Idm.free_road_accel t.idm ~speed:v.Vehicle.speed
        ~desired_speed:v.Vehicle.desired_speed
    in
    t.free.(slot) <- a;
    a
  end
  else a

(* [follower]'s acceleration behind [leader], given its free-road term:
   [Idm.accel]'s bits. *)
let behind t ~free (follower : Vehicle.t) (leader : Vehicle.t) =
  Idm.accel_from_free t.idm ~free ~speed:follower.Vehicle.speed
    ~gap:(Vehicle.gap t.scene.Scene.road ~follower ~leader)
    ~leader_speed:leader.Vehicle.speed

let behind_slot t ~free follower slot =
  if slot < 0 then free else behind t ~free follower (Scene.vehicle t.scene slot)

let fill t slot =
  if t.lead.(slot) = -2 then begin
    let v = Scene.vehicle t.scene slot in
    let l = Scene.leader_slot t.scene v ~lane:v.Vehicle.lane in
    t.own.(slot) <- behind_slot t ~free:(free_term t slot) v l;
    t.lead.(slot) <- l
  end

let accel t slot =
  fill t slot;
  t.own.(slot)

let own_leader t slot =
  fill t slot;
  t.lead.(slot)

(* The terms that do not depend on the target lane: the vehicle's
   free-road term, its acceleration behind its own-lane leader, and
   what its current follower gains once it leaves. [self] is the slot
   holding [vehicle] in the scene, -1 if none does; its entries are
   then computed here, by the same calls. [decide] computes these at
   most once for both target lanes. *)
type own = { free_self : float; a_self_old : float; old_follower_delta : float }

let own_terms t ~self vehicle =
  let scene = t.scene in
  let free_self, old_leader, a_self_old =
    if self >= 0 then begin
      let a = accel t self in
      (free_term t self, t.lead.(self), a)
    end
    else begin
      let free =
        Idm.free_road_accel t.idm ~speed:vehicle.Vehicle.speed
          ~desired_speed:vehicle.Vehicle.desired_speed
      in
      let l = Scene.leader_slot scene vehicle ~lane:vehicle.Vehicle.lane in
      (free, l, behind_slot t ~free vehicle l)
    end
  in
  let old_follower_delta =
    let f = Scene.follower_slot scene vehicle ~lane:vehicle.Vehicle.lane in
    if f < 0 then 0.0
    else begin
      let fv = Scene.vehicle scene f and free = free_term t f in
      (* Behind us now. When the follower's own-lane leader is this very
         vehicle, that is the table's entry; ties at equal positions can
         make it another vehicle. *)
      let before =
        if self >= 0 && own_leader t f = self then t.own.(f)
        else behind t ~free fv vehicle
      in
      (* The old follower gains our leader once we leave. *)
      let after = behind_slot t ~free fv old_leader in
      after -. before
    end
  in
  { free_self; a_self_old; old_follower_delta }

let assess p t vehicle ~target_lane own =
  let scene = t.scene in
  if
    (not (Road.valid_lane scene.Scene.road target_lane))
    || target_lane = vehicle.Vehicle.lane
    (* A vehicle alongside in the target lane blocks the change outright. *)
    || Scene.alongside scene vehicle ~lane:target_lane
  then { safe = false; incentive = neg_infinity }
  else begin
    let own = Lazy.force own in
    (* A lane change moves neither the vehicle's position nor its speed,
       the only fields the IDM terms read, so it stands for itself in
       the target lane. *)
    let a_self_new =
      behind_slot t ~free:own.free_self vehicle
        (Scene.leader_slot scene vehicle ~lane:target_lane)
    in
    let f = Scene.follower_slot scene vehicle ~lane:target_lane in
    (* New follower's deceleration if we cut in. *)
    let follower_after =
      if f < 0 then 0.0
      else behind t ~free:(free_term t f) (Scene.vehicle scene f) vehicle
    in
    let safe = follower_after >= -.p.safe_brake in
    (* The new follower is in the target lane, so its leader there is
       its own-lane leader: the table's entry. *)
    let follower_delta = if f < 0 then 0.0 else follower_after -. accel t f in
    let incentive =
      a_self_new -. own.a_self_old
      +. (p.politeness *. (follower_delta +. own.old_follower_delta))
    in
    { safe; incentive }
  end

let decide_at p t ~self vehicle =
  let own = lazy (own_terms t ~self vehicle) in
  let consider target_lane bias =
    let d = assess p t vehicle ~target_lane own in
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

let decide_slot p t slot = decide_at p t ~self:slot (Scene.vehicle t.scene slot)

let evaluate p idm scene vehicle ~target_lane =
  let t = terms idm scene and self = Scene.slot_of scene vehicle in
  assess p t vehicle ~target_lane (lazy (own_terms t ~self vehicle))

let decide p idm scene vehicle =
  decide_at p (terms idm scene) ~self:(Scene.slot_of scene vehicle) vehicle
