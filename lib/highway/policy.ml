type style = Safe | Risky of float

type action = { lat_velocity : float; lon_accel : float }

let lane_change_speed = 1.2

(* A frustrated driver: a slow leader close ahead makes an overtaking
   urge; risky experts then sometimes dart left without checking. *)
let wants_to_overtake (scene : Scene.t) =
  let ego = scene.Scene.ego in
  match Scene.leader scene ego ~lane:ego.Vehicle.lane with
  | None -> false
  | Some leader ->
      let gap = Vehicle.gap scene.Scene.road ~follower:ego ~leader in
      gap < 40.0 && leader.Vehicle.speed < ego.Vehicle.desired_speed -. 2.0

let act ?(style = Safe) ~idm ~mobil ~rng (scene : Scene.t) =
  let ego = scene.Scene.ego in
  (* The ego, in the scene's last slot, behind its own-lane leader; MOBIL
     reads the same entry. *)
  let terms = Mobil.terms idm scene and self = Scene.size scene - 1 in
  let lon = Mobil.accel terms self in
  let centering = -0.4 *. ego.Vehicle.lat_offset in
  let noise () = Linalg.Rng.gaussian_scaled rng ~mean:0.0 ~stddev:0.05 in
  let risky_attempt =
    (* A blind-spot failure: the driver wants to move left (slow leader,
       or plain impatience) and darts without the occupancy check —
       precisely while somebody is alongside. *)
    match style with
    | Safe -> false
    | Risky p ->
        Road.valid_lane scene.Scene.road (ego.Vehicle.lane + 1)
        && Scene.neighbor scene Orientation.Left <> None
        && (wants_to_overtake scene || Linalg.Rng.float rng 1.0 < 0.5)
        && Linalg.Rng.float rng 1.0 < p
  in
  if risky_attempt then
    (* Dart left without the occupancy check: large lateral velocity
       even when someone is alongside. *)
    {
      lat_velocity = Linalg.Rng.uniform rng 1.8 3.2;
      lon_accel = lon +. noise ();
    }
  else begin
    match Mobil.decide_slot mobil terms self with
    | Some target when target > ego.Vehicle.lane ->
        {
          lat_velocity = lane_change_speed +. noise ();
          lon_accel = lon +. noise ();
        }
    | Some _ ->
        {
          lat_velocity = -.lane_change_speed +. noise ();
          lon_accel = lon +. noise ();
        }
    | None ->
        { lat_velocity = centering +. noise (); lon_accel = lon +. noise () }
  end
