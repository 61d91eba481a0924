type t = {
  road : Road.t;
  mutable world : Scene.t;  (* the ego and the traffic *)
  mutable clock : float;
  mutable collided : bool;
  idm : Idm.params;
  mobil : Mobil.params;
  (* Per traffic slot, the earliest time of its next change; the traffic
     keeps its order from step to step. *)
  cooldown : float array;
  mutable steps_since_history : int;
}

let lane_change_cooldown = 4.0
let history_period_steps = 5

let create ?(road = Road.default) ~ego ~others () =
  let ids = List.map (fun (v : Vehicle.t) -> v.Vehicle.id) (ego :: others) in
  if List.length (List.sort_uniq Int.compare ids) <> List.length ids then
    invalid_arg "Simulator.create: duplicate vehicle id";
  let world = Scene.make road ~ego ~others in
  {
    road;
    world;
    clock = 0.0;
    collided = false;
    idm = Idm.default;
    mobil = Mobil.default;
    cooldown = Array.make (Array.length world.Scene.others) neg_infinity;
    steps_since_history = 0;
  }

let spawn ~rng ?(road = Road.default) ?(vehicles_per_lane = 6) () =
  let next_id = ref 0 in
  let fresh_id () =
    let id = !next_id in
    incr next_id;
    id
  in
  let vehicles = ref [] in
  for lane = 0 to road.Road.num_lanes - 1 do
    (* Left lanes carry faster traffic. *)
    let base_speed = 24.0 +. (4.0 *. float_of_int lane) in
    let spacing = road.Road.length /. float_of_int vehicles_per_lane in
    for k = 0 to vehicles_per_lane - 1 do
      let speed = Float.max 5.0 (Linalg.Rng.gaussian_scaled rng ~mean:base_speed ~stddev:2.0) in
      let x =
        Road.wrap road
          ((float_of_int k *. spacing) +. Linalg.Rng.uniform rng 0.0 (spacing *. 0.3))
      in
      let desired_speed =
        Float.max 8.0 (Linalg.Rng.gaussian_scaled rng ~mean:(base_speed +. 2.0) ~stddev:2.0)
      in
      vehicles :=
        Vehicle.make ~id:(fresh_id ()) ~x ~lane ~speed ~desired_speed ()
        :: !vehicles
    done
  done;
  let ego_lane = Stdlib.min 1 (road.Road.num_lanes - 1) in
  (* Clear room for the ego near position 0 in its lane. *)
  let others =
    List.filter
      (fun (v : Vehicle.t) ->
        not
          (v.Vehicle.lane = ego_lane
           && Float.abs (Road.delta road v.Vehicle.x 0.0) < 30.0))
      !vehicles
  in
  let ego =
    Vehicle.make ~id:(fresh_id ()) ~x:0.0 ~lane:ego_lane ~speed:28.0
      ~desired_speed:32.0 ()
  in
  create ~road ~ego ~others ()

let scene t = t.world

let time t = t.clock
let ego t = t.world.Scene.ego

let integrate road (v : Vehicle.t) ~accel ~dt =
  let speed = Float.max 0.0 (v.Vehicle.speed +. (accel *. dt)) in
  let x = Road.wrap road (v.Vehicle.x +. (v.Vehicle.speed *. dt) +. (0.5 *. accel *. dt *. dt)) in
  { v with Vehicle.x; speed; accel }

(* Traffic vehicle [slot] of the step's snapshot, with the step's shared
   IDM terms. *)
let update_traffic_vehicle t terms dt slot (v : Vehicle.t) =
  let accel = Mobil.accel terms slot in
  let v =
    if t.clock >= t.cooldown.(slot) then begin
      match Mobil.decide_slot t.mobil terms slot with
      | Some target ->
          t.cooldown.(slot) <- t.clock +. lane_change_cooldown;
          { v with Vehicle.lane = target; lat_offset = 0.0 }
      | None -> v
    end
    else v
  in
  integrate t.road v ~accel ~dt

let move_ego t (ego : Vehicle.t) others dt (action : Policy.action option) =
  match action with
  | None ->
      (* The ego follows the traffic as it has just moved. *)
      let world = Scene.make t.road ~ego ~others:(Array.to_list others) in
      let accel = Mobil.accel (Mobil.terms t.idm world) (Scene.size world - 1) in
      integrate t.road ego ~accel ~dt
  | Some { Policy.lat_velocity; lon_accel } ->
      let moved = integrate t.road ego ~accel:lon_accel ~dt in
      let lat = moved.Vehicle.lat_offset +. (lat_velocity *. dt) in
      let half = t.road.Road.lane_width /. 2.0 in
      let lane, lat_offset =
        if lat > half && Road.valid_lane t.road (moved.Vehicle.lane + 1) then
          (moved.Vehicle.lane + 1, lat -. t.road.Road.lane_width)
        else if lat < -.half && Road.valid_lane t.road (moved.Vehicle.lane - 1)
        then (moved.Vehicle.lane - 1, lat +. t.road.Road.lane_width)
        else (moved.Vehicle.lane, Float.max (-.half) (Float.min half lat))
      in
      { moved with Vehicle.lane; lat_offset }

let step t ?ego_action ~dt () =
  let world = t.world in
  let terms = Mobil.terms t.idm world in
  let others =
    Array.mapi (update_traffic_vehicle t terms dt) world.Scene.others
  in
  let ego = move_ego t world.Scene.ego others dt ego_action in
  t.clock <- t.clock +. dt;
  t.steps_since_history <- t.steps_since_history + 1;
  let ego, others =
    if t.steps_since_history >= history_period_steps then begin
      t.steps_since_history <- 0;
      (Vehicle.push_history ego, Array.map Vehicle.push_history others)
    end
    else (ego, others)
  in
  t.world <- Scene.make t.road ~ego ~others:(Array.to_list others);
  if Scene.min_gap_to_any t.world < 0.0 then t.collided <- true

let run t ?controller ~dt ~steps () =
  for _ = 1 to steps do
    let action = Option.map (fun c -> c (scene t)) controller in
    step t ?ego_action:action ~dt ()
  done

let collision_occurred t = t.collided
