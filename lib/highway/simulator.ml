type t = {
  road : Road.t;
  mutable ego : Vehicle.t;
  mutable others : Vehicle.t array;
  mutable world : Scene.t;  (* snapshot of [ego] and [others] *)
  mutable clock : float;
  mutable collided : bool;
  idm : Idm.params;
  mobil : Mobil.params;
  cooldown : (int, float) Hashtbl.t;  (* vehicle id -> earliest next change *)
  mutable steps_since_history : int;
}

let lane_change_cooldown = 4.0
let history_period_steps = 5

let create ?(road = Road.default) ~ego ~others () =
  {
    road;
    ego;
    others = Array.of_list others;
    world = Scene.make road ~ego ~others;
    clock = 0.0;
    collided = false;
    idm = Idm.default;
    mobil = Mobil.default;
    cooldown = Hashtbl.create 32;
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
let ego t = t.ego

let can_change t (v : Vehicle.t) =
  match Hashtbl.find_opt t.cooldown v.Vehicle.id with
  | Some until -> t.clock >= until
  | None -> true

let note_change t (v : Vehicle.t) =
  Hashtbl.replace t.cooldown v.Vehicle.id (t.clock +. lane_change_cooldown)

let integrate road (v : Vehicle.t) ~accel ~dt =
  let speed = Float.max 0.0 (v.Vehicle.speed +. (accel *. dt)) in
  let x = Road.wrap road (v.Vehicle.x +. (v.Vehicle.speed *. dt) +. (0.5 *. accel *. dt *. dt)) in
  { v with Vehicle.x; speed; accel }

let update_traffic_vehicle t world dt (v : Vehicle.t) =
  let accel =
    match Scene.leader world v ~lane:v.Vehicle.lane with
    | None ->
        Idm.free_road_accel t.idm ~speed:v.Vehicle.speed
          ~desired_speed:v.Vehicle.desired_speed
    | Some leader ->
        Idm.accel t.idm ~speed:v.Vehicle.speed
          ~desired_speed:v.Vehicle.desired_speed
          ~gap:(Vehicle.gap t.road ~follower:v ~leader)
          ~leader_speed:leader.Vehicle.speed
  in
  let v =
    if can_change t v then begin
      match Mobil.decide t.mobil t.idm world v with
      | Some target ->
          note_change t v;
          { v with Vehicle.lane = target; lat_offset = 0.0 }
      | None -> v
    end
    else v
  in
  integrate t.road v ~accel ~dt

let apply_ego_action t dt (action : Policy.action option) =
  let ego = t.ego in
  match action with
  | None ->
      (* The ego follows the traffic as it has just moved. *)
      let world = Scene.make t.road ~ego ~others:(Array.to_list t.others) in
      let accel =
        match Scene.leader world ego ~lane:ego.Vehicle.lane with
        | None ->
            Idm.free_road_accel t.idm ~speed:ego.Vehicle.speed
              ~desired_speed:ego.Vehicle.desired_speed
        | Some leader ->
            Idm.accel t.idm ~speed:ego.Vehicle.speed
              ~desired_speed:ego.Vehicle.desired_speed
              ~gap:(Vehicle.gap t.road ~follower:ego ~leader)
              ~leader_speed:leader.Vehicle.speed
      in
      t.ego <- integrate t.road ego ~accel ~dt
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
      t.ego <- { moved with Vehicle.lane; lat_offset }

let step t ?ego_action ~dt () =
  let world = t.world in
  t.others <- Array.map (update_traffic_vehicle t world dt) t.others;
  apply_ego_action t dt ego_action;
  t.clock <- t.clock +. dt;
  t.steps_since_history <- t.steps_since_history + 1;
  if t.steps_since_history >= history_period_steps then begin
    t.steps_since_history <- 0;
    t.ego <- Vehicle.push_history t.ego;
    t.others <- Array.map Vehicle.push_history t.others
  end;
  t.world <- Scene.make t.road ~ego:t.ego ~others:(Array.to_list t.others);
  if Scene.min_gap_to_any t.world < 0.0 then t.collided <- true

let run t ?controller ~dt ~steps () =
  for _ = 1 to steps do
    let action = Option.map (fun c -> c (scene t)) controller in
    step t ?ego_action:action ~dt ()
  done

let collision_occurred t = t.collided
