type t = {
  id : int;
  x : float;
  lane : int;
  lat_offset : float;
  speed : float;
  accel : float;
  length : float;
  desired_speed : float;
  speed_history : float array;
}

let history_length = 4

let make ~id ~x ~lane ~speed ?(length = 4.5) ?desired_speed () =
  if speed < 0.0 then invalid_arg "Vehicle.make: negative speed";
  let desired_speed = match desired_speed with Some v -> v | None -> speed in
  {
    id;
    x;
    lane;
    lat_offset = 0.0;
    speed;
    accel = 0.0;
    length;
    desired_speed;
    speed_history = Array.make history_length speed;
  }

let push_history t =
  let h = Array.make history_length t.speed in
  Array.blit t.speed_history 0 h 1 (history_length - 1);
  { t with speed_history = h }

let gap road ~follower ~leader =
  Road.delta road leader.x follower.x
  -. (0.5 *. leader.length)
  -. (0.5 *. follower.length)
