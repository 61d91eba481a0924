type params = {
  max_accel : float;
  comfortable_brake : float;
  min_gap : float;
  time_headway : float;
  exponent : float;
}

let default =
  {
    max_accel = 1.5;
    comfortable_brake = 2.0;
    min_gap = 2.0;
    time_headway = 1.5;
    exponent = 4.0;
  }

let free_road_accel p ~speed ~desired_speed =
  if desired_speed <= 0.0 then -.p.comfortable_brake
  else p.max_accel *. (1.0 -. ((speed /. desired_speed) ** p.exponent))

let accel_from_free p ~free ~speed ~gap ~leader_speed =
  let approach_rate = speed -. leader_speed in
  let desired_gap =
    p.min_gap
    +. Float.max 0.0
         ((speed *. p.time_headway)
          +. (speed *. approach_rate
              /. (2.0 *. sqrt (p.max_accel *. p.comfortable_brake))))
  in
  let gap = Float.max 0.1 gap in
  let interaction = -.p.max_accel *. ((desired_gap /. gap) ** 2.0) in
  let a = free +. interaction in
  Float.max (-3.0 *. p.comfortable_brake) (Float.min p.max_accel a)

let accel p ~speed ~desired_speed ~gap ~leader_speed =
  accel_from_free p
    ~free:(free_road_accel p ~speed ~desired_speed)
    ~speed ~gap ~leader_speed

let equilibrium_gap p ~speed = p.min_gap +. (speed *. p.time_headway)
