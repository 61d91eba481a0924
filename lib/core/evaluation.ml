type result = {
  steps : int;
  risky_suggestions : int;
  collisions : bool;
  mean_speed : float;
  lane_changes : int;
  max_suggested_lat : float;
}

let drive ?(steps = 600) ?(dt = 0.2) ?(seed = 17) ~components net () =
  let rng = Linalg.Rng.create seed in
  let sim =
    Highway.Simulator.spawn ~rng ~road:Highway.Recorder.default_road
      ~vehicles_per_lane:14 ()
  in
  let risky = ref 0 and lane_changes = ref 0 in
  let max_lat = ref neg_infinity in
  let speed_total = ref 0.0 in
  let previous_lane = ref (Highway.Simulator.ego sim).Highway.Vehicle.lane in
  for _ = 1 to steps do
    let scene = Highway.Simulator.scene sim in
    let features = Highway.Features.encode scene in
    let lat, lon =
      Nn.Gmm.mean_of_output ~components (Nn.Network.forward net features)
    in
    if lat > !max_lat then max_lat := lat;
    if Highway.Risk.risky ~features ~lat_velocity:lat then incr risky;
    Highway.Simulator.step sim
      ~ego_action:{ Highway.Policy.lat_velocity = lat; lon_accel = lon }
      ~dt ();
    let ego = Highway.Simulator.ego sim in
    speed_total := !speed_total +. ego.Highway.Vehicle.speed;
    if ego.Highway.Vehicle.lane <> !previous_lane then begin
      incr lane_changes;
      previous_lane := ego.Highway.Vehicle.lane
    end
  done;
  {
    steps;
    risky_suggestions = !risky;
    collisions = Highway.Simulator.collision_occurred sim;
    mean_speed = !speed_total /. float_of_int steps;
    lane_changes = !lane_changes;
    max_suggested_lat = !max_lat;
  }

let render r =
  Printf.sprintf
    "closed-loop: %d steps, %d risky suggestions, collisions: %b,\n\
     mean speed %.1f m/s, %d lane changes, max suggested lateral %.2f m/s"
    r.steps r.risky_suggestions r.collisions r.mean_speed r.lane_changes
    r.max_suggested_lat
