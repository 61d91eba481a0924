type sample = {
  features : Linalg.Vec.t;
  lat_velocity : float;
  lon_accel : float;
  ground_truth_risky : bool;
}

let target_of_sample s = [| s.lat_velocity; s.lon_accel |]

let default_road = Road.make ~length:1000.0 ()
let warmup_steps = 50
let sample_every = 3

let record ~rng ?(style = Policy.Safe) ?road ?(vehicles_per_lane = 14)
    ?(dt = 0.2) ~n_samples () =
  let road = match road with Some r -> r | None -> default_road in
  let sim = Simulator.spawn ~rng ~road ~vehicles_per_lane () in
  let idm = Idm.default and mobil = Mobil.default in
  for _ = 1 to warmup_steps do
    let world = Simulator.scene sim in
    let action = Policy.act ~style:Policy.Safe ~idm ~mobil ~rng world in
    Simulator.step sim ~ego_action:action ~dt ()
  done;
  let samples = ref [] and collected = ref 0 and step_count = ref 0 in
  while !collected < n_samples do
    let world = Simulator.scene sim in
    let action = Policy.act ~style ~idm ~mobil ~rng world in
    if !step_count mod sample_every = 0 then begin
      let features = Features.encode world in
      let risky =
        Risk.risky ~features ~lat_velocity:action.Policy.lat_velocity
      in
      samples :=
        {
          features;
          lat_velocity = action.Policy.lat_velocity;
          lon_accel = action.Policy.lon_accel;
          ground_truth_risky = risky;
        }
        :: !samples;
      incr collected
    end;
    Simulator.step sim ~ego_action:action ~dt ();
    incr step_count
  done;
  Array.of_list (List.rev !samples)
