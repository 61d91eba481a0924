let make_vehicle ?(id = 0) ?(lane = 0) ?(speed = 25.0) ?desired_speed x =
  Highway.Vehicle.make ~id ~x ~lane ~speed ?desired_speed ()

(* {1 Road} *)

let test_road_wrap () =
  let road = Highway.Road.make ~length:100.0 () in
  Alcotest.(check (float 1e-9)) "inside" 40.0 (Highway.Road.wrap road 40.0);
  Alcotest.(check (float 1e-9)) "positive wrap" 5.0 (Highway.Road.wrap road 105.0);
  Alcotest.(check (float 1e-9)) "negative wrap" 95.0 (Highway.Road.wrap road (-5.0));
  (* [r +. length] rounds up to [length] for a tiny negative remainder;
     [length] is the same point as 0 and lies outside [\[0, length)]. *)
  let ring = Highway.Road.make ~length:1000.0 () in
  Alcotest.(check (float 0.0)) "tiny negative wraps to 0" 0.0
    (Highway.Road.wrap ring (-1e-14))

let prop_road_wrap_range =
  QCheck.Test.make ~name:"wrap within [0, L) near 0 and +-L" ~count:500
    (QCheck.make QCheck.Gen.(int_range 0 1_000_000))
    (fun seed ->
      let rng = Linalg.Rng.create seed in
      let length = Linalg.Rng.uniform rng 1.0 3000.0 in
      let road = Highway.Road.make ~length () in
      let near base =
        let eps = Float.ldexp 1.0 (-(Linalg.Rng.int rng 60)) in
        base +. Linalg.Rng.uniform rng (-.eps) eps
      in
      List.for_all
        (fun base ->
          let w = Highway.Road.wrap road (near base) in
          w >= 0.0 && w < length)
        [ 0.0; length; -.length; Float.pred length; -.Float.pred length ])

let test_road_delta () =
  let road = Highway.Road.make ~length:100.0 () in
  Alcotest.(check (float 1e-9)) "ahead" 10.0 (Highway.Road.delta road 30.0 20.0);
  Alcotest.(check (float 1e-9)) "behind" (-10.0) (Highway.Road.delta road 20.0 30.0);
  (* Wrap-around: 95 -> 5 is 10 ahead, not 90 behind. *)
  Alcotest.(check (float 1e-9)) "wrap ahead" 10.0 (Highway.Road.delta road 5.0 95.0);
  Alcotest.(check (float 1e-9)) "wrap behind" (-10.0) (Highway.Road.delta road 95.0 5.0)

let prop_road_delta_antisymmetric =
  QCheck.Test.make ~name:"delta antisymmetric (mod wrap)" ~count:300
    QCheck.(pair (float_range 0.0 200.0) (float_range 0.0 200.0))
    (fun (a, b) ->
      let road = Highway.Road.make ~length:200.0 () in
      let d1 = Highway.Road.delta road a b and d2 = Highway.Road.delta road b a in
      (* Antisymmetric except at the antipode where both ends are -L/2. *)
      Float.abs (d1 +. d2) < 1e-6 || Float.abs (Float.abs d1 -. 100.0) < 1e-6)

let prop_road_delta_range =
  QCheck.Test.make ~name:"delta within [-L/2, L/2)" ~count:300
    QCheck.(pair (float_range (-500.0) 500.0) (float_range (-500.0) 500.0))
    (fun (a, b) ->
      let road = Highway.Road.make ~length:150.0 () in
      let d = Highway.Road.delta road a b in
      d >= -75.0 -. 1e-9 && d < 75.0 +. 1e-9)

let test_road_validation () =
  Alcotest.(check bool) "zero lanes rejected" true
    (try
       ignore (Highway.Road.make ~num_lanes:0 ());
       false
     with Invalid_argument _ -> true)

(* {1 Vehicle} *)

let test_vehicle_gap () =
  let road = Highway.Road.make ~length:1000.0 () in
  let follower = make_vehicle 0.0 and leader = make_vehicle 20.0 in
  (* Both 4.5 m long: gap = 20 - 4.5 = 15.5 *)
  Alcotest.(check (float 1e-9)) "gap" 15.5
    (Highway.Vehicle.gap road ~follower ~leader)

let test_vehicle_history () =
  let v = make_vehicle ~speed:20.0 0.0 in
  let v = { v with Highway.Vehicle.speed = 25.0 } in
  let v = Highway.Vehicle.push_history v in
  Alcotest.(check (float 0.0)) "head is current" 25.0 v.Highway.Vehicle.speed_history.(0);
  Alcotest.(check (float 0.0)) "tail is old" 20.0 v.Highway.Vehicle.speed_history.(1)

let test_vehicle_negative_speed_rejected () =
  Alcotest.(check bool) "rejected" true
    (try
       ignore (Highway.Vehicle.make ~id:0 ~x:0.0 ~lane:0 ~speed:(-1.0) ());
       false
     with Invalid_argument _ -> true)

(* {1 IDM} *)

let test_idm_free_road () =
  let p = Highway.Idm.default in
  Alcotest.(check bool) "accelerates below desired" true
    (Highway.Idm.free_road_accel p ~speed:20.0 ~desired_speed:30.0 > 0.0);
  Alcotest.(check (float 1e-9)) "zero at desired" 0.0
    (Highway.Idm.free_road_accel p ~speed:30.0 ~desired_speed:30.0);
  Alcotest.(check bool) "brakes above desired" true
    (Highway.Idm.free_road_accel p ~speed:35.0 ~desired_speed:30.0 < 0.0)

let test_idm_equilibrium () =
  (* At the desired (equilibrium-scaled) gap behind a same-speed leader,
     the interaction term equals exactly -max_accel, so the net force is
     the free-road force minus max_accel. *)
  let p = Highway.Idm.default in
  let speed = 25.0 and desired_speed = 32.0 in
  let gap = Highway.Idm.equilibrium_gap p ~speed in
  let a =
    Highway.Idm.accel p ~speed ~desired_speed ~gap ~leader_speed:speed
  in
  let free = Highway.Idm.free_road_accel p ~speed ~desired_speed in
  Alcotest.(check (float 1e-9)) "free minus max_accel"
    (free -. p.Highway.Idm.max_accel) a;
  (* Twice the equilibrium gap: interaction shrinks to a quarter. *)
  let a2 =
    Highway.Idm.accel p ~speed ~desired_speed ~gap:(2.0 *. gap)
      ~leader_speed:speed
  in
  Alcotest.(check (float 1e-9)) "quarter interaction"
    (free -. (p.Highway.Idm.max_accel /. 4.0)) a2

let test_idm_brakes_when_closing () =
  let p = Highway.Idm.default in
  let slow =
    Highway.Idm.accel p ~speed:30.0 ~desired_speed:30.0 ~gap:10.0
      ~leader_speed:15.0
  in
  Alcotest.(check bool) "hard braking" true (slow < -1.0);
  Alcotest.(check bool) "clamped" true
    (slow >= -3.0 *. p.Highway.Idm.comfortable_brake)

let test_idm_monotone_in_gap () =
  let p = Highway.Idm.default in
  let accel_at gap =
    Highway.Idm.accel p ~speed:25.0 ~desired_speed:30.0 ~gap ~leader_speed:25.0
  in
  Alcotest.(check bool) "larger gap, weaker braking" true
    (accel_at 50.0 > accel_at 10.0);
  Alcotest.(check bool) "tiny gap clamps, no NaN" true
    (Float.is_finite (accel_at 0.0))

(* {1 Scene and neighbours} *)

let three_lane_scene () =
  (* Ego in lane 1 at x=100 with traffic placed around it:
     - leader in lane 1 at 130, follower at 60
     - left alongside at 103 (lane 2), left-front at 160, left-back at 40
     - right alongside at 98 (lane 0), right-front at 150 *)
  let road = Highway.Road.make ~length:1000.0 () in
  let ego = Highway.Vehicle.make ~id:99 ~x:100.0 ~lane:1 ~speed:25.0 () in
  let mk id x lane = Highway.Vehicle.make ~id ~x ~lane ~speed:24.0 () in
  let others =
    [
      mk 1 130.0 1; mk 2 60.0 1; mk 3 103.0 2; mk 4 160.0 2; mk 5 40.0 2;
      mk 6 98.0 0; mk 7 150.0 0;
    ]
  in
  Highway.Scene.make road ~ego ~others

let neighbor_id scene o =
  match Highway.Scene.neighbor scene o with
  | Some v -> v.Highway.Vehicle.id
  | None -> -1

let test_scene_neighbors () =
  let scene = three_lane_scene () in
  Alcotest.(check int) "front" 1 (neighbor_id scene Highway.Orientation.Front);
  Alcotest.(check int) "back" 2 (neighbor_id scene Highway.Orientation.Back);
  Alcotest.(check int) "left" 3 (neighbor_id scene Highway.Orientation.Left);
  Alcotest.(check int) "left-front" 4 (neighbor_id scene Highway.Orientation.Left_front);
  Alcotest.(check int) "left-back" 5 (neighbor_id scene Highway.Orientation.Left_back);
  Alcotest.(check int) "right" 6 (neighbor_id scene Highway.Orientation.Right);
  Alcotest.(check int) "right-front" 7 (neighbor_id scene Highway.Orientation.Right_front);
  Alcotest.(check int) "right-back absent" (-1)
    (neighbor_id scene Highway.Orientation.Right_back)

let test_scene_off_road_orientations () =
  let road = Highway.Road.make ~num_lanes:2 ~length:500.0 () in
  let ego = Highway.Vehicle.make ~id:0 ~x:0.0 ~lane:1 ~speed:20.0 () in
  let other = Highway.Vehicle.make ~id:1 ~x:3.0 ~lane:0 ~speed:20.0 () in
  let scene = Highway.Scene.make road ~ego ~others:[ other ] in
  Alcotest.(check bool) "no left beyond leftmost lane" true
    (Highway.Scene.neighbor scene Highway.Orientation.Left = None);
  Alcotest.(check int) "right alongside" 1
    (neighbor_id scene Highway.Orientation.Right)

let test_scene_has_vehicle_on_left () =
  let scene = three_lane_scene () in
  Alcotest.(check bool) "left occupied" true (Highway.Scene.has_vehicle_on_left scene);
  Alcotest.(check bool) "narrow window empty" false
    (Highway.Scene.has_vehicle_on_left ~window:1.0 scene)

let test_scene_leader_follower () =
  let scene = three_lane_scene () in
  let ego = scene.Highway.Scene.ego in
  (match Highway.Scene.leader scene ego ~lane:1 with
   | Some v -> Alcotest.(check int) "leader" 1 v.Highway.Vehicle.id
   | None -> Alcotest.fail "expected leader");
  (match Highway.Scene.leader scene ego ~lane:2 with
   | Some v -> Alcotest.(check int) "left-lane leader is alongside car" 3 v.Highway.Vehicle.id
   | None -> Alcotest.fail "expected left-lane leader");
  (match Highway.Scene.follower scene ego ~lane:2 with
   | Some v -> Alcotest.(check int) "left-lane follower" 5 v.Highway.Vehicle.id
   | None -> Alcotest.fail "expected follower")

let test_scene_min_gap () =
  let scene = three_lane_scene () in
  (* closest same-lane pair: ego(100) -> 130 => 25.5m. Lane2: 103->160 is 52.5m;
     lane1: 60 -> 100 = 35.5. So min gap is 25.5. *)
  Alcotest.(check (float 1e-6)) "min gap" 25.5 (Highway.Scene.min_gap_to_any scene)

let test_scene_invalid_lane_rejected () =
  let road = Highway.Road.make ~num_lanes:2 ~length:100.0 () in
  let ego = Highway.Vehicle.make ~id:0 ~x:0.0 ~lane:5 ~speed:10.0 () in
  Alcotest.(check bool) "rejected" true
    (try
       ignore (Highway.Scene.make road ~ego ~others:[]);
       false
     with Invalid_argument _ -> true)

(* {1 MOBIL} *)

let test_mobil_blocked_by_alongside () =
  let scene = three_lane_scene () in
  let d =
    Highway.Mobil.evaluate Highway.Mobil.default Highway.Idm.default scene
      scene.Highway.Scene.ego ~target_lane:2
  in
  Alcotest.(check bool) "unsafe: car alongside" false d.Highway.Mobil.safe

let test_mobil_invalid_lane () =
  let scene = three_lane_scene () in
  let d =
    Highway.Mobil.evaluate Highway.Mobil.default Highway.Idm.default scene
      scene.Highway.Scene.ego ~target_lane:7
  in
  Alcotest.(check bool) "invalid lane unsafe" false d.Highway.Mobil.safe

let test_mobil_incentive_for_overtake () =
  (* Ego stuck behind a crawler; left lane empty: changing left must be
     safe and strongly incentivised. *)
  let road = Highway.Road.make ~length:1000.0 () in
  let ego =
    Highway.Vehicle.make ~id:0 ~x:100.0 ~lane:0 ~speed:25.0 ~desired_speed:32.0 ()
  in
  let crawler = Highway.Vehicle.make ~id:1 ~x:115.0 ~lane:0 ~speed:12.0 () in
  let scene = Highway.Scene.make road ~ego ~others:[ crawler ] in
  let d =
    Highway.Mobil.evaluate Highway.Mobil.default Highway.Idm.default scene ego
      ~target_lane:1
  in
  Alcotest.(check bool) "safe" true d.Highway.Mobil.safe;
  Alcotest.(check bool) "incentivised" true
    (d.Highway.Mobil.incentive > Highway.Mobil.default.Highway.Mobil.threshold);
  (match Highway.Mobil.decide Highway.Mobil.default Highway.Idm.default scene ego with
   | Some lane -> Alcotest.(check int) "decides left" 1 lane
   | None -> Alcotest.fail "expected a lane change decision")

let test_mobil_no_pointless_change () =
  (* Free road: no reason to change lanes. *)
  let road = Highway.Road.make ~length:1000.0 () in
  let ego = Highway.Vehicle.make ~id:0 ~x:0.0 ~lane:1 ~speed:30.0 () in
  let scene = Highway.Scene.make road ~ego ~others:[] in
  (* keep-right bias may pull right; that is allowed. Going left is not. *)
  match Highway.Mobil.decide Highway.Mobil.default Highway.Idm.default scene ego with
  | Some lane -> Alcotest.(check bool) "never left" true (lane <= 1)
  | None -> ()

(* {1 Features} *)

let test_features_dim_and_names () =
  Alcotest.(check int) "dim" 84 Highway.Features.dim;
  Alcotest.(check int) "names" 84 (Array.length Highway.Features.names);
  Array.iter
    (fun n -> Alcotest.(check bool) "nonempty name" true (String.length n > 0))
    Highway.Features.names;
  (* Names are unique. *)
  let tbl = Hashtbl.create 84 in
  Array.iter (fun n -> Hashtbl.replace tbl n ()) Highway.Features.names;
  Alcotest.(check int) "unique names" 84 (Hashtbl.length tbl)

let test_features_encode_known_scene () =
  let scene = three_lane_scene () in
  let f = Highway.Features.encode scene in
  Alcotest.(check int) "dimension" 84 (Array.length f);
  let left = Highway.Features.orientation_base Highway.Orientation.Left in
  Alcotest.(check (float 0.0)) "left present" 1.0
    f.(left + Highway.Features.presence_offset);
  let rb = Highway.Features.orientation_base Highway.Orientation.Right_back in
  Alcotest.(check (float 0.0)) "right-back absent" 0.0
    f.(rb + Highway.Features.presence_offset);
  Alcotest.(check (float 1e-9)) "ego speed normalised" (25.0 /. 40.0)
    f.(Highway.Features.ego_speed);
  Alcotest.(check (float 0.0)) "bias" 1.0 f.(83)

let test_features_in_domain_for_simulated_scenes () =
  let rng = Linalg.Rng.create 12 in
  let sim = Highway.Simulator.spawn ~rng () in
  for _ = 1 to 60 do
    Highway.Simulator.step sim ~dt:0.2 ();
    let f = Highway.Features.encode (Highway.Simulator.scene sim) in
    if not (Interval.Box.contains Highway.Features.domain f) then begin
      Array.iteri
        (fun i x ->
          if not (Interval.contains Highway.Features.domain.(i) x) then
            Alcotest.failf "feature %s = %g outside %s"
              Highway.Features.names.(i) x
              (Format.asprintf "%a" Interval.pp Highway.Features.domain.(i)))
        f
    end
  done

let test_features_orientation_blocks_disjoint () =
  let bases =
    List.map Highway.Features.orientation_base Highway.Orientation.all
  in
  let sorted = List.sort compare bases in
  Alcotest.(check (list int)) "8-strided blocks"
    [ 8; 16; 24; 32; 40; 48; 56; 64 ] sorted

(* {1 Simulator} *)

let test_simulator_no_collisions_safe_traffic () =
  let rng = Linalg.Rng.create 13 in
  let sim = Highway.Simulator.spawn ~rng () in
  Highway.Simulator.run sim ~dt:0.2 ~steps:500 ();
  Alcotest.(check bool) "no collision in 100s of IDM traffic" false
    (Highway.Simulator.collision_occurred sim)

let test_simulator_time_advances () =
  let rng = Linalg.Rng.create 14 in
  let sim = Highway.Simulator.spawn ~rng () in
  Highway.Simulator.run sim ~dt:0.1 ~steps:50 ();
  Alcotest.(check (float 1e-9)) "time" 5.0 (Highway.Simulator.time sim)

let test_simulator_ego_lane_change_via_action () =
  let road = Highway.Road.make ~length:1000.0 () in
  let ego = Highway.Vehicle.make ~id:0 ~x:0.0 ~lane:0 ~speed:25.0 () in
  let sim = Highway.Simulator.create ~road ~ego ~others:[] () in
  (* Sustained left command crosses the half-lane boundary. *)
  for _ = 1 to 20 do
    Highway.Simulator.step sim
      ~ego_action:{ Highway.Policy.lat_velocity = 1.2; lon_accel = 0.0 }
      ~dt:0.2 ()
  done;
  Alcotest.(check int) "moved left" 1 (Highway.Simulator.ego sim).Highway.Vehicle.lane

(* Every scene query tells a vehicle from its reference by id, so a twin
   sharing one would be invisible to its own follower: it would drive
   through it with no collision flagged. *)
let test_simulator_rejects_duplicate_ids () =
  let road = Highway.Road.make ~length:1000.0 () in
  let ego = Highway.Vehicle.make ~id:0 ~x:500.0 ~lane:1 ~speed:25.0 () in
  let rejects others =
    match Highway.Simulator.create ~road ~ego ~others () with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  let mk id x = Highway.Vehicle.make ~id ~x ~lane:0 ~speed:25.0 () in
  Alcotest.(check bool) "same-id pair 10 m apart" true
    (rejects [ mk 7 100.0; mk 7 110.0 ]);
  Alcotest.(check bool) "traffic sharing the ego's id" true
    (rejects [ mk 0 100.0 ]);
  Alcotest.(check bool) "distinct ids accepted" false
    (rejects [ mk 7 100.0; mk 8 110.0 ])

let test_simulator_ego_stays_on_road () =
  let road = Highway.Road.make ~num_lanes:2 ~length:500.0 () in
  let ego = Highway.Vehicle.make ~id:0 ~x:0.0 ~lane:1 ~speed:20.0 () in
  let sim = Highway.Simulator.create ~road ~ego ~others:[] () in
  for _ = 1 to 50 do
    Highway.Simulator.step sim
      ~ego_action:{ Highway.Policy.lat_velocity = 2.0; lon_accel = 0.0 }
      ~dt:0.2 ()
  done;
  let v = Highway.Simulator.ego sim in
  Alcotest.(check int) "clamped to leftmost lane" 1 v.Highway.Vehicle.lane;
  Alcotest.(check bool) "offset clamped" true
    (v.Highway.Vehicle.lat_offset <= road.Highway.Road.lane_width /. 2.0 +. 1e-9)

(* {1 Policy / Recorder / Risk} *)

let test_policy_safe_never_risky () =
  let rng = Linalg.Rng.create 15 in
  let samples =
    Highway.Recorder.record ~rng ~style:Highway.Policy.Safe ~n_samples:400 ()
  in
  Array.iter
    (fun s ->
      Alcotest.(check bool) "safe expert produces no risky samples" false
        s.Highway.Recorder.ground_truth_risky)
    samples

let test_recorder_risky_style_contaminates () =
  let rng = Linalg.Rng.create 16 in
  let samples =
    Highway.Recorder.record ~rng ~style:(Highway.Policy.Risky 0.5)
      ~n_samples:1500 ()
  in
  let risky =
    Array.fold_left
      (fun n s -> if s.Highway.Recorder.ground_truth_risky then n + 1 else n)
      0 samples
  in
  Alcotest.(check bool) "some risky samples recorded" true (risky > 0)

let test_recorder_sample_count_and_dim () =
  let rng = Linalg.Rng.create 17 in
  let samples = Highway.Recorder.record ~rng ~n_samples:50 () in
  Alcotest.(check int) "count" 50 (Array.length samples);
  Array.iter
    (fun s ->
      Alcotest.(check int) "feature dim" 84
        (Array.length s.Highway.Recorder.features))
    samples

let test_risk_predicates () =
  let features = Array.make 84 0.0 in
  let left = Highway.Features.orientation_base Highway.Orientation.Left in
  features.(left + Highway.Features.presence_offset) <- 1.0;
  Alcotest.(check bool) "risky left" true
    (Highway.Risk.risky_left_move ~features ~lat_velocity:2.0);
  Alcotest.(check bool) "slow move ok" false
    (Highway.Risk.risky_left_move ~features ~lat_velocity:1.0);
  Alcotest.(check bool) "right not flagged" false
    (Highway.Risk.risky_right_move ~features ~lat_velocity:(-2.0));
  features.(left + Highway.Features.presence_offset) <- 0.0;
  Alcotest.(check bool) "empty left ok" false
    (Highway.Risk.risky ~features ~lat_velocity:3.0);
  Alcotest.(check bool) "describe none" true
    (Highway.Risk.describe ~features ~lat_velocity:3.0 = None)

(* {1 Render} *)

let test_render_scene () =
  let scene = three_lane_scene () in
  let s = Highway.Render.scene scene in
  Alcotest.(check bool) "contains ego marker" true (String.contains s 'E');
  Alcotest.(check bool) "contains traffic" true (String.contains s '>');
  Alcotest.(check bool) "multi-line" true (String.contains s '\n')

let test_render_action_distribution () =
  let v = Array.make 15 0.0 in
  let g = Nn.Gmm.decode ~components:3 v in
  let s = Highway.Render.action_distribution g in
  Alcotest.(check bool) "has axis label" true
    (String.length s > 50 && String.contains s '|')

let test_render_side_by_side () =
  let s = Highway.Render.side_by_side "a\nbb" "XX\nY\nZ" in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check bool) "three content lines" true (List.length lines >= 3)

(* {1 Reference scans}

   The neighbour queries as plain linear scans over every vehicle, the
   IDM law in one piece, the MOBIL code on top of them, [Road.delta] in
   its [Float.rem] form, and the simulator step that calls every term
   afresh. The per-lane index must answer exactly as they do, tie-breaks
   included, and [Road.delta]'s fast path, the split IDM law and the
   step's shared terms must keep every bit. *)

module Ref = struct
  open Highway

  let delta (road : Road.t) a b =
    let d = Float.rem (a -. b) road.Road.length in
    let d = if d < 0.0 then d +. road.Road.length else d in
    if d >= road.Road.length /. 2.0 then d -. road.Road.length else d

  let gap road ~(follower : Vehicle.t) ~(leader : Vehicle.t) =
    delta road leader.Vehicle.x follower.Vehicle.x
    -. (0.5 *. leader.Vehicle.length)
    -. (0.5 *. follower.Vehicle.length)

  let vehicles (t : Scene.t) = t.Scene.ego :: Array.to_list t.Scene.others

  let candidates (t : Scene.t) reference =
    Array.to_list t.Scene.others @ [ t.Scene.ego ]
    |> List.filter (fun (v : Vehicle.t) -> v.Vehicle.id <> reference.Vehicle.id)

  let neighbor_of (t : Scene.t) reference orientation =
    let target_lane =
      reference.Vehicle.lane + Orientation.lane_shift orientation
    in
    if not (Road.valid_lane t.Scene.road target_lane) then None
    else begin
      let eligible (v : Vehicle.t) =
        v.Vehicle.lane = target_lane
        && begin
             let dx = delta t.Scene.road v.Vehicle.x reference.Vehicle.x in
             match orientation with
             | Orientation.Front | Orientation.Left_front
             | Orientation.Right_front ->
                 dx > (if Orientation.lane_shift orientation = 0 then 0.0
                       else Scene.alongside_window)
             | Orientation.Back | Orientation.Left_back | Orientation.Right_back
               ->
                 dx < (if Orientation.lane_shift orientation = 0 then 0.0
                       else -.Scene.alongside_window)
             | Orientation.Left | Orientation.Right ->
                 Float.abs dx <= Scene.alongside_window
           end
      in
      let closer (a : Vehicle.t) (b : Vehicle.t) =
        let da = Float.abs (delta t.Scene.road a.Vehicle.x reference.Vehicle.x) in
        let db = Float.abs (delta t.Scene.road b.Vehicle.x reference.Vehicle.x) in
        if da <= db then a else b
      in
      candidates t reference
      |> List.filter eligible
      |> function
      | [] -> None
      | v :: rest -> Some (List.fold_left closer v rest)
    end

  let leader (t : Scene.t) reference ~lane =
    let best = ref None in
    let consider (v : Vehicle.t) =
      if v.Vehicle.id <> reference.Vehicle.id && v.Vehicle.lane = lane then begin
        let dx = delta t.Scene.road v.Vehicle.x reference.Vehicle.x in
        if dx > 0.0 then
          match !best with
          | None -> best := Some (v, dx)
          | Some (_, d) -> if dx < d then best := Some (v, dx)
      end
    in
    Array.iter consider t.Scene.others;
    consider t.Scene.ego;
    Option.map fst !best

  let alongside (t : Scene.t) reference ~lane =
    List.exists
      (fun (v : Vehicle.t) ->
        v.Vehicle.lane = lane
        && Float.abs (delta t.Scene.road v.Vehicle.x reference.Vehicle.x)
           <= Scene.alongside_window)
      (candidates t reference)

  let follower (t : Scene.t) reference ~lane =
    let best = ref None in
    let consider (v : Vehicle.t) =
      if v.Vehicle.id <> reference.Vehicle.id && v.Vehicle.lane = lane then begin
        let dx = delta t.Scene.road v.Vehicle.x reference.Vehicle.x in
        if dx < 0.0 then
          match !best with
          | None -> best := Some (v, dx)
          | Some (_, d) -> if dx > d then best := Some (v, dx)
      end
    in
    Array.iter consider t.Scene.others;
    consider t.Scene.ego;
    Option.map fst !best

  let min_gap_to_any (t : Scene.t) =
    let all = t.Scene.ego :: Array.to_list t.Scene.others in
    let best = ref infinity in
    List.iter
      (fun (a : Vehicle.t) ->
        List.iter
          (fun (b : Vehicle.t) ->
            if a.Vehicle.id <> b.Vehicle.id && a.Vehicle.lane = b.Vehicle.lane
            then begin
              let dx = delta t.Scene.road b.Vehicle.x a.Vehicle.x in
              if dx > 0.0 then begin
                let g = gap t.Scene.road ~follower:a ~leader:b in
                if g < !best then best := g
              end
            end)
          all)
      all;
    !best

  let free_road_accel (p : Idm.params) ~speed ~desired_speed =
    if desired_speed <= 0.0 then -.p.Idm.comfortable_brake
    else p.Idm.max_accel *. (1.0 -. ((speed /. desired_speed) ** p.Idm.exponent))

  let accel (p : Idm.params) ~speed ~desired_speed ~gap ~leader_speed =
    let free = free_road_accel p ~speed ~desired_speed in
    let approach_rate = speed -. leader_speed in
    let desired_gap =
      p.Idm.min_gap
      +. Float.max 0.0
           ((speed *. p.Idm.time_headway)
            +. (speed *. approach_rate
                /. (2.0 *. sqrt (p.Idm.max_accel *. p.Idm.comfortable_brake))))
    in
    let gap = Float.max 0.1 gap in
    let interaction = -.p.Idm.max_accel *. ((desired_gap /. gap) ** 2.0) in
    let a = free +. interaction in
    Float.max (-3.0 *. p.Idm.comfortable_brake) (Float.min p.Idm.max_accel a)

  let idm_accel_towards idm road (follower : Vehicle.t)
      (leader : Vehicle.t option) =
    match leader with
    | None ->
        free_road_accel idm ~speed:follower.Vehicle.speed
          ~desired_speed:follower.Vehicle.desired_speed
    | Some l ->
        accel idm ~speed:follower.Vehicle.speed
          ~desired_speed:follower.Vehicle.desired_speed
          ~gap:(gap road ~follower ~leader:l)
          ~leader_speed:l.Vehicle.speed

  let evaluate (p : Mobil.params) idm (scene : Scene.t) vehicle ~target_lane =
    let road = scene.Scene.road in
    if
      (not (Road.valid_lane road target_lane))
      || target_lane = vehicle.Vehicle.lane
    then { Mobil.safe = false; incentive = neg_infinity }
    else begin
      let blocked =
        List.exists
          (fun (v : Vehicle.t) ->
            v.Vehicle.id <> vehicle.Vehicle.id
            && v.Vehicle.lane = target_lane
            && Float.abs (delta road v.Vehicle.x vehicle.Vehicle.x)
               <= Scene.alongside_window)
          (vehicles scene)
      in
      if blocked then { Mobil.safe = false; incentive = neg_infinity }
      else begin
        let old_leader = leader scene vehicle ~lane:vehicle.Vehicle.lane in
        let new_leader = leader scene vehicle ~lane:target_lane in
        let new_follower = follower scene vehicle ~lane:target_lane in
        let old_follower = follower scene vehicle ~lane:vehicle.Vehicle.lane in
        let a_self_old = idm_accel_towards idm road vehicle old_leader in
        let moved = { vehicle with Vehicle.lane = target_lane } in
        let a_self_new = idm_accel_towards idm road moved new_leader in
        let follower_after =
          match new_follower with
          | None -> 0.0
          | Some f -> idm_accel_towards idm road f (Some moved)
        in
        let safe = follower_after >= -.p.Mobil.safe_brake in
        let follower_delta =
          match new_follower with
          | None -> 0.0
          | Some f ->
              let before =
                idm_accel_towards idm road f (leader scene f ~lane:target_lane)
              in
              follower_after -. before
        in
        let old_follower_delta =
          match old_follower with
          | None -> 0.0
          | Some f ->
              let before = idm_accel_towards idm road f (Some vehicle) in
              let after = idm_accel_towards idm road f old_leader in
              after -. before
        in
        let incentive =
          a_self_new -. a_self_old
          +. (p.Mobil.politeness *. (follower_delta +. old_follower_delta))
        in
        { Mobil.safe; incentive }
      end
    end

  let decide (p : Mobil.params) idm scene vehicle =
    let consider target_lane bias =
      let d = evaluate p idm scene vehicle ~target_lane in
      if d.Mobil.safe && d.Mobil.incentive +. bias > p.Mobil.threshold then
        Some (target_lane, d.Mobil.incentive +. bias)
      else None
    in
    let left = consider (vehicle.Vehicle.lane + 1) 0.0 in
    let right = consider (vehicle.Vehicle.lane - 1) p.Mobil.keep_right_bias in
    match (left, right) with
    | Some (l, li), Some (_, ri) when li >= ri -> Some l
    | Some _, Some (r, _) -> Some r
    | Some (l, _), None -> Some l
    | None, Some (r, _) -> Some r
    | None, None -> None

  (* The simulator as it was before its step shared IDM terms: every
     acceleration is computed where it is used, cooldowns live in a
     table keyed by id, and the collision monitor scans every pair. *)
  module Sim = struct
    type t = {
      road : Road.t;
      mutable ego : Vehicle.t;
      mutable others : Vehicle.t array;
      mutable world : Scene.t;
      mutable clock : float;
      mutable collided : bool;
      idm : Idm.params;
      mobil : Mobil.params;
      cooldown : (int, float) Hashtbl.t;
      mutable steps_since_history : int;
    }

    let lane_change_cooldown = 4.0
    let history_period_steps = 5

    let create ~road ~ego ~others =
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

    let can_change t (v : Vehicle.t) =
      match Hashtbl.find_opt t.cooldown v.Vehicle.id with
      | Some until -> t.clock >= until
      | None -> true

    let note_change t (v : Vehicle.t) =
      Hashtbl.replace t.cooldown v.Vehicle.id (t.clock +. lane_change_cooldown)

    let integrate road (v : Vehicle.t) ~accel ~dt =
      let speed = Float.max 0.0 (v.Vehicle.speed +. (accel *. dt)) in
      let x =
        Road.wrap road
          (v.Vehicle.x +. (v.Vehicle.speed *. dt) +. (0.5 *. accel *. dt *. dt))
      in
      { v with Vehicle.x; speed; accel }

    let update_traffic_vehicle t world dt (v : Vehicle.t) =
      let accel =
        idm_accel_towards t.idm t.road v (leader world v ~lane:v.Vehicle.lane)
      in
      let v =
        if can_change t v then begin
          match decide t.mobil t.idm world v with
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
          let world = Scene.make t.road ~ego ~others:(Array.to_list t.others) in
          let accel =
            idm_accel_towards t.idm t.road ego
              (leader world ego ~lane:ego.Vehicle.lane)
          in
          t.ego <- integrate t.road ego ~accel ~dt
      | Some { Policy.lat_velocity; lon_accel } ->
          let moved = integrate t.road ego ~accel:lon_accel ~dt in
          let lat = moved.Vehicle.lat_offset +. (lat_velocity *. dt) in
          let half = t.road.Road.lane_width /. 2.0 in
          let lane, lat_offset =
            if lat > half && Road.valid_lane t.road (moved.Vehicle.lane + 1) then
              (moved.Vehicle.lane + 1, lat -. t.road.Road.lane_width)
            else if
              lat < -.half && Road.valid_lane t.road (moved.Vehicle.lane - 1)
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
      if min_gap_to_any t.world < 0.0 then t.collided <- true
  end
end

let bits = Int64.bits_of_float

(* A random ring scene built to hit the index's edge cases: positions at
   0 and just below the length, duplicate positions, neighbours one ulp
   apart, pairs exactly half a ring apart (on grid rings), crowded lanes
   and empty ones. *)
let random_scene rng =
  let module R = Linalg.Rng in
  let num_lanes = 1 + R.int rng 4 in
  let grid = R.int rng 3 = 0 in
  (* Rings shorter than two alongside windows put every vehicle of a
     lane alongside. *)
  let length =
    if grid then float_of_int (20 * (1 + R.int rng 100))
    else if R.int rng 8 = 0 then R.uniform rng 1.0 15.0
    else R.uniform rng 20.0 2000.0
  in
  let road = Highway.Road.make ~num_lanes ~length () in
  let n = R.int rng 61 in
  let xs = ref [] in
  let position () =
    let fresh () =
      if grid then length *. float_of_int (R.int rng 64) /. 64.0
      else
        let x = R.float rng length in
        if x >= length then Float.pred length else x
    in
    let x =
      match (R.int rng 10, !xs) with
      | 0, _ -> 0.0
      | 1, _ -> Float.pred length
      | 2, y :: _ -> y
      | 3, y :: _ -> Highway.Road.wrap road (y +. (length /. 2.0))
      | 4, y :: _ when y > 0.0 -> Float.pred y
      | 5, y :: _ when Float.succ y < length -> Float.succ y
      | _ -> fresh ()
    in
    xs := x :: !xs;
    x
  in
  let vehicle id =
    let length = if R.bool rng then 4.5 else R.uniform rng 2.0 12.0 in
    Highway.Vehicle.make ~id ~x:(position ()) ~lane:(R.int rng num_lanes)
      ~speed:(R.uniform rng 0.0 40.0) ~desired_speed:(R.uniform rng 5.0 40.0)
      ~length ()
  in
  let others = List.init n (fun i -> vehicle (i + 1)) in
  let ego = vehicle 0 in
  let scene = Highway.Scene.make road ~ego ~others in
  (* References: every scene vehicle, MOBIL's lane-changed copies of
     them, and vehicles that are not in the scene. *)
  let all = ego :: others in
  let moved =
    List.concat_map
      (fun (v : Highway.Vehicle.t) ->
        List.filter_map
          (fun lane ->
            if lane = v.Highway.Vehicle.lane then None
            else Some { v with Highway.Vehicle.lane })
          (List.init num_lanes Fun.id))
      (List.filteri (fun i _ -> i < 6) all)
  in
  let strangers = List.init 4 (fun i -> vehicle (1000 + i)) in
  (scene, all, moved @ strangers)

let same_vehicle a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b -> a == b
  | Some _, None | None, Some _ -> false

let prop_scene_queries_match_scan =
  QCheck.Test.make ~name:"scene queries match the linear scan" ~count:300
    (QCheck.make QCheck.Gen.(int_range 0 1_000_000))
    (fun seed ->
      let rng = Linalg.Rng.create seed in
      let scene, members, extra = random_scene rng in
      let road = scene.Highway.Scene.road in
      let lanes = List.init road.Highway.Road.num_lanes Fun.id in
      let check what ok =
        if not ok then QCheck.Test.fail_reportf "seed %d: %s differs" seed what
      in
      List.iter
        (fun r ->
          List.iter
            (fun lane ->
              check "leader"
                (same_vehicle (Highway.Scene.leader scene r ~lane)
                   (Ref.leader scene r ~lane));
              check "follower"
                (same_vehicle (Highway.Scene.follower scene r ~lane)
                   (Ref.follower scene r ~lane));
              check "alongside"
                (Highway.Scene.alongside scene r ~lane
                 = Ref.alongside scene r ~lane))
            lanes;
          List.iter
            (fun o ->
              check (Highway.Orientation.name o)
                (same_vehicle (Highway.Scene.neighbor_of scene r o)
                   (Ref.neighbor_of scene r o)))
            Highway.Orientation.all)
        (members @ extra);
      (* Off the road only [alongside] answers (it scans then). *)
      let length = road.Highway.Road.length in
      List.iter
        (fun x ->
          let r = Highway.Vehicle.make ~id:2000 ~x ~lane:0 ~speed:10.0 () in
          List.iter
            (fun lane ->
              check "off-road alongside"
                (Highway.Scene.alongside scene r ~lane
                 = Ref.alongside scene r ~lane))
            lanes)
        [ -1.0; -0.5 *. length; length; length +. 3.0; 2.5 *. length ];
      check "min gap"
        (bits (Highway.Scene.min_gap_to_any scene)
         = bits (Ref.min_gap_to_any scene));
      let p = Highway.Mobil.default and idm = Highway.Idm.default in
      List.iter
        (fun v ->
          List.iter
            (fun target_lane ->
              let d = Highway.Mobil.evaluate p idm scene v ~target_lane in
              let e = Ref.evaluate p idm scene v ~target_lane in
              check "MOBIL evaluate"
                (d.Highway.Mobil.safe = e.Highway.Mobil.safe
                 && bits d.Highway.Mobil.incentive
                    = bits e.Highway.Mobil.incentive))
            (-1 :: road.Highway.Road.num_lanes :: lanes);
          check "MOBIL decide"
            (Highway.Mobil.decide p idm scene v = Ref.decide p idm scene v))
        members;
      true)

(* {1 Golden recordings}

   Digests of every bit a recording hands on: each feature, action and
   risky flag of [Recorder.record]. They were captured before the
   simulator step shared its IDM terms, so a faster step must leave
   every one of them as it is. The first is the pinned corpus the
   benchmark's models and rank tables are built from. *)

let recording_digest (samples : Highway.Recorder.sample array) =
  let b = Buffer.create (Array.length samples * 700) in
  let add x = Buffer.add_int64_le b (Int64.bits_of_float x) in
  Array.iter
    (fun (s : Highway.Recorder.sample) ->
      Array.iter add s.Highway.Recorder.features;
      add s.Highway.Recorder.lat_velocity;
      add s.Highway.Recorder.lon_accel;
      Buffer.add_char b (if s.Highway.Recorder.ground_truth_risky then 'r' else 's'))
    samples;
  Digest.to_hex (Digest.string (Buffer.contents b))

let golden_recordings =
  let open Highway in
  [
    ( "pinned: seed 7, Risky 0.25, 1500 samples",
      (fun () ->
        Recorder.record ~rng:(Linalg.Rng.create 7) ~style:(Policy.Risky 0.25)
          ~n_samples:1500 ()),
      "b67f4d20017ce064f6776525bf5ce9b8" );
    ( "Safe, 500 samples",
      (fun () ->
        Recorder.record ~rng:(Linalg.Rng.create 3) ~style:Policy.Safe
          ~n_samples:500 ()),
      "80ca38e24b957ded157e70a8d078bf36" );
    ( "Risky 0.5, 30 per lane",
      (fun () ->
        Recorder.record ~rng:(Linalg.Rng.create 5) ~style:(Policy.Risky 0.5)
          ~vehicles_per_lane:30 ~n_samples:400 ()),
      "721adecbf4a26a39d9fe09d1275ab988" );
    ( "4-lane 300 m ring, 40 per lane",
      (fun () ->
        Recorder.record ~rng:(Linalg.Rng.create 9) ~style:(Policy.Risky 0.25)
          ~road:(Road.make ~num_lanes:4 ~length:300.0 ())
          ~vehicles_per_lane:40 ~n_samples:300 ()),
      "161ac718ba85d687e449f2be481b2440" );
    ( "1 lane, 3 per lane",
      (fun () ->
        Recorder.record ~rng:(Linalg.Rng.create 13) ~style:(Policy.Risky 0.25)
          ~road:(Road.make ~num_lanes:1 ~length:1000.0 ())
          ~vehicles_per_lane:3 ~n_samples:300 ()),
      "7aafc75580618c505442fde72bb95393" );
  ]

let test_golden_recordings () =
  let moved =
    List.filter_map
      (fun (name, record, golden) ->
        let got = recording_digest (record ()) in
        if got = golden then None else Some (Printf.sprintf "%s: %S" name got))
      golden_recordings
  in
  if moved <> [] then
    Alcotest.failf "recordings moved; now:\n%s" (String.concat "\n" moved)

(* Random traffic for the step property: 1-4 lanes, lengths 2-12 m,
   vehicles level with one another in one lane or across lanes, pairs
   half a ring apart, neighbours one ulp apart, stopped vehicles and
   drivers with no desired speed. Ids are unique, as the simulator
   requires. *)
let random_traffic rng =
  let module R = Linalg.Rng in
  let num_lanes = 1 + R.int rng 4 in
  let length =
    if R.int rng 3 = 0 then float_of_int (20 * (5 + R.int rng 40))
    else R.uniform rng 100.0 1500.0
  in
  let road = Highway.Road.make ~num_lanes ~length () in
  let placed = ref [] in
  let vehicle id =
    let x, lane =
      match (R.int rng 8, !placed) with
      | 0, (x, lane) :: _ -> (x, lane)
      | 1, (x, _) :: _ -> (x, R.int rng num_lanes)
      | 2, (x, lane) :: _ -> (Highway.Road.wrap road (x +. (length /. 2.0)), lane)
      | 3, (x, lane) :: _ when x > 0.0 -> (Float.pred x, lane)
      | 4, _ -> (0.0, R.int rng num_lanes)
      | _ -> (R.float rng length, R.int rng num_lanes)
    in
    let x = if x >= length then Float.pred length else x in
    placed := (x, lane) :: !placed;
    let speed = if R.int rng 10 = 0 then 0.0 else R.uniform rng 0.0 40.0 in
    let desired_speed =
      if R.int rng 20 = 0 then 0.0 else R.uniform rng 5.0 40.0
    in
    Highway.Vehicle.make ~id ~x ~lane ~speed ~desired_speed
      ~length:(R.uniform rng 2.0 12.0) ()
  in
  let others = List.init (R.int rng 41) (fun i -> vehicle (i + 1)) in
  (road, vehicle 0, others)

let vehicle_bits (v : Highway.Vehicle.t) =
  ( (v.Highway.Vehicle.id, v.Highway.Vehicle.lane),
    List.map bits
      ([
         v.Highway.Vehicle.x;
         v.Highway.Vehicle.lat_offset;
         v.Highway.Vehicle.speed;
         v.Highway.Vehicle.accel;
         v.Highway.Vehicle.length;
         v.Highway.Vehicle.desired_speed;
       ]
      @ Array.to_list v.Highway.Vehicle.speed_history) )

let prop_step_matches_reference =
  QCheck.Test.make ~name:"simulator step matches the reference step"
    ~count:150
    (QCheck.make QCheck.Gen.(int_range 0 1_000_000))
    (fun seed ->
      let rng = Linalg.Rng.create seed in
      let road, ego, others = random_traffic rng in
      let sim = Highway.Simulator.create ~road ~ego ~others () in
      let oracle = Ref.Sim.create ~road ~ego ~others in
      (* Past two cooldowns, so vehicles change lanes again. *)
      for k = 1 to 45 do
        let ego_action =
          if Linalg.Rng.int rng 3 = 0 then None
          else
            Some
              {
                Highway.Policy.lat_velocity = Linalg.Rng.uniform rng (-3.0) 3.0;
                lon_accel = Linalg.Rng.uniform rng (-4.0) 2.0;
              }
        in
        Highway.Simulator.step sim ?ego_action ~dt:0.2 ();
        Ref.Sim.step oracle ?ego_action ~dt:0.2 ();
        let scene = Highway.Simulator.scene sim in
        let same =
          List.map vehicle_bits
            (scene.Highway.Scene.ego :: Array.to_list scene.Highway.Scene.others)
          = List.map vehicle_bits
              (oracle.Ref.Sim.ego :: Array.to_list oracle.Ref.Sim.others)
          && bits (Highway.Simulator.time sim) = bits oracle.Ref.Sim.clock
          && Highway.Simulator.collision_occurred sim = oracle.Ref.Sim.collided
        in
        if not same then QCheck.Test.fail_reportf "seed %d: step %d differs" seed k
      done;
      true)

(* Road.delta's fast path returns Float.rem's bits, edges included. *)
let prop_road_delta_matches_rem =
  QCheck.Test.make ~name:"delta matches the Float.rem form" ~count:500
    (QCheck.make QCheck.Gen.(int_range 0 1_000_000))
    (fun seed ->
      let rng = Linalg.Rng.create seed in
      let length = Linalg.Rng.uniform rng 1.0 3000.0 in
      let road = Highway.Road.make ~length () in
      let pick () =
        match Linalg.Rng.int rng 7 with
        | 0 -> 0.0
        | 1 -> Float.pred length
        | 2 -> length
        | 3 -> -.length
        | 4 -> length /. 2.0
        | 5 -> Linalg.Rng.uniform rng (-3.0 *. length) (3.0 *. length)
        | _ -> Linalg.Rng.float rng length
      in
      List.for_all
        (fun _ ->
          let a = pick () and b = pick () in
          bits (Highway.Road.delta road a b) = bits (Ref.delta road a b))
        (List.init 20 Fun.id))

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run "highway"
    [
      ( "road",
        [
          quick "wrap" test_road_wrap;
          quick "delta" test_road_delta;
          quick "validation" test_road_validation;
        ] );
      ( "vehicle",
        [
          quick "gap" test_vehicle_gap;
          quick "history" test_vehicle_history;
          quick "negative speed" test_vehicle_negative_speed_rejected;
        ] );
      ( "idm",
        [
          quick "free road" test_idm_free_road;
          quick "equilibrium" test_idm_equilibrium;
          quick "brakes when closing" test_idm_brakes_when_closing;
          quick "monotone in gap" test_idm_monotone_in_gap;
        ] );
      ( "scene",
        [
          quick "neighbors" test_scene_neighbors;
          quick "off-road orientations" test_scene_off_road_orientations;
          quick "vehicle on left" test_scene_has_vehicle_on_left;
          quick "leader/follower" test_scene_leader_follower;
          quick "min gap" test_scene_min_gap;
          quick "invalid lane" test_scene_invalid_lane_rejected;
        ] );
      ( "mobil",
        [
          quick "blocked alongside" test_mobil_blocked_by_alongside;
          quick "invalid lane" test_mobil_invalid_lane;
          quick "overtake incentive" test_mobil_incentive_for_overtake;
          quick "no pointless change" test_mobil_no_pointless_change;
        ] );
      ( "features",
        [
          quick "dim and names" test_features_dim_and_names;
          quick "known scene" test_features_encode_known_scene;
          slow "domain membership" test_features_in_domain_for_simulated_scenes;
          quick "block layout" test_features_orientation_blocks_disjoint;
        ] );
      ( "simulator",
        [
          slow "no collisions" test_simulator_no_collisions_safe_traffic;
          quick "time" test_simulator_time_advances;
          quick "ego lane change" test_simulator_ego_lane_change_via_action;
          quick "stays on road" test_simulator_ego_stays_on_road;
          quick "duplicate ids" test_simulator_rejects_duplicate_ids;
        ] );
      ( "policy/recorder/risk",
        [
          slow "safe never risky" test_policy_safe_never_risky;
          slow "risky contaminates" test_recorder_risky_style_contaminates;
          quick "sample shape" test_recorder_sample_count_and_dim;
          quick "risk predicates" test_risk_predicates;
          quick "golden recordings" test_golden_recordings;
        ] );
      ( "render",
        [
          quick "scene" test_render_scene;
          quick "action distribution" test_render_action_distribution;
          quick "side by side" test_render_side_by_side;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_road_delta_antisymmetric;
            prop_road_delta_range;
            prop_road_delta_matches_rem;
            prop_road_wrap_range;
            prop_scene_queries_match_scan;
            prop_step_matches_reference;
          ] );
    ]
