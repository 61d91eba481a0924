let vehicle_on_left_name = "vehicle-on-left"

let canonical_reference () =
  let rng = Linalg.Rng.create 424242 in
  let sim = Highway.Simulator.spawn ~rng () in
  (* Let traffic settle so the encoding is a plausible mid-traffic scene. *)
  Highway.Simulator.run sim ~dt:0.2 ~steps:40 ();
  Highway.Features.encode (Highway.Simulator.scene sim)

let clip_to_domain i feature_index =
  match Interval.intersect i Highway.Features.domain.(feature_index) with
  | Some j -> j
  | None -> Highway.Features.domain.(feature_index)

let around reference slack =
  Array.mapi
    (fun i x -> clip_to_domain (Interval.make (x -. slack) (x +. slack)) i)
    reference

let left_base = Highway.Features.orientation_base Highway.Orientation.Left

let set box index interval = box.(index) <- clip_to_domain interval index

let common_ego_constraints box =
  let open Highway.Features in
  (* Highway speeds; not in the leftmost lane so a left move exists. *)
  set box ego_speed (Interval.make (norm_speed 20.0) (norm_speed 36.0));
  set box road_is_leftmost (Interval.point 0.0);
  set box road_lanes_left (Interval.make 0.25 1.0)

let vehicle_on_left ?(slack = 0.05) ?reference () =
  let reference =
    match reference with Some r -> r | None -> canonical_reference ()
  in
  let box = around reference slack in
  common_ego_constraints box;
  let open Highway.Features in
  set box (left_base + presence_offset) (Interval.point 1.0);
  let max_gap = norm_distance 15.0 in
  set box (left_base + gap_offset) (Interval.make (-.max_gap) max_gap);
  set box
    (left_base + rel_distance_offset)
    (Interval.make
       (-.norm_distance Highway.Scene.alongside_window)
       (norm_distance Highway.Scene.alongside_window));
  set box (left_base + speed_offset) (Interval.make 0.4 1.0);
  set box (left_base + rel_speed_offset) (Interval.make (-0.5) 0.5);
  set box (road_base + 11) (Interval.point 1.0);
  box

let free_left ?(slack = 0.05) ?reference () =
  let reference =
    match reference with Some r -> r | None -> canonical_reference ()
  in
  let box = around reference slack in
  common_ego_constraints box;
  let open Highway.Features in
  set box (left_base + presence_offset) (Interval.point 0.0);
  set box (left_base + gap_offset) (Interval.point 1.0);
  set box (road_base + 11) (Interval.point 1.0);
  box

let concretize box point =
  let result = ref [] in
  Array.iteri
    (fun i x ->
      let iv = box.(i) in
      if Interval.width iv < 0.2 then
        result := (Highway.Features.names.(i), x) :: !result)
    point;
  List.rev !result
