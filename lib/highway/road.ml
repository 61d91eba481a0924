type t = {
  num_lanes : int;
  lane_width : float;
  length : float;
  speed_limit : float;
  friction : float;
  curvature : float;
}

let make ?(num_lanes = 3) ?(length = 2000.0) () =
  if num_lanes < 1 then invalid_arg "Road.make: need at least one lane";
  if length <= 0.0 then invalid_arg "Road.make: non-positive length";
  { num_lanes; lane_width = 3.5; length; speed_limit = 36.1; friction = 1.0;
    curvature = 0.0 }

let default = make ()

(* [Float.rem x length] is [x] itself for [|x| < length], so both
   functions skip the call there and keep every bit of their result. *)
let wrap t x =
  if x >= 0.0 && x < t.length then x
  else begin
    let r = Float.rem x t.length in
    if r < 0.0 then begin
      (* A remainder closer to 0 than half an ulp of [length] rounds
         [r +. length] up to [length], the same point as 0. *)
      let w = r +. t.length in
      if w < t.length then w else 0.0
    end
    else r
  end

let delta t a b =
  let s = a -. b in
  let d = if Float.abs s < t.length then s else Float.rem s t.length in
  let d = if d < 0.0 then d +. t.length else d in
  if d >= t.length /. 2.0 then d -. t.length else d

let valid_lane t lane = lane >= 0 && lane < t.num_lanes
