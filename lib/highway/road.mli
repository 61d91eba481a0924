(** Road geometry and conditions.

    Roads are circular tracks (positions wrap at [length]); this gives
    stationary traffic without boundary effects, which is what the
    recorder needs to harvest i.i.d.-ish training scenes. Lane 0 is the
    rightmost lane; higher indices are further left (German convention,
    matching the paper's overtaking setting). *)

type t = {
  num_lanes : int;
  lane_width : float;   (** metres *)
  length : float;       (** circumference, metres *)
  speed_limit : float;  (** m/s *)
  friction : float;     (** 1.0 = dry, lower = slippery *)
  curvature : float;    (** 1/m, 0 = straight *)
}

val default : t
(** Three lanes, 3.5 m wide, 2 km ring, 130 km/h limit, dry. *)

val make : ?num_lanes:int -> ?length:float -> unit -> t
(** [num_lanes] (default 3) lanes 3.5 m wide on a straight, dry ring of
    [length] (default 2 km) metres, limited to 130 km/h. *)

val wrap : t -> float -> float
(** Normalise a longitudinal position into [\[0, length)]. Positions
    already in range come back unchanged; a negative position so close
    to a multiple of [length] that adding [length] would round up to
    [length] itself wraps to 0. *)

val delta : t -> float -> float -> float
(** [delta road a b] is the signed shortest longitudinal distance from
    [b] to [a] (positive when [a] is ahead of [b]), in
    [\[-length/2, length/2)]. *)

val valid_lane : t -> int -> bool
