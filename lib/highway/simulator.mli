(** Closed-loop traffic simulation.

    Surrounding vehicles follow IDM longitudinally and MOBIL for lane
    changes; the ego vehicle is driven by externally supplied actions
    (usually from {!Policy} during data collection, or from a trained
    predictor during evaluation). *)

type t

val create : ?road:Road.t -> ego:Vehicle.t -> others:Vehicle.t list -> unit -> t
(** Raises [Invalid_argument] as {!Scene.make} does: every vehicle must
    be in a valid lane at a position in [\[0, length)]. Also raises it
    when two vehicles, the ego included, share an id: every scene query
    tells a vehicle from its reference by id, so a twin would be
    invisible to its own follower, which would drive through it with no
    collision flagged. *)

val spawn :
  rng:Linalg.Rng.t ->
  ?road:Road.t ->
  ?vehicles_per_lane:int ->
  unit ->
  t
(** Random initial traffic, [vehicles_per_lane] (default 6) to a lane.
    In every lane, vehicle [k] starts at [k * length / vehicles_per_lane]
    plus a uniform jitter of up to 30% of that spacing. The spacing
    takes no account of vehicle length, speed or IDM gaps, so the start
    is not guaranteed collision-free: on a 400 m ring with 30 vehicles
    per lane (rng seed 21), vehicles collide within the first ten
    coasting steps. In lane [l] (lane indices grow towards the left),
    speeds are drawn from N(24 + 4l, 2^2) m/s, at least 5 m/s, and
    desired speeds from N(26 + 4l, 2^2) m/s, at least 8 m/s. Traffic
    within 30 m of position 0 in the ego's lane is removed, and the ego
    starts there, in lane 1 (lane 0 on a one-lane road), at 28 m/s with
    a desired speed of 32 m/s. *)

val scene : t -> Scene.t
(** Current snapshot (ego perspective). Each step builds one scene, at
    its end: the collision monitor checks it, this function returns it
    to every caller without copying, and the next step queries the
    traffic through it. Like every scene it is read-only (see
    {!Scene}). *)

val time : t -> float
val ego : t -> Vehicle.t

val step : t -> ?ego_action:Policy.action -> dt:float -> unit -> unit
(** Advance the world by [dt] seconds. Traffic updates itself; the ego
    applies [ego_action] if given (otherwise it coasts with IDM behind
    the traffic as it has just moved, which takes a second scene, and
    never changes lanes). Ego lateral movement is continuous: the
    commanded lateral velocity shifts [lat_offset], and crossing half a
    lane width commits the lane change.

    Every traffic vehicle accelerates behind its own-lane leader and
    decides with MOBIL in the snapshot the step starts from; a vehicle
    that changed lanes may change again 4 s later. The step builds one {!Mobil.terms} table over
    that snapshot, so each vehicle's free-road term and its acceleration
    behind its own-lane leader are computed once and read by its own
    update and by every MOBIL decision that weighs it (see {!Mobil}):
    each read is the same call on the same arguments, so the step is
    bit-identical to one that computes every term afresh. *)

val run : t -> ?controller:(Scene.t -> Policy.action) -> dt:float -> steps:int -> unit -> unit

val collision_occurred : t -> bool
(** True if any same-lane bumper gap has ever been negative since
    creation (monitored at every step). *)
