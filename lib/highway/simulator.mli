(** Closed-loop traffic simulation.

    Surrounding vehicles follow IDM longitudinally and MOBIL for lane
    changes; the ego vehicle is driven by externally supplied actions
    (usually from {!Policy} during data collection, or from a trained
    predictor during evaluation). *)

type t

val create : ?road:Road.t -> ego:Vehicle.t -> others:Vehicle.t list -> unit -> t
(** Raises [Invalid_argument] as {!Scene.make} does: every vehicle must
    be in a valid lane at a position in [\[0, length)]. *)

val spawn :
  rng:Linalg.Rng.t ->
  ?road:Road.t ->
  ?vehicles_per_lane:int ->
  unit ->
  t
(** Random but collision-free initial traffic: vehicles are spaced at
    IDM equilibrium gaps with jitter; desired speeds increase towards
    the left lanes. The ego starts in a middle lane. *)

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
    lane width commits the lane change. *)

val run : t -> ?controller:(Scene.t -> Policy.action) -> dt:float -> steps:int -> unit -> unit

val collision_occurred : t -> bool
(** True if any same-lane bumper gap has ever been negative since
    creation (monitored at every step). *)
