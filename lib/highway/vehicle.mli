(** Vehicle state. *)

type t = {
  id : int;
  x : float;             (** longitudinal position along the road, m *)
  lane : int;            (** 0 = rightmost *)
  lat_offset : float;    (** lateral offset within the lane, m (left positive) *)
  speed : float;         (** m/s, non-negative *)
  accel : float;         (** current longitudinal acceleration, m/s^2 *)
  length : float;        (** m *)
  desired_speed : float; (** m/s *)
  speed_history : float array;
      (** most recent first; fixed length {!history_length} *)
}

val history_length : int
(** Number of past speeds kept (4). *)

val make :
  id:int ->
  x:float ->
  lane:int ->
  speed:float ->
  ?length:float ->
  ?desired_speed:float ->
  unit ->
  t
(** A vehicle centred in its lane and not accelerating.
    [desired_speed] defaults to [speed]; [length] to 4.5 m. The speed
    history is filled with [speed]. *)

val push_history : t -> t
(** Record the current speed at the head of the history. *)

val gap : Road.t -> follower:t -> leader:t -> float
(** Bumper-to-bumper longitudinal gap (can be negative when
    overlapping). *)
