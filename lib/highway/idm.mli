(** Intelligent Driver Model (Treiber et al. 2000) — the longitudinal
    car-following law used for surrounding traffic and as the
    longitudinal half of the expert policy. *)

type params = {
  max_accel : float;       (** a, m/s^2 *)
  comfortable_brake : float;  (** b, m/s^2, positive *)
  min_gap : float;         (** s0, m *)
  time_headway : float;    (** T, s *)
  exponent : float;        (** delta, usually 4 *)
}

val default : params

val free_road_accel : params -> speed:float -> desired_speed:float -> float
(** Acceleration with no leader. *)

val accel :
  params ->
  speed:float ->
  desired_speed:float ->
  gap:float ->
  leader_speed:float ->
  float
(** Full IDM acceleration towards a leader at bumper gap [gap]. The
    result is clamped to [\[-3*b, a\]] so a pathological (e.g. negative)
    gap yields an emergency braking value rather than -infinity. It is
    [accel_from_free] applied to [free_road_accel]. *)

val accel_from_free :
  params -> free:float -> speed:float -> gap:float -> leader_speed:float -> float
(** The interaction half of {!accel}: [free] must be
    [free_road_accel p ~speed ~desired_speed], and the result is then
    {!accel}'s, bit for bit, since it is the same operations in the
    same order. The free-road term depends on the follower only, so a
    caller that weighs one follower against several leaders (MOBIL)
    computes it once. *)

val equilibrium_gap : params -> speed:float -> float
(** The gap at which a vehicle following a same-speed leader neither
    accelerates nor brakes (used by tests and spawn logic). *)
