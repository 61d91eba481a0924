(** MOBIL lane-change model (Kesting, Treiber & Helbing 2007):
    "Minimising Overall Braking Induced by Lane changes". A change to a
    target lane is accepted when it is {e safe} (the new follower is not
    forced to brake harder than [safe_brake]) and {e beneficial} (the
    acceleration advantage, politeness-weighted over affected
    followers, exceeds [threshold]). *)

type params = {
  politeness : float;      (** p, weight of other drivers' advantage *)
  threshold : float;       (** a_thr, m/s^2 *)
  safe_brake : float;      (** b_safe, maximum imposed deceleration, m/s^2 *)
  keep_right_bias : float; (** additional incentive for right changes *)
}

val default : params

type decision = { safe : bool; incentive : float }

val evaluate :
  params -> Idm.params -> Scene.t -> Vehicle.t -> target_lane:int -> decision
(** Assess a change of [Vehicle.t] to [target_lane] in the scene. For an
    invalid lane, [safe = false]. *)

val decide : params -> Idm.params -> Scene.t -> Vehicle.t -> int option
(** Preferred lane change for the vehicle ([Some target_lane]), if any.
    Left changes are evaluated before right changes; the keep-right bias
    enters the right-change incentive. *)

(** {2 Shared IDM terms}

    {!evaluate} and {!decide} run on a table of IDM terms over the
    scene's slots ({!Scene.size}), built for the call. {!Simulator.step}
    builds one table per step, over the snapshot every vehicle decides
    in, and shares it across the step. It holds two values per slot,
    each computed on first use: the vehicle's free-road term
    ({!Idm.free_road_accel}), which depends on its speeds only, and its
    acceleration behind its own-lane leader. These read it, each the
    same call on the same arguments as computing it afresh:
    - the step's own acceleration for a vehicle, and MOBIL's
      acceleration of the vehicle before its change: both are the
      vehicle behind {!Scene.leader} in its own lane;
    - the new follower's acceleration before the change: it is in the
      target lane, so its leader there is its own-lane leader;
    - the old follower's acceleration before the change, but only when
      its own-lane leader is physically the changing vehicle: with
      vehicles level at equal positions, or half a ring apart, it can
      be another one.
    Every other IDM call of MOBIL reads the follower's free-road term
    from the table ({!Idm.accel_from_free}). So a decision is the same,
    bit for bit, with a fresh table or a shared one. *)

type terms
(** A table over one scene, for one set of IDM parameters. *)

val terms : Idm.params -> Scene.t -> terms
(** An empty table: entries are computed on first use. *)

val accel : terms -> int -> float
(** The vehicle in a slot, accelerating behind its own-lane leader
    (free road without one): the IDM acceleration a simulator step
    gives it. *)

val decide_slot : params -> terms -> int -> int option
(** {!decide} for the vehicle in a slot of the table's scene. *)
