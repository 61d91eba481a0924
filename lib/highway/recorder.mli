(** Data collection: run the simulator with the expert policy and
    harvest (scene features, expert action) pairs.

    This stands in for the real-world driving logs behind the paper's
    predictor. A [style] of [Risky p] contaminates the log the way a
    human corpus would be contaminated — those samples are flagged so
    tests can check the pillar-C sanitizer finds all of them without
    being told. *)

type sample = {
  features : Linalg.Vec.t;   (** 84-dim scene encoding *)
  lat_velocity : float;      (** expert action, m/s *)
  lon_accel : float;         (** expert action, m/s^2 *)
  ground_truth_risky : bool;
      (** whether this sample was generated by a risky manoeuvre
          (recorder-side label; the sanitizer must not peek) *)
}

val target_of_sample : sample -> Linalg.Vec.t
(** [(lat, lon)] training target. *)

val default_road : Road.t
(** A denser 1 km ring (vs {!Road.default}'s 2 km): at recording density
    (14 vehicles/lane) neighbour interactions — including
    vehicle-alongside scenes — are frequent enough to appear in the
    training distribution. *)

val record :
  rng:Linalg.Rng.t ->
  ?style:Policy.style ->
  ?road:Road.t ->
  ?vehicles_per_lane:int ->
  ?dt:float ->
  n_samples:int ->
  unit ->
  sample array
(** Simulate until [n_samples] scenes are collected (after 50 warm-up
    steps, sampling every third step). The expert's action is both
    recorded and applied to the ego, so the log covers the closed-loop
    distribution. *)
