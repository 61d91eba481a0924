(** Operational scenarios phrased as feature-space boxes.

    The case-study scenario — "there exists a vehicle in the lane
    directly to the left of the ego vehicle" — pins the corresponding
    presence/gap features and leaves a controlled amount of slack on
    everything else. The slack radius trades verification completeness
    against tractability: the paper's own Table II shows the cost
    exploding with network size even on a 12-core VM. *)

val vehicle_on_left :
  ?slack:float ->
  ?reference:Linalg.Vec.t ->
  unit ->
  Interval.Box.box
(** An 84-dimensional box in which:
    - the left slot is occupied ([left.present = 1]) within 15 metres;
    - the ego is not in the leftmost lane (a left move is geometrically
      possible);
    - the ego drives at highway speed (20–36 m/s);
    - every other feature ranges in [reference ± slack] (clipped to the
      feature domain). [reference] defaults to a canonical mid-traffic
      scene encoding; [slack] defaults to 0.05 (normalised units). *)

val vehicle_on_left_name : string

val free_left : ?slack:float -> ?reference:Linalg.Vec.t -> unit -> Interval.Box.box
(** The complementary scenario (left slot empty) used by examples. *)

val canonical_reference : unit -> Linalg.Vec.t
(** Encoding of a deterministic mid-traffic scene (fixed seed). *)

val concretize :
  Interval.Box.box -> Linalg.Vec.t -> (string * float) list
(** Describe a feature point of a box in physical terms: list of
    (feature name, raw value) for the features the scenario pinned away
    from the reference. Used to render counterexamples. *)
