(** A snapshot of the road: the ego vehicle plus surrounding traffic.

    A scene is immutable once built: only {!make} builds one, and it
    indexes the vehicles of each lane, sorted by position, for the
    neighbour queries. Callers must not mutate [others]: the queries
    read the index, which would no longer match it, and
    {!Simulator.scene} hands the same snapshot to every reader and to
    its own next step.

    Every query answers exactly as a linear scan over [others] in array
    order, then the ego, would: the nearest vehicle by the computed
    {!Road.delta} (with its sign convention), the earliest vehicle in
    that scan order on equal distances, and never the reference itself,
    matched by id, whether or not the reference is in the scene. So two
    vehicles sharing an id never see each other ({!Simulator.create}
    rejects them). *)

type index
(** Per lane, the vehicles sorted by position, equal positions in scan
    order. *)

type t = private {
  road : Road.t;
  ego : Vehicle.t;
  others : Vehicle.t array;
  index : index;
}

val make : Road.t -> ego:Vehicle.t -> others:Vehicle.t list -> t
(** Raises [Invalid_argument] if a vehicle is in an invalid lane or its
    position lies outside [\[0, length)] (see {!Road.wrap}). *)

(** {2 Slots}

    A slot numbers a vehicle of the scene: [others] in array order, then
    the ego, in the last slot. Slot order is the scan order above, so
    every tie is broken towards the lower slot. MOBIL's per-scene table
    ({!Mobil.terms}) is keyed by slot. *)

val size : t -> int
(** The number of slots: [Array.length others + 1]. *)

val vehicle : t -> int -> Vehicle.t
(** The vehicle in a slot (the very record the scene was made from). *)

val slot_of : t -> Vehicle.t -> int
(** The lowest slot holding this very record (physical equality), or
    -1 when the scene does not hold it: a copy, even an equal one, is
    not in the scene. *)

val leader_slot : t -> Vehicle.t -> lane:int -> int
(** {!leader}'s answer as a slot, -1 for none. *)

val follower_slot : t -> Vehicle.t -> lane:int -> int
(** {!follower}'s answer as a slot, -1 for none. *)

(** {2 Queries} *)

val alongside_window : float
(** Longitudinal half-window (m) within which a vehicle in an adjacent
    lane counts as "alongside" (orientation [Left]/[Right]) rather than
    front/back. *)

val neighbor : t -> Orientation.t -> Vehicle.t option
(** Nearest vehicle (by absolute longitudinal distance) in the given
    orientation relative to the ego, or [None]. Orientations pointing
    off the road (e.g. [Left] in the leftmost lane) are always [None]. *)

val neighbor_of : t -> Vehicle.t -> Orientation.t -> Vehicle.t option
(** Same but relative to an arbitrary vehicle of the scene (the ego is
    included among the candidates). *)

val leader : t -> Vehicle.t -> lane:int -> Vehicle.t option
(** Nearest vehicle strictly ahead in [lane] (smallest positive delta).
    Answered from the index in logarithmic time. The reference's
    position must lie in [\[0, length)]; raises [Invalid_argument]
    otherwise. *)

val follower : t -> Vehicle.t -> lane:int -> Vehicle.t option
(** Nearest vehicle strictly behind in [lane] (largest negative delta);
    same contract as {!leader}. *)

val alongside : t -> Vehicle.t -> lane:int -> bool
(** Is a vehicle other than the reference in [lane] within
    {!alongside_window} of it (bounds included)? MOBIL's blocked test.
    For a reference on the road, it bisects the lane and walks out from
    the reference and from both ends of the ring, each walk stopping at
    the first vehicle outside the window; the distance only grows along
    each walk, so the answer is the whole lane's. A reference off the
    road scans the lane. *)

val has_vehicle_on_left : ?window:float -> t -> bool
(** The safety-critical predicate of the paper's case study: is there a
    vehicle alongside in the lane directly to the ego's left?
    [window] defaults to {!alongside_window}. *)

val min_gap_to_any : t -> float
(** Smallest bumper gap between any same-lane pair (collision monitor:
    negative means overlap). Returns [infinity] when no pair shares a
    lane. Each follower walks its lane's sorted slots ahead of it and
    stops once a lower bound on the gap, computed with the lane's
    longest vehicle and rounded as the gap is, reaches the best gap so
    far; the bound only grows along the walk, so this is the minimum
    over every pair, bit for bit. *)
