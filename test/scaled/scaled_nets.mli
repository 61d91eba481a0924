(** Random 84-8-8 ReLU networks with a three-component GMM head whose
    weight matrices are scaled by a power of ten. Their LPs are badly
    scaled enough that the sparse LP core leaves some unconcluded, which
    is what the reproduction property in [test_verify] and the CI step
    exercise: a settled verdict on them must still be right. *)

val components : int
(** GMM components of the head: 3, as the CLI asks. *)

val net : seed:int -> exponent:int -> Nn.Network.t
(** [Nn.Network.create ~rng:(Linalg.Rng.create seed) [84; 8; 8; 15]]
    with every weight matrix scaled by [10^exponent]; biases unscaled. *)

val box : unit -> Interval.Box.box
(** The CLI's scenario box: [Verify.Scenario.vehicle_on_left ~slack:0.03]. *)

val threshold : Nn.Network.t -> float
(** Half the box centre's component-0 lateral mean. *)
