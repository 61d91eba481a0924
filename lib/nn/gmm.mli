(** Gaussian-mixture action head.

    The motion predictor outputs, for the ego vehicle, a probability
    distribution over actions characterised as a Gaussian mixture
    (paper, Sec. III). An action is two-dimensional: lateral velocity
    (positive = towards the left lane) and longitudinal acceleration.

    A network output vector of length [5K] is decoded as, in order:
    component logits (K), lateral means (K), longitudinal means (K),
    lateral log-stddevs (K), longitudinal log-stddevs (K). Keeping the
    means as raw affine outputs is what makes the safety property
    MILP-encodable: each component mean is a linear function of the last
    hidden layer. *)

type component = {
  weight : float;     (** mixture weight, softmax of the logit *)
  mu_lat : float;     (** mean lateral velocity, m/s *)
  mu_lon : float;     (** mean longitudinal acceleration, m/s^2 *)
  sigma_lat : float;
  sigma_lon : float;
}

type t = component array

val output_dim : components:int -> int
(** [5 * components]. *)

val decode : components:int -> Linalg.Vec.t -> t
(** Raises [Invalid_argument] if the vector length is not [5*components]. *)

val mean : t -> float * float
(** Mixture mean [(E lat, E lon)]. *)

val max_component_mu_lat : t -> float
(** Upper bound on the mixture's mean lateral velocity: the mixture mean
    is a convex combination of component means, so it is at most this. *)

(** {1 Decode-free readers}

    For callers that need only the mean: each reads the raw output
    vector directly and is {e bit-identical} to decoding first, for
    every input (NaN, infinities and softmax overflow included).
    {!decode} and {!mean_of_output} take their weights from one softmax
    (max-fold, [exp], sum, divide), and the weighted sums run from
    [0.0] in the same order as {!mean}; the readers skip the sigma
    [exp]s and the per-component records. One caveat: a NaN result is NaN on both paths, but when
    an operation meets two NaNs, which payload survives depends on the
    operand order the compiler picks for the machine instruction, so
    NaN payloads are not promised. A wrong-length vector raises the
    same [Invalid_argument] as {!decode}. *)

val mean_of_output : components:int -> Linalg.Vec.t -> float * float
(** [mean (decode ~components v)]. *)

val max_mu_lat_of_output : components:int -> Linalg.Vec.t -> float
(** [max_component_mu_lat (decode ~components v)]. *)

val density : t -> lat:float -> lon:float -> float
(** Mixture density at an action (diagonal Gaussians). *)

val log_likelihood : t -> lat:float -> lon:float -> float

val sample : t -> Linalg.Rng.t -> float * float

val responsibilities : t -> lat:float -> lon:float -> float array
(** Posterior component probabilities for an observed action. *)

(** {1 Output-vector index helpers (used by the MILP encoder)} *)

val logit_index : components:int -> int -> int
val mu_lat_index : components:int -> int -> int
val mu_lon_index : components:int -> int -> int
val log_sigma_lat_index : components:int -> int -> int
val log_sigma_lon_index : components:int -> int -> int

val nll_and_grad :
  components:int -> Linalg.Vec.t -> lat:float -> lon:float -> float * Linalg.Vec.t
(** Negative log-likelihood of the observed action under the decoded
    mixture, and its gradient with respect to the {e raw} network output
    vector (standard mixture-density-network gradients). Log-stddevs are
    clamped to [\[-4, 3\]] for numerical stability; the clamp is applied
    consistently in both the value and the gradient. *)
