(** Deterministic, seeded fault models over networks and inputs.

    The verifier proves properties of the {e trained} network; this
    module models the faults that arrive after certification — IEEE-754
    bit flips in weights and biases, stuck neurons, parameter drift, and
    feature-level sensor faults on the 84-d input vector — so the
    campaign runner ({!Campaign}) can measure how the runtime guard
    degrades under them (cf. Cheng et al., "Maximum Resilience of
    Artificial Neural Networks", ATVA 2017, and nn-dependability-kit,
    arXiv:1811.06746).

    Every fault is a plain value: injecting the same fault into the same
    network is deterministic (drift carries its own seed), and
    {!sample} draws faults from a seeded {!Linalg.Rng.t}, so whole
    campaigns are bit-reproducible from one integer seed. *)

type stuck_mode =
  | Stuck_zero        (** neuron output pinned to 0 (dead neuron) *)
  | Stuck_saturation  (** neuron output pinned to {!saturation_level} *)

val saturation_level : float
(** Activation value a [Stuck_saturation] neuron emits (100.0 —
    far outside any verified envelope, finite so it models a stuck
    amplifier rather than a NaN). *)

type network_fault =
  | Weight_bit_flip of { layer : int; row : int; col : int; bit : int }
      (** flip bit [bit] (0 = LSB of the mantissa, 63 = sign) of the
          IEEE-754 representation of one weight *)
  | Bias_bit_flip of { layer : int; row : int; bit : int }
  | Stuck_neuron of { layer : int; neuron : int; mode : stuck_mode }
  | Weight_drift of { seed : int; sigma : float }
      (** add seeded Gaussian noise N(0, sigma^2) to every parameter *)

type input_fault =
  | Sensor_dropout of { feature : int }
      (** the feature reads as 0 (sensor offline) *)
  | Sensor_freeze of { feature : int }
      (** the feature holds the first value seen (frozen sensor) *)
  | Stale_hold of { feature : int; lag : int }
      (** the feature is delivered [lag] samples late (stale bus) *)

type t =
  | Network_fault of network_fault
  | Input_fault of input_fault

val describe : t -> string
(** Human-readable description; input faults are named via the
    traceability table ({!Highway.Features.names}) when the feature
    index is one of the 84 named predictor inputs. *)

(** {1 Injection} *)

val flip_bit : bit:int -> float -> float
(** Flip one bit of the IEEE-754 double representation. Involutive:
    [flip_bit ~bit (flip_bit ~bit x) = x]. *)

val inject : network_fault -> Nn.Network.t -> Nn.Network.t
(** Returns a faulted deep copy; the argument network is never mutated.
    Raises [Invalid_argument] if the fault's coordinates do not exist in
    the network. A single-site fault writes its {!site}; a drift adds
    one Gaussian from its own seeded stream to every parameter, layer by
    layer, the weights in row-major order and then the biases. *)

type site = {
  layer : int;
  row : int;  (** the neuron: a row of the layer's weight matrix *)
  weights : Linalg.Vec.t;  (** that row's faulted incoming weights *)
  bias : float;  (** its faulted bias *)
}
(** The one neuron a single-site fault changes. *)

val site : network_fault -> Nn.Network.t -> site option
(** [site f net] is the neuron [f] changes, with its faulted weights
    and bias: exactly the row {!inject} writes into its copy, and
    nothing else of the network differs. [Some] for [Weight_bit_flip],
    [Bias_bit_flip] and [Stuck_neuron]; [None] for [Weight_drift], which
    moves every parameter. Copies nothing but the row. Raises
    [Invalid_argument] as {!inject} does. *)

type input_channel
(** Stateful corruptor over a stream of input vectors (freeze and stale
    faults need memory of previous samples). *)

val input_channel : input_fault -> input_channel
val corrupt : input_channel -> Linalg.Vec.t -> Linalg.Vec.t
(** Returns a corrupted copy; the argument vector is never mutated.
    Out-of-range feature indices leave the vector unchanged. *)

(** {1 Seeded sampling} *)

val sample : rng:Linalg.Rng.t -> Nn.Network.t -> t
(** Draw one fault, uniformly over the fault kinds and uniformly over
    valid coordinates for the given network (input faults draw their
    feature index from the network's input dimension). Equal RNG states
    yield equal faults. *)
