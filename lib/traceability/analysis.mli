(** Pillar A — fine-grained neuron-to-feature traceability.

    The paper (Sec. II (A)): "One should provide confidence regarding
    the meaning of a neural network by associating individual neurons
    with conditions (features) when it can be activated."

    The analysis runs a probe dataset through the network and, for every
    hidden neuron, derives (1) its activation behaviour (how often, how
    strongly) and (2) the input features whose values are most
    predictive of its activation — Pearson correlation between the
    feature and the neuron pre-activation, plus, for binary features, the
    activation lift P(active | f=1) / P(active | f=0). The resulting
    table is the certification artefact that stands in for
    requirement-to-code traceability. *)

type association = {
  feature : int;
  feature_name : string;
  correlation : float;       (** feature value vs pre-activation *)
  lift : float option;
      (** activation-rate ratio for binary features, [None] otherwise *)
}

type neuron_profile = {
  layer : int;
  neuron : int;
  activation_rate : float;   (** fraction of probe inputs with output > 0 *)
  mean_activation : float;
  top : association list;    (** strongest associations, descending *)
}

type t = {
  profiles : neuron_profile array;
  n_probes : int;
  dead : (int * int) list;       (** never-activating neurons *)
  saturated : (int * int) list;  (** always-activating neurons *)
}

val analyze :
  ?top_k:int ->
  ?feature_names:string array ->
  Nn.Network.t ->
  Linalg.Vec.t array ->
  t
(** [analyze net probes]. [top_k] defaults to 3. Feature names default
    to ["x<i>"]. Raises [Invalid_argument] on an empty probe set or
    dimension mismatch. *)

val traceable_fraction : t -> float
(** Fraction of (live) neurons with at least one association of
    magnitude >= 0.3 — the headline number quoted in the certification
    report. The paper's own conclusion is that understandability "can
    only be partially achieved"; this is the quantified version. *)

val render : ?max_neurons:int -> t -> string
