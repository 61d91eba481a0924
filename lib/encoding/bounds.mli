(** Interval bound propagation through a network.

    Sound per-neuron pre-activation bounds over an input box. These
    bounds serve two purposes in the MILP encoding (Cheng, Nührenberg &
    Rueß, ATVA 2017): they decide which ReLU neurons are {e stable}
    (provably active or inactive on the whole box, hence encodable
    without a binary variable), and they provide the tight per-neuron
    big-M constants that make the relaxation strong. *)

type t = {
  pre : Interval.t array array;
      (** pre-activation interval per layer and neuron *)
  post : Interval.t array array;  (** post-activation intervals *)
}

val propagate : Nn.Network.t -> Interval.Box.box -> t
(** Raises [Invalid_argument] if the box dimension differs from the
    network input dimension. *)

type stability = Stable_active | Stable_inactive | Unstable

val relu_stability : Interval.t -> stability

val count_unstable : Nn.Network.t -> t -> int
(** Number of hidden ReLU neurons whose sign is not decided by the
    bounds (= number of binaries the encoder will create). *)

val stability_counts : Nn.Network.t -> t -> int * int * int
(** [(stable_active, stable_inactive, unstable)] over all hidden ReLU
    neurons — the per-bound-mode breakdown the CLI prints so the
    binary-count reduction of a tighter analysis is visible. *)
