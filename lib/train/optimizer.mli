(** First-order optimisers. The step mutates the network in place. *)

type t =
  | Sgd of { lr : float; momentum : float }
  | Adam of { lr : float; beta1 : float; beta2 : float; eps : float }

val sgd : ?momentum:float -> float -> t
(** [sgd lr] (momentum defaults to 0.9). *)

val adam : ?beta1:float -> ?beta2:float -> ?eps:float -> float -> t
(** [adam lr] with the usual defaults (0.9, 0.999, 1e-8). *)

type state = private {
  m : Backprop.grads;  (** SGD velocity, or Adam's first moment *)
  v : Backprop.grads;  (** Adam's second moment (unused by SGD) *)
  mutable step_count : int;
}

val init : t -> Nn.Network.t -> state

val step : t -> state -> Nn.Network.t -> Backprop.grads -> unit
(** One update of every weight and bias, one flat loop per parameter
    array. Each parameter gets the same arithmetic as the textbook
    per-weight rule (SGD: [v <- momentum*v - lr*g; w <- w + v]; Adam
    with bias correction), so runs are bit-identical to a per-weight
    implementation; the test suite keeps one as its reference.
    [grads] must have the network's shape. *)

val name : t -> string
