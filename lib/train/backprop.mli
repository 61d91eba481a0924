(** Reverse-mode gradients for fully-connected networks. *)

type grads = {
  dw : Linalg.Mat.t array;  (** per layer, same shape as the weights *)
  db : Linalg.Vec.t array;
}

val zero_like : Nn.Network.t -> grads
val accumulate : grads -> grads -> unit
(** [accumulate acc g] adds [g] into [acc]. *)

val scale_in_place : grads -> float -> unit
(** [scale_in_place g s] multiplies every entry by [s] in [g]'s own
    arrays ([s *. x] per entry, the same product an allocating scale
    computes). *)

val global_norm : grads -> float
(** L2 norm over all gradient entries (for clipping), summed layer by
    layer in ascending order: the bits do not depend on how the loop is
    written. *)

val gradient :
  ?hint:Hint.t ->
  Nn.Network.t ->
  loss:Loss.t ->
  x:Linalg.Vec.t ->
  target:Linalg.Vec.t ->
  float * grads
(** Loss value and parameter gradients for one sample. When [hint] is
    given, its penalty (and gradient) is added to the loss — the
    Sec. IV(iii) "training under known properties" mechanism. *)

val gradient_batch :
  ?hint:Hint.t ->
  Nn.Network.t ->
  loss:Loss.t ->
  xs:Linalg.Vec.t array ->
  targets:Linalg.Vec.t array ->
  float * grads
(** Summed loss value and summed parameter gradients over a minibatch,
    computed with one batched forward/backward sweep. The matrix
    products accumulate over samples in ascending order, so the result
    is bit-equal to folding {!gradient} over the samples with
    {!accumulate} (the caller scales by the batch size, as before).
    An empty batch returns [(0.0, zero_like net)]. *)

val numeric_gradient :
  Nn.Network.t ->
  loss:Loss.t ->
  x:Linalg.Vec.t ->
  target:Linalg.Vec.t ->
  layer:int ->
  row:int ->
  col:int ->
  eps:float ->
  float
(** Central finite difference of the loss w.r.t. one weight — the test
    oracle for {!gradient}. [col = -1] addresses the bias entry [row]. *)
