(** Feedforward networks (multilayer perceptrons).

    The paper's motion predictors are written I4×n: 84 inputs, four
    hidden ReLU layers of width n, and a linear output head whose
    entries parameterise a Gaussian mixture (see {!Gmm}). *)

type t = { layers : Layer.t array }

val make : Layer.t array -> t
(** Checks that consecutive layer dimensions agree. *)

val input_dim : t -> int
val output_dim : t -> int
val num_layers : t -> int
val num_hidden_neurons : t -> int
(** Total neuron count over hidden (non-final) layers. *)

val num_params : t -> int
val layer : t -> int -> Layer.t

val forward : t -> Linalg.Vec.t -> Linalg.Vec.t

type trace = {
  pre : Linalg.Vec.t array;   (** pre-activations per layer *)
  post : Linalg.Vec.t array;  (** activations per layer; [post.(last)] is the output *)
}

val forward_trace : t -> Linalg.Vec.t -> trace

(** {1 Batched inference}

    Batch matrices hold one sample per column ([input_dim x batch]).
    Column [j] of [forward_batch t x] is bit-equal to
    [forward t (Mat.col x j)]: the blocked kernel accumulates in the
    same order as the scalar path and the vectorised activations apply
    the same formulas (the qcheck parity matrix in [test_nn] checks
    every activation at every bench width). *)

val forward_batch : t -> Linalg.Mat.t -> Linalg.Mat.t
(** Raises [Invalid_argument] if [Mat.rows x <> input_dim t]. A
    zero-column batch returns a zero-column result. *)

val chunk_width : int
(** The most columns one packed product takes when a loop feeds many
    inputs through the batched kernel (128): wide enough to amortise
    packing, narrow enough that the widest bench layer's working set
    stays in L2 (EXPERIMENTS.md's batch-512 rows show the spill).
    {!forward_each}, the guard's batched prediction and the fault
    campaign's replays all chunk at this width. *)

val forward_each : t -> Linalg.Vec.t array -> (Linalg.Vec.t, exn) result array
(** [forward_each t xs] is [forward t x] for every [x] in [xs], in
    order, with a raised exception kept as [Error]: the chunked loop
    over {!forward_batch} behind the guard's batched prediction.
    Inputs go {!chunk_width} columns at a time. A chunk whose batched
    forward raises, or an input set containing any vector of the wrong
    length, runs the scalar {!forward} one input at a time, so each
    result is bit-equal to [forward t x] (or its exception). [[||]]
    gives [[||]]. *)

type batch_trace = {
  pres : Linalg.Mat.t array;   (** pre-activations per layer *)
  posts : Linalg.Mat.t array;  (** activations; [posts.(last)] is the output *)
}

val forward_trace_batch : t -> Linalg.Mat.t -> batch_trace

val architecture : t -> int list
(** Dimensions [input; hidden...; output]. *)

val describe : t -> string
(** e.g. ["I4x20 (84-20-20-20-20-30, relu)"]-style human summary. *)

val copy : t -> t

(** {1 Construction} *)

val create :
  rng:Linalg.Rng.t ->
  ?hidden_activation:Activation.t ->
  int list ->
  t
(** [create ~rng dims] builds a network with the given layer dimensions
    ([dims = [input; h1; ...; output]], at least two entries) and
    He-initialised weights. Hidden activation defaults to [Relu]; the
    output layer is linear. *)

val i4xn :
  rng:Linalg.Rng.t ->
  ?output_dim:int ->
  ?hidden_activation:Activation.t ->
  int ->
  t
(** [i4xn ~rng n] is the paper's I4×n architecture: 84 inputs (the
    highway feature vector), four hidden layers of width [n], linear
    output of [output_dim] (default {!Gmm.output_dim} for 3
    components). *)
