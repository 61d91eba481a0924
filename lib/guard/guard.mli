(** Runtime safety monitor for the motion predictor.

    The verifier proves an envelope offline ("the suggested lateral
    velocity never exceeds [u] on the scenario box"); this module turns
    that proven bound into a runtime assertion and makes the prediction
    path degrade gracefully instead of crashing or silently violating
    the envelope when faults arrive after certification — bit flips in
    weights, stuck neurons, frozen sensors (the gap nn-dependability-kit
    style runtime monitors target).

    Every prediction is classified into one of three typed states:

    - [Nominal]: the network output is finite and inside the envelope;
      it is returned unchanged.
    - [Clamped]: the lateral velocity exceeds the envelope by at most
      the clamp band; it is saturated to the envelope and returned.
    - [Fallback]: the output is NaN/Inf, wildly out of envelope, or the
      forward pass raised — the physics-based fallback predictor
      (constant-lane IDM extrapolation) supplies the action instead.

    The guard never raises and always returns finite actions, whatever
    the state of the wrapped network or the input vector. *)

(** {1 Envelope} *)

type envelope = {
  lat_limit : float;
      (** proven upper bound on the suggested lateral velocity (m/s);
          any prediction above it trips the monitor *)
  output_limit : float;
      (** sanity bound on action magnitudes (m/s, m/s^2): beyond this
          the output is treated as corrupted rather than clampable *)
  components : int;  (** GMM components of the predictor's head *)
}

val envelope : components:int -> lat_limit:float -> unit -> envelope
(** The envelope's [output_limit] is 20. Raises [Invalid_argument] if
    [lat_limit] is not finite. *)

val envelope_of_verification :
  components:int -> ?threshold:float -> Verify.Driver.max_result -> envelope
(** Derive the runtime envelope from a verification run: the proven
    [upper_bound] becomes [lat_limit]. [threshold] (e.g. the 1.5 m/s
    property limit), when given, caps the envelope from above — useful
    when the bound is loose because the solve timed out. Falls back to
    [output_limit] when the verifier produced no finite bound. *)

(** {1 Monitor} *)

type state = Nominal | Clamped | Fallback

val state_name : state -> string

(** Why the monitor last left [Nominal]. *)
type trip =
  | Non_finite_output of { index : int }
      (** raw network output [index] was NaN or infinite *)
  | Envelope_exceeded of { lat : float; limit : float }
  | Output_out_of_range of { lat : float; lon : float; limit : float }
  | Forward_raised of { exn : string }

val trip_message : trip -> string

type diagnostics = {
  predictions : int;
  nominal : int;
  clamped : int;
  fallbacks : int;
  nan_trips : int;       (** NaN/Inf raw outputs detected *)
  envelope_trips : int;  (** envelope violations detected (clamped or not) *)
  exception_trips : int; (** exceptions caught from the forward pass *)
  last_trip : trip option;
}

type t

val make :
  envelope:envelope ->
  ?fallback:(Linalg.Vec.t -> float * float) ->
  Nn.Network.t ->
  t
(** Wrap a network. A lateral velocity at most 1.0 m/s (the clamp band)
    beyond [lat_limit] is saturated rather than handed to the fallback.
    [fallback] defaults to {!idm_fallback}. The guard reads but never
    mutates the network. *)

val network : t -> Nn.Network.t
val guard_envelope : t -> envelope

(** What one forward result says, before any envelope is applied: the
    decode the guard and the fault campaign's unguarded verdict share. *)
type reading =
  | Raised of exn
      (** the forward pass raised, or the output has the wrong length *)
  | Non_finite of int
      (** index of the first NaN/Inf raw output, or [-1] when every raw
          output is finite but the mixture mean or the worst component
          lateral mean is not (softmax overflow) *)
  | Finite of { lat : float; lon : float; worst_lat : float }
      (** the mixture mean action and the worst-case component lateral
          mean, all finite *)

val read : components:int -> (Linalg.Vec.t, exn) result -> reading
(** [read ~components result] decodes one forward result: the raw
    network output, or [Error e] for the exception [e] the forward pass
    raised. The mean is read with {!Nn.Gmm.mean_of_output}, whose length
    check runs first, so a wrong-length output reads as [Raised]. Never
    raises. *)

val classify : t -> Linalg.Vec.t -> reading -> (float * float) * state
(** [classify t x reading] classifies one reading for input [x]:
    [Raised] is a [Fallback] counted in [exception_trips] (with
    [last_trip] set to [Forward_raised]), [Non_finite] a [Fallback]
    counted in [nan_trips], and [Finite] is checked against the sanity
    range, then the envelope and its clamp band. It updates the counters
    exactly as {!predict} would for the same output, and uses [x] only
    for the fallback. This lets a caller that already holds the
    network's outputs (the fault campaign, which also reads them
    unguarded) guard them without a second forward or a second decode.
    Never raises; both action components are always finite. *)

val predict : t -> Linalg.Vec.t -> (float * float) * state
(** [(lat, lon), state]: the (possibly clamped or fallback) action mean,
    {!classify} of the {!read} of the scalar forward. Never raises;
    both action components are always finite. *)

val predict_batch : t -> Linalg.Vec.t array -> ((float * float) * state) array
(** [predict_batch t xs] is {!classify} of the {!read} of each result of
    [Nn.Network.forward_each] ({!Nn.Network.chunk_width} columns per
    chunk), in input order — results, counters and [last_trip] are
    identical to mapping {!predict}, at roughly an order of magnitude
    higher throughput. NaN/Inf cannot leak between samples: matrix
    columns are independent. Never raises. *)

val diagnostics : t -> diagnostics
val reset : t -> unit
(** Zero the counters and clear [last_trip]. *)

val render_diagnostics : diagnostics -> string

(** {1 Physics fallback} *)

val idm_fallback : Linalg.Vec.t -> float * float
(** Constant-lane extrapolation from the 84-d feature vector: lateral
    velocity 0, longitudinal acceleration from the IDM car-following law
    ({!Highway.Idm}) towards the front neighbour decoded from the
    feature blocks. Non-finite features are replaced by conservative
    defaults, so the result is finite for any input. *)
