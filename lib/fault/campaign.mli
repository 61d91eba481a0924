(** Fault-injection campaigns: inject N seeded faults, replay recorded
    scenes through the guarded faulted predictor, and report how the
    runtime monitor degraded.

    Per trial, one fault is drawn ({!Model.sample}) and injected, into
    the network or into the input stream for sensor faults, and every
    scene is replayed through the faulted predictor. Each scene's
    output is read once ({!Guard.read}) and that reading is classified
    twice: unguarded, and through a fresh {!Guard.t}
    ({!Guard.classify}). Together they classify the trial:

    - {e nan}: the unguarded faulted path delivered NaN/Inf to the
      actuator — raw network output non-finite, the mixture mean
      overflowed (softmax of huge logits), or the forward pass raised;
    - {e violation}: the raw worst-case component lateral velocity
      exceeded the verified envelope on some scene;
    - {e detected}: the guard left [Nominal] at least once;
    - {e silent}: undetected, but the guarded action deviates from the
      clean predictor's by more than 0.05 m/s — corruption the envelope
      monitor cannot see;
    - {e benign}: undetected and within tolerance.

    {2 Replaying only what a fault changes}

    [run] first makes one clean pass: the clean network over every
    scene, keeping each layer's activations (post-activation only) and
    each scene's clean classification (guarded action, state and
    unguarded verdict). A trial starts from those classifications and
    recomputes only the scenes its fault can change:

    - a single-site fault ([Weight_bit_flip], [Bias_bit_flip],
      [Stuck_neuron]) changes one row of one layer ({!Model.site}). That
      row is recomputed on every scene from the cached activations of
      the layer below, in the batched kernel's order (an ascending dot
      product from 0, then the bias, then the activation), and only the
      scenes whose value differs by bits go on through the layers above,
      from their cached columns with that row replaced;
    - a sensor fault corrupts every scene, in order (freeze and
      stale-hold channels are stateful), and only the scenes whose
      corrupted input differs from the clean one by bits are replayed
      through the whole network;
    - a weight drift moves every parameter, so every scene is replayed
      through the whole drifted network.

    Every other scene keeps its clean classification. The trial is
    tallied from the per-scene classifications in scene order, and
    [fallbacks] counts the scenes in [Fallback]. Each recomputed value
    is bit-equal to what a full forward of the faulted network would
    give (every element of a packed product depends only on its own row
    and column), so every trial field, [max_deviation] to the bit,
    equals a per-scene loop of scalar forwards and {!Guard.predict}.
    Scenes whose length is not the network's input dimension cannot be
    packed: their forward raises with or without a fault, so they are
    classified once, in the clean pass. The clean pass lives for one
    [run] call only.

    A sample of the faulted networks is optionally re-verified by MILP,
    comparing the empirical maximum observed during replay against the
    formally proven bound (the empirical value must never exceed it).

    Campaigns are bit-reproducible: the same seed yields the same fault
    list and the same counts. *)

type trial = {
  fault : Model.t;
  detected : bool;       (** guard left [Nominal] at least once *)
  nan_raw : bool;
      (** unguarded path delivered NaN/Inf (raw output, mean overflow
          or a raised exception) *)
  nan_detected : bool;   (** every such scene ended in [Fallback] *)
  violation_raw : bool;  (** unguarded worst-lat exceeded the envelope *)
  violation_detected : bool;
      (** every such scene was flagged ([Clamped] or [Fallback]) *)
  silent : bool;
  max_deviation : float;
      (** max |guarded lat - clean lat| over the replay (m/s) *)
  fallbacks : int;       (** scenes whose guarded state is [Fallback] *)
  escaped_exception : bool;  (** an exception escaped {!Guard.classify} *)
}

type reverification = {
  rv_fault : Model.t;
  rv_empirical_max : float;
      (** max worst-lat of the faulted net over the replayed scenes of
          the network's input length *)
  rv_formal_bound : float;
      (** MILP-proven upper bound over those scenes' bounding box *)
  rv_sound : bool;  (** empirical <= formal bound (must hold) *)
}

type report = {
  trials : trial array;
  scenes : int;           (** scenes replayed per trial *)
  detected : int;
  nan_trials : int;
  nan_detected : int;
  violation_trials : int;
  violations_detected : int;
  silent : int;
  benign : int;
  escaped_exceptions : int;  (** must be 0: the guard never leaks *)
  total_fallbacks : int;
  failed_workers : int;
      (** worker domains that died mid-campaign; their in-flight trials
          were re-queued and run in the parent, so every planned trial
          is still accounted for in [trials] *)
  reverified : reverification list;
  elapsed : float;
}

val run :
  rng:Linalg.Rng.t ->
  envelope:Guard.envelope ->
  ?reverify:int ->
  ?reverify_time_limit:float ->
  ?progress:(int -> Model.t -> unit) ->
  ?cores:int ->
  ?faults:Model.t list ->
  scenes:Linalg.Vec.t array ->
  trials:int ->
  Nn.Network.t ->
  report
(** [reverify] (default 0) is how many faulted networks to re-verify
    by MILP with [reverify_time_limit] seconds each (default 5 s);
    faulted networks whose parameters are no longer finite (or whose
    bounds overflow the encoder) are skipped, and nothing is
    re-verified when no scene has the network's input length.
    [progress] is called with each trial index and fault before the
    replay (from worker domains when [cores > 1]).
    [cores] (default 1) replays trials on that many domains via
    work-stealing; the clean pass is built before any trial and the
    workers only read it, and all faults are sampled up front, so the
    trial list — and hence the counts — are identical to the sequential
    run. A worker domain that dies (an exception escaping a trial) is
    counted in [failed_workers] and its unfinished trials are
    {e re-queued} and run in the parent rather than silently dropped,
    mirroring {!Milp.Parallel}'s degradation. The clean pass and every
    replay of the scenes a fault changed pack at most
    {!Nn.Network.chunk_width} columns per product. [faults] are
    explicit faults run as the first trials (in addition to the
    [trials] sampled ones) — the CI smoke uses this
    to pin a known NaN-producing flip. Raises [Invalid_argument] when
    [scenes] is empty or when there is nothing to run ([trials <= 0]
    and no explicit faults). *)

val find_nan_fault :
  components:int ->
  scenes:Linalg.Vec.t array ->
  Nn.Network.t ->
  Model.t option
(** Scan single top-exponent-bit (bit 62) weight flips for one that
    drives the unguarded prediction path non-finite on at least one of
    [scenes] of the network's input length (a scene of another length
    cannot be forwarded, fault or not, so it never counts). Uniformly sampled flips rarely overflow (the top exponent
    bit is 1 in 64, and only ~2% of coordinates propagate), so the CI
    smoke injects the found fault explicitly to exercise the NaN
    detection path deterministically. *)

val render : report -> string
(** Campaign summary table: rates plus the re-verification outcomes. *)
