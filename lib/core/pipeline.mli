(** The end-to-end certification pipeline: the paper's methodology as an
    executable artefact.

    Steps, mapping to Table I:
    + record driving data with the expert policy (possibly contaminated
      with risky manoeuvres, as a real corpus would be);
    + {b pillar C}: sanitize the data and keep the audit report;
    + train the I4×n motion predictor (MDN loss on a GMM head);
    + {b pillar A}: derive the neuron-to-feature traceability table;
    + quantify why MC/DC cannot carry the correctness argument;
    + {b pillar B}: formally verify the safety property "if there is a
      vehicle on the left, never suggest a large left lateral velocity"
      by MILP, on the vehicle-on-left scenario box;
    + derive the {b runtime guard} envelope from the proven bound and
      sanity-replay the sanitized scenes through the guarded predictor
      ({!Guard}), closing the loop from offline proof to online
      monitoring. *)

val components : int
(** GMM mixture components of the trained predictor: 3. *)

val threshold : float
(** The property's lateral velocity limit: 1.5 m/s. *)

type config = {
  seed : int;
  width : int;              (** hidden width n of the I4×n architecture *)
  n_samples : int;          (** recorded scenes *)
  risky_rate : float;       (** probability of risky expert manoeuvres *)
  epochs : int;             (** trained in mini-batches of 32 *)
  scenario_slack : float;   (** verification box slack, normalised units *)
  verify_time_limit : float;  (** seconds, shared over GMM components *)
  verify_cores : int;  (** worker domains for OBBT + branch & bound *)
}

val default_config : ?width:int -> ?seed:int -> unit -> config
(** width 10, seed 7, 1500 samples, 25% blind-spot rate, 30 epochs,
    slack 0.03, 60 s verification limit, 1 verification core. *)

type artifacts = {
  used : config;
  audit : Sanitizer.report;              (** pillar C *)
  history : Train.Trainer.history;
  network : Nn.Network.t;
  traceability : Traceability.Analysis.t;  (** pillar A *)
  mcdc : Coverage.Mcdc.analysis;
  mcdc_measured : Coverage.Mcdc.measured;
  scenario : Interval.Box.box;
  verification : Verify.Driver.max_result;  (** pillar B *)
  proof : Verify.Driver.proof_result;
  guard_envelope : Guard.envelope;
      (** runtime envelope derived from the proven bound (capped by the
          property threshold) — what a deployment wraps the predictor in *)
  guard_check : Guard.diagnostics;
      (** sanity replay of the sanitized scenes through the guarded
          certified network: almost everything should be [Nominal] *)
}

val run : ?progress:(string -> unit) -> config -> artifacts
(** Executes the full pipeline. [progress] receives one line per stage. *)

type verdict = {
  data_validated : bool;     (** audit rejected every risky sample *)
  traceability_ok : bool;    (** traceable fraction above 50% *)
  property_holds : bool option;
      (** [Some true]: verified below threshold; [Some false]:
          counterexample; [None]: verification inconclusive *)
}

val certify : artifacts -> verdict
val render_report : artifacts -> string
(** The filled-in Table I plus the per-pillar evidence. *)
