(** Pillar C — validating data as a new type of specification.

    The paper (Sec. II (C)): "One needs to check the validity of the
    data, to ensure that only sanitized data will be used in training
    ... e.g. no data containing risky driving has been introduced for
    training the maneuver of vehicles."

    The sanitizer applies declarative rules to every sample and keeps
    only samples passing all of them; the audit report is the
    certification artefact. It never looks at the recorder's
    ground-truth flag — tests compare its verdicts against that flag. *)

type rule = {
  rule_name : string;
  check : features:Linalg.Vec.t -> target:Linalg.Vec.t -> string option;
      (** [Some reason] rejects the sample *)
}

type rejection = { index : int; rule_name : string; reason : string }

type report = {
  total : int;
  accepted : int;
  rejections : rejection list;  (** in sample order *)
}

val sanitize :
  ?rules:rule list -> Dataset.t -> Dataset.t * report
(** Returns the clean dataset and the audit trail. [rules] defaults to
    four rules, applied in this order: ["in-sensor-domain"] (features
    inside {!Highway.Features.domain}), ["plausible-action"] (no label
    with |lat| > 4 m/s or |lon| > 6 m/s²), then ["no-risky-left-move"]
    and ["no-risky-right-move"] (a large lateral velocity towards an
    occupied slot, {!Highway.Risk}). *)

val render_report : report -> string
(** Multi-line human-readable audit summary. *)
